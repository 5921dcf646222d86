#include "baselines/space_saving.h"

#include <algorithm>

namespace fewstate {

SpaceSaving::SpaceSaving(size_t k) : k_(k == 0 ? 1 : k) {
  // 3 words (item, count, error) per slot. Only the index is allocated
  // here, and filled with zeros (its empty entries); see ReserveArrays.
  cells_base_ = accountant_.AllocateCells(3 * k_);
  size_t positions = 2;
  while (positions < 2 * k_) positions <<= 1;
  index_.resize(positions);
  index_mask_ = static_cast<uint32_t>(positions - 1);
}

void SpaceSaving::ReserveArrays() {
  // The slots and the bucket pool grow by bump as entries arrive, at most
  // one bucket per tracked count. Reserving both at k before the first
  // insert means they never reallocate; a copy that is only restored into
  // (a snapshot) keeps just what its source used.
  slots_.reserve(k_);
  buckets_.reserve(k_);
}

uint32_t SpaceSaving::Hash(Item key) {
  uint64_t x = key ^ (key >> 33);
  x *= 0xff51afd7ed558ccdULL;
  return static_cast<uint32_t>(x ^ (x >> 33));
}

uint32_t SpaceSaving::Find(Item key, uint32_t hash) const {
  // The index is at most half full, so every probe run ends at a hole.
  for (uint32_t pos = hash & index_mask_;; pos = (pos + 1) & index_mask_) {
    const uint32_t entry = index_[pos];
    if (entry == 0) return kNil;
    if (slots_[entry - 1].key == key) return entry - 1;
  }
}

void SpaceSaving::IndexInsert(uint32_t hash, uint32_t s) {
  uint32_t pos = hash & index_mask_;
  while (index_[pos] != 0) pos = (pos + 1) & index_mask_;
  index_[pos] = s + 1;
}

void SpaceSaving::IndexErase(uint32_t s) {
  uint32_t hole = slots_[s].hash & index_mask_;
  while (index_[hole] != s + 1) hole = (hole + 1) & index_mask_;
  // Backward shift: pull each later entry of the run into the hole unless
  // its home lies cyclically after the hole.
  for (uint32_t pos = (hole + 1) & index_mask_; index_[pos] != 0;
       pos = (pos + 1) & index_mask_) {
    const uint32_t home = slots_[index_[pos] - 1].hash & index_mask_;
    if (((pos - home) & index_mask_) >= ((pos - hole) & index_mask_)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = 0;
}

uint32_t SpaceSaving::NewBucket(uint64_t count, uint32_t prev, uint32_t next) {
  uint32_t b = free_bucket_;
  if (b != kNil) {
    free_bucket_ = buckets_[b].next;
  } else {
    b = static_cast<uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[b] = Bucket{count, kNil, kNil, prev, next};
  (prev == kNil ? min_bucket_ : buckets_[prev].next) = b;
  (next == kNil ? max_bucket_ : buckets_[next].prev) = b;
  return b;
}

// Unlinks slot `s` from its bucket, returning the bucket to the pool once
// it is empty.
void SpaceSaving::Detach(uint32_t s) {
  const Slot& slot = slots_[s];
  const uint32_t b = slot.bucket;
  Bucket& bucket = buckets_[b];
  (slot.prev == kNil ? bucket.head : slots_[slot.prev].next) = slot.next;
  (slot.next == kNil ? bucket.tail : slots_[slot.next].prev) = slot.prev;
  if (bucket.head != kNil) return;
  (bucket.prev == kNil ? min_bucket_ : buckets_[bucket.prev].next) =
      bucket.next;
  (bucket.next == kNil ? max_bucket_ : buckets_[bucket.next].prev) =
      bucket.prev;
  bucket.next = free_bucket_;
  free_bucket_ = b;
}

void SpaceSaving::Append(uint32_t s, uint32_t b) {
  Bucket& bucket = buckets_[b];
  Slot& slot = slots_[s];
  slot.bucket = b;
  slot.prev = bucket.tail;
  slot.next = kNil;
  (bucket.tail == kNil ? bucket.head : slots_[bucket.tail].next) = s;
  bucket.tail = s;
}

void SpaceSaving::Place(uint32_t s, uint64_t count, uint32_t from) {
  // Walk to the last bucket whose count is <= `count`, from either side.
  uint32_t at = from == kNil ? min_bucket_ : from;
  while (at != kNil && buckets_[at].count > count) at = buckets_[at].prev;
  uint32_t next = at == kNil ? min_bucket_ : buckets_[at].next;
  while (next != kNil && buckets_[next].count <= count) {
    at = next;
    next = buckets_[next].next;
  }
  if (at == kNil || buckets_[at].count != count) {
    at = NewBucket(count, at, next);
  }
  Append(s, at);
}

void SpaceSaving::Increment(uint32_t s) {
  const uint32_t b = slots_[s].bucket;
  const Bucket& from = buckets_[b];
  const uint64_t count = from.count + 1;
  const uint32_t next = from.next;
  const bool next_holds = next != kNil && buckets_[next].count == count;
  if (from.head == from.tail && !next_holds) {
    buckets_[b].count = count;  // `s` alone: relabel its bucket in place
    return;
  }
  Detach(s);
  Append(s, next_holds ? next : NewBucket(count, b, next));
}

uint32_t SpaceSaving::InsertSlot(Item key, uint32_t hash) {
  const uint32_t s = static_cast<uint32_t>(slots_.size());
  slots_.push_back(Slot{key, 0, hash, kNil, kNil, kNil});
  IndexInsert(hash, s);
  return s;
}

void SpaceSaving::Replace(uint32_t s, Item key, uint32_t hash,
                          uint64_t error) {
  IndexErase(s);
  IndexInsert(hash, s);
  Slot& slot = slots_[s];
  slot.key = key;
  slot.error = error;
  slot.hash = hash;
}

void SpaceSaving::Update(Item item) { UpdateBatch(&item, 1); }

void SpaceSaving::UpdateBatch(const Item* items, size_t n) {
  // Chunked so sink replay latency stays bounded on huge engine batches.
  // An item records up to 3 cell writes, so with a sink attached the
  // scratch holds up to 3 * kChunk records; a short chunk keeps that
  // buffer small on every replica a checkpoint policy tracks.
  constexpr size_t kChunk = 256;
  ReserveArrays();
  const bool collect = accountant_.needs_cell_addresses();
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t c = std::min(kChunk, n - off);
    batch_scratch_.Begin(collect);
    for (size_t i = 0; i < c; ++i) {
      const Item item = items[off + i];
      batch_scratch_.BeginItem();
      batch_scratch_.Read();
      const uint32_t hash = Hash(item);
      uint32_t s = Find(item, hash);
      if (s != kNil) {
        Increment(s);
        batch_scratch_.Write(CountCell(s));
        continue;
      }
      if (slots_.size() < k_) {
        s = InsertSlot(item, hash);
        Place(s, 1, kNil);
      } else {
        // Evict the head of the minimum bucket; the newcomer inherits its
        // count as the error bound.
        s = buckets_[min_bucket_].head;
        Replace(s, item, hash, buckets_[min_bucket_].count);
        Increment(s);
      }
      batch_scratch_.Write(KeyCell(s), 3);
    }
    accountant_.ApplyBatch(batch_scratch_);
  }
}

Status SpaceSaving::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = SourceAs(this, other, "SpaceSaving::MergeFrom", &status);
  if (src == nullptr) return status;
  ReserveArrays();
  accountant_.BeginUpdate();
  // Both passes walk the source by ascending count. Common items go first:
  // their counts only grow, so none is pruned before its source entry
  // adds in. In the second pass an entry can only evict a smaller count,
  // so every common item is still tracked when its source entry comes up
  // again, and is skipped.
  for (uint32_t b = src->min_bucket_; b != kNil; b = src->buckets_[b].next) {
    for (uint32_t t = src->buckets_[b].head; t != kNil;
         t = src->slots_[t].next) {
      accountant_.RecordRead();
      const Slot& entry = src->slots_[t];
      const uint32_t s = Find(entry.key, entry.hash);
      if (s == kNil) continue;
      const Bucket& at = buckets_[slots_[s].bucket];
      const uint64_t count = at.count + src->buckets_[b].count;
      const uint32_t below = at.prev;  // survives the Detach below
      slots_[s].error += entry.error;
      Detach(s);
      Place(s, count, below);
      accountant_.RecordWrite(CountCell(s), 2);
    }
  }
  // New entries arrive with non-decreasing counts, so each placement
  // walks on from the previous one.
  uint32_t last = kNil;
  for (uint32_t b = src->min_bucket_; b != kNil; b = src->buckets_[b].next) {
    const uint64_t count = src->buckets_[b].count;
    for (uint32_t t = src->buckets_[b].head; t != kNil;
         t = src->slots_[t].next) {
      const Slot& entry = src->slots_[t];
      if (Find(entry.key, entry.hash) != kNil) continue;
      const uint32_t from = last == kNil ? kNil : slots_[last].bucket;
      if (slots_.size() < k_) {
        last = InsertSlot(entry.key, entry.hash);
        slots_[last].error = entry.error;
        Place(last, count, from);
        accountant_.RecordWrite(KeyCell(last), 3);
        continue;
      }
      // The union overflows by this entry: it and the minimum compete for
      // the minimum's slot, and the smaller count is pruned.
      const uint32_t s = buckets_[min_bucket_].head;
      if (count > buckets_[min_bucket_].count) {
        // Detaching `s` may free the minimum bucket; never walk from it.
        const uint32_t walk_from = from == min_bucket_ ? kNil : from;
        Replace(s, entry.key, entry.hash, entry.error);
        Detach(s);
        Place(s, count, walk_from);
        last = s;
      }
      accountant_.RecordWrite(KeyCell(s), 3);
      accountant_.RecordWrite(KeyCell(s), 3);
    }
  }
  return Status::OK();
}

Status SpaceSaving::RestoreFrom(const Sketch& source,
                                const DirtyTracker* /*dirty*/) {
  Status status;
  const auto* src = SourceAs(this, source, "SpaceSaving::RestoreFrom", &status);
  if (src == nullptr) return status;
  accountant_.BeginUpdate();
  const size_t ours = slots_.size();
  const size_t theirs = src->slots_.size();
  for (uint32_t s = 0; s < theirs; ++s) {
    if (s >= ours) {
      accountant_.RecordWrite(KeyCell(s), 3);
      continue;
    }
    const Slot& from = src->slots_[s];
    const Slot& to = slots_[s];
    const uint64_t want[3] = {from.key, src->buckets_[from.bucket].count,
                              from.error};
    const uint64_t have[3] = {to.key, buckets_[to.bucket].count, to.error};
    for (uint32_t w = 0; w < 3; ++w) {
      if (want[w] == have[w]) {
        accountant_.RecordSuppressedWrite();
      } else {
        accountant_.RecordWrite(KeyCell(s) + w);
      }
    }
  }
  for (size_t s = theirs; s < ours; ++s) {
    accountant_.RecordWrite(CountCell(static_cast<uint32_t>(s)));
  }
  // The slot words are priced above; they, and the index, bucket list and
  // pool derived from them (unpriced DRAM metadata), are copied verbatim.
  slots_ = src->slots_;
  buckets_ = src->buckets_;
  index_ = src->index_;
  free_bucket_ = src->free_bucket_;
  min_bucket_ = src->min_bucket_;
  max_bucket_ = src->max_bucket_;
  return Status::OK();
}

double SpaceSaving::EstimateFrequency(Item item) const {
  const uint32_t s = Find(item, Hash(item));
  if (s == kNil) return static_cast<double>(min_count());
  return static_cast<double>(buckets_[slots_[s].bucket].count);
}

std::vector<HeavyHitter> SpaceSaving::HeavyHitters(double threshold) const {
  std::vector<HeavyHitter> out;
  for (uint32_t b = max_bucket_; b != kNil; b = buckets_[b].prev) {
    const double count = static_cast<double>(buckets_[b].count);
    if (count < threshold) break;
    for (uint32_t s = buckets_[b].head; s != kNil; s = slots_[s].next) {
      out.push_back(HeavyHitter{slots_[s].key, count});
    }
  }
  return out;
}

void SpaceSaving::AppendCandidates(std::vector<Item>* out) const {
  out->reserve(out->size() + slots_.size());
  for (uint32_t b = max_bucket_; b != kNil; b = buckets_[b].prev) {
    for (uint32_t s = buckets_[b].head; s != kNil; s = slots_[s].next) {
      out->push_back(slots_[s].key);
    }
  }
}

}  // namespace fewstate
