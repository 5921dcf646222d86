#ifndef FEWSTATE_BASELINES_SPACE_SAVING_H_
#define FEWSTATE_BASELINES_SPACE_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/mergeable.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "state/state_accountant.h"

namespace fewstate {

/// \brief SpaceSaving [MAA05] (Table 1 row 3): deterministic L1 top-k /
/// heavy hitters with overestimates.
///
/// Keeps exactly k (item, count, overestimation) triples; when a new item
/// arrives and the summary is full, a minimum-count entry is replaced and
/// its count inherited. Every update increments some counter, so the
/// state-change count is Theta(m).
///
/// The summary is [MAA05]'s own Stream-Summary in flat arrays, reserved
/// at their bound by the first update, with no heap traffic after it (a
/// sink's batch scratch aside, which reaches its size on the first
/// chunk). Construction allocates only the index:
///  * `k` slots, each holding one entry's (key, count, error) words. Slot
///    `s` owns the logical cells `KeyCell(s)` (key), `+1` (count) and `+2`
///    (error), so wear and the dirty set are per slot: a hit writes the
///    count word, an insert or replacement writes the slot's 3 words.
///  * An open-addressing item -> slot index (linear probing, power-of-two
///    capacity >= 2k, backward-shift deletion).
///  * Count buckets in a doubly linked list in ascending count order,
///    drawn from a fixed pool; each bucket links the slots holding its
///    count. An increment moves a slot from bucket c to bucket c+1, and
///    `min_count()` is the head bucket's count.
///
/// Tie rule: slots join a bucket at its tail, and a replacement evicts the
/// head of the minimum bucket, so among minimum-count entries the one that
/// has held that count longest goes first (FIFO). Candidates are
/// enumerated by descending count, FIFO within a count.
class SpaceSaving : public MergeableSketch, public CandidateEnumerable {
 public:
  /// \brief Creates a summary with capacity `k >= 1` counters (k < 2^31).
  explicit SpaceSaving(size_t k);

  /// \brief A one-item `UpdateBatch`: the batch loop is the only update
  /// body.
  void Update(Item item) override;

  /// \brief The update body: one summary transition per item, with the
  /// accounting mirrored into a `BatchUpdateScratch` and flushed once per
  /// chunk (`StateAccountant::ApplyBatch`).
  void UpdateBatch(const Item* items, size_t n) override;

  /// \brief Standard practical SpaceSaving combine: counts and error
  /// bounds of common items add, other entries are inserted, and the
  /// union keeps its k largest counts. When the two summaries
  /// saw item-disjoint substreams — exactly the `ShardedEngine`
  /// hash-partition shape — every estimate (tracked, or untracked via
  /// `min_count()`, which is >= any pruned entry's count) remains an
  /// overestimate of the item's combined frequency. For overlapping
  /// streams an item tracked on only one side can undershoot by at most
  /// the other summary's `min_count()`.
  ///
  /// Pricing: a common item writes its slot's count and error words, an
  /// inserted entry its slot's 3 words, and each entry pruned from the
  /// union one more 3-word slot rewrite. An entry arriving while the
  /// summary is full competes with the minimum's slot, which keeps the
  /// larger count (the incumbent on a tie) and is priced for both.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites the summary with another SpaceSaving's (same
  /// capacity). The slot words are written through the accountant with
  /// suppression: a (key, count, error) word equal to the source's is
  /// free, a slot the source does not use yet costs its 3 words, and a
  /// slot the source does not use any more costs one word (its zeroed
  /// count). The index, bucket list and bucket pool are DRAM metadata
  /// derived from the slots; they are copied verbatim and unpriced, which
  /// is what makes the restored replica continue the stream bitwise like
  /// the source (tie order included). Restoring an unchanged replica
  /// costs 0 writes, so a `dirty` restore takes the same full scan and
  /// still gives exact delta checkpoints.
  Status RestoreFrom(const Sketch& source,
                     const DirtyTracker* dirty = nullptr) override;

  /// \brief Overestimate of the frequency of `item` (min count if not
  /// tracked, matching the classic guarantee f_j <= est <= f_j + min).
  double EstimateFrequency(Item item) const override;

  /// \brief Items whose tracked count >= `threshold`, by descending count.
  std::vector<HeavyHitter> HeavyHitters(double threshold) const;

  /// \brief Appends the tracked item identities (at most `capacity()`) by
  /// descending count, the candidate set for `TopK`/`HeavyHitters` view
  /// queries.
  void AppendCandidates(std::vector<Item>* out) const override;

  /// \brief Smallest tracked count (0 while the summary is not full).
  uint64_t min_count() const {
    return slots_.size() < k_ ? 0 : buckets_[min_bucket_].count;
  }

  size_t size() const { return slots_.size(); }
  size_t capacity() const { return k_; }

  /// \brief True iff `other` has this summary's capacity — the
  /// merge/restore precondition.
  bool SameConfig(const SpaceSaving& other) const { return other.k_ == k_; }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    Item key;
    uint64_t error;  // overestimation bound inherited at replacement
    uint32_t hash;   // Hash(key); its low bits are the key's home position
    uint32_t bucket;
    uint32_t prev;  // neighbours inside the bucket, head to tail
    uint32_t next;
  };
  struct Bucket {
    uint64_t count;
    uint32_t head;  // slots, in the order they joined
    uint32_t tail;
    uint32_t prev;  // neighbouring buckets, ascending count
    uint32_t next;  // (also the free-list link of a pooled bucket)
  };
  uint64_t KeyCell(uint32_t s) const { return cells_base_ + 3 * uint64_t{s}; }
  uint64_t CountCell(uint32_t s) const { return KeyCell(s) + 1; }

  void ReserveArrays();
  static uint32_t Hash(Item key);
  uint32_t Find(Item key, uint32_t hash) const;
  void IndexInsert(uint32_t hash, uint32_t s);
  void IndexErase(uint32_t s);

  uint32_t NewBucket(uint64_t count, uint32_t prev, uint32_t next);
  void Detach(uint32_t s);
  void Append(uint32_t s, uint32_t b);
  // Links the detached slot `s` into the bucket holding `count` (created
  // if missing), walking the bucket list from the live bucket `from`
  // (kNil: from the head).
  void Place(uint32_t s, uint64_t count, uint32_t from);
  void Increment(uint32_t s);
  uint32_t InsertSlot(Item key, uint32_t hash);
  void Replace(uint32_t s, Item key, uint32_t hash, uint64_t error);

  size_t k_;
  StateAccountant accountant_;
  uint64_t cells_base_;
  std::vector<Slot> slots_;      // size() is the number of tracked entries
  std::vector<Bucket> buckets_;  // bump-allocated pool
  uint32_t free_bucket_ = kNil;
  uint32_t min_bucket_ = kNil;  // head of the bucket list
  uint32_t max_bucket_ = kNil;  // tail of the bucket list
  std::vector<uint32_t> index_;  // 1 + slot per position, 0 when empty
  uint32_t index_mask_ = 0;
  // Reused batch-kernel scratch (bounded by the internal chunk size).
  BatchUpdateScratch batch_scratch_;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_SPACE_SAVING_H_
