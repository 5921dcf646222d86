// SpaceSaving's flat Stream-Summary against a brute-force reference.
//
// `ReferenceSpaceSaving` keeps its entries in a vector indexed by slot and
// finds everything by linear scan, under the documented rules: an insert
// takes the next free slot, a replacement evicts the minimum-count entry
// that has held its count longest (FIFO) and inherits its count, a hit
// costs the slot's count word and an insert or replacement the slot's 3
// words. Seeded streams run through both; sizes, minimum counts, every
// estimate over the universe, the enumeration order, the recorded
// (epoch, cell) write trace and the accountant counters must all agree,
// and the [MAA05] invariants (sum of counts = m; f <= est <= f + min)
// must hold. The suite also pins the merge and restore contracts against
// the same reference, and that the update path allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "baselines/space_saving.h"
#include "recording_sink.h"
#include "stream/generators.h"
#include "stream/stream_stats.h"

// Global allocation counter for the no-allocation test. Counting is
// always on; the test reads the difference across the call under test.
// Every unaligned form is replaced, so each allocation is paired with
// the matching release under a sanitizer's allocator too; the pairs are
// malloc and free, which g++ cannot see through.
namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAllocate(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocateOrThrow(std::size_t size) {
  if (void* p = CountedAllocate(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return CountedAllocateOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocateOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace fewstate {
namespace {

struct RefEntry {
  Item key = 0;
  uint64_t count = 0;
  uint64_t error = 0;
  uint64_t joined = 0;  // when the entry last joined its count
};

class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(size_t k) : k_(k) {}

  void Update(Item item) {
    ++epoch_;
    ++reads_;
    const size_t s = SlotOf(item);
    if (s < slots_.size()) {
      ++slots_[s].count;
      slots_[s].joined = ++clock_;
      Write(3 * s + 1, 1);
      return;
    }
    if (slots_.size() < k_) {
      slots_.push_back(RefEntry{item, 1, 0, ++clock_});
      Write(3 * (slots_.size() - 1), 3);
      return;
    }
    const size_t v = MinSlot();
    const uint64_t min = slots_[v].count;
    slots_[v] = RefEntry{item, min + 1, min, ++clock_};
    Write(3 * v, 3);
  }

  // The merge rule: common items first, then new entries, both by
  // ascending count (earliest joiner first); a new entry on a full
  // summary replaces the minimum only with a strictly larger count.
  void MergeFrom(const ReferenceSpaceSaving& src) {
    ++epoch_;
    std::vector<size_t> order = src.Order();
    std::stable_sort(order.begin(), order.end(), [&src](size_t a, size_t b) {
      return src.slots_[a].count < src.slots_[b].count;
    });
    for (size_t t : order) {
      ++reads_;
      const RefEntry& entry = src.slots_[t];
      const size_t s = SlotOf(entry.key);
      if (s == slots_.size()) continue;
      slots_[s].count += entry.count;
      slots_[s].error += entry.error;
      slots_[s].joined = ++clock_;
      Write(3 * s + 1, 2);
    }
    for (size_t t : order) {
      const RefEntry& entry = src.slots_[t];
      if (SlotOf(entry.key) < slots_.size()) continue;
      if (slots_.size() < k_) {
        slots_.push_back(RefEntry{entry.key, entry.count, entry.error,
                                  ++clock_});
        Write(3 * (slots_.size() - 1), 3);
        continue;
      }
      const size_t v = MinSlot();
      if (entry.count > slots_[v].count) {
        slots_[v] = RefEntry{entry.key, entry.count, entry.error, ++clock_};
      }
      Write(3 * v, 3);
      Write(3 * v, 3);
    }
  }

  size_t size() const { return slots_.size(); }

  uint64_t min_count() const {
    return slots_.size() < k_ ? 0 : slots_[MinSlot()].count;
  }

  double Estimate(Item item) const {
    const size_t s = SlotOf(item);
    return s < slots_.size() ? static_cast<double>(slots_[s].count)
                             : static_cast<double>(min_count());
  }

  // Slots by descending count, earliest joiner first within a count.
  std::vector<size_t> Order() const {
    std::vector<size_t> order(slots_.size());
    for (size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      if (slots_[a].count != slots_[b].count) {
        return slots_[a].count > slots_[b].count;
      }
      return slots_[a].joined < slots_[b].joined;
    });
    return order;
  }

  std::vector<Item> Candidates() const {
    std::vector<Item> out;
    for (size_t s : Order()) out.push_back(slots_[s].key);
    return out;
  }

  const std::vector<SinkWrite>& writes() const { return writes_; }
  uint64_t word_writes() const { return writes_.size(); }
  uint64_t reads() const { return reads_; }

 private:
  size_t SlotOf(Item item) const {
    for (size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].key == item) return s;
    }
    return slots_.size();
  }

  size_t MinSlot() const {
    size_t v = 0;
    for (size_t s = 1; s < slots_.size(); ++s) {
      if (slots_[s].count < slots_[v].count ||
          (slots_[s].count == slots_[v].count &&
           slots_[s].joined < slots_[v].joined)) {
        v = s;
      }
    }
    return v;
  }

  void Write(uint64_t cell, uint64_t words) {
    for (uint64_t w = 0; w < words; ++w) {
      writes_.push_back(SinkWrite{epoch_, cell + w});
    }
  }

  size_t k_;
  std::vector<RefEntry> slots_;
  std::vector<SinkWrite> writes_;
  uint64_t epoch_ = 0;
  uint64_t reads_ = 0;
  uint64_t clock_ = 0;
};

struct NamedStream {
  std::string name;
  Stream items;
  uint64_t universe;
};

// Many times the kernel's 256-item chunk, so chunk seams are crossed.
constexpr uint64_t kLength = 5000;

std::vector<NamedStream> Streams() {
  return {
      {"zipf", ZipfStream(3000, 1.1, kLength, 41), 3000},
      {"uniform", UniformStream(1500, kLength, 42), 1500},
      {"distinct", PermutationStream(kLength, 43), kLength},
  };
}

const size_t kCapacities[] = {1, 2, 7, 64, 1024};

void ExpectMatchesReference(const SpaceSaving& ss,
                            const ReferenceSpaceSaving& ref,
                            uint64_t universe) {
  ASSERT_EQ(ss.size(), ref.size());
  ASSERT_EQ(ss.min_count(), ref.min_count());
  for (Item item = 0; item < universe; ++item) {
    ASSERT_EQ(ss.EstimateFrequency(item), ref.Estimate(item)) << item;
  }
  std::vector<Item> candidates;
  ss.AppendCandidates(&candidates);
  EXPECT_EQ(candidates, ref.Candidates());
}

TEST(SpaceSavingOracle, UpdatesMatchTheReferenceWriteForWrite) {
  for (const NamedStream& stream : Streams()) {
    for (size_t k : kCapacities) {
      SCOPED_TRACE(stream.name + " k=" + std::to_string(k));
      SpaceSaving ss(k);
      RecordingSink sink;
      ss.mutable_accountant()->set_write_sink(&sink);
      ReferenceSpaceSaving ref(k);
      // Uneven pieces, so batch boundaries land everywhere.
      const size_t pieces[] = {1, 1023, 1500, 2476};
      size_t at = 0;
      for (size_t piece : pieces) {
        ss.UpdateBatch(stream.items.data() + at, piece);
        for (size_t i = at; i < at + piece; ++i) ref.Update(stream.items[i]);
        at += piece;
        ExpectMatchesReference(ss, ref, stream.universe);
      }
      ASSERT_EQ(at, stream.items.size());
      EXPECT_EQ(sink.writes, ref.writes());
      const StateAccountant& a = ss.accountant();
      EXPECT_EQ(a.updates(), kLength);
      EXPECT_EQ(a.state_changes(), kLength);
      EXPECT_EQ(a.word_writes(), ref.word_writes());
      EXPECT_EQ(a.suppressed_writes(), 0u);
      EXPECT_EQ(a.word_reads(), ref.reads());
    }
  }
}

TEST(SpaceSavingOracle, ClassicInvariantsHold) {
  for (const NamedStream& stream : Streams()) {
    for (size_t k : kCapacities) {
      SCOPED_TRACE(stream.name + " k=" + std::to_string(k));
      SpaceSaving ss(k);
      ss.UpdateBatch(stream.items.data(), stream.items.size());
      const StreamStats oracle(stream.items);
      // Every update adds exactly 1 to the sum of counts.
      uint64_t sum = 0;
      double previous = 1e300;
      for (const HeavyHitter& h : ss.HeavyHitters(0.0)) {
        sum += static_cast<uint64_t>(h.estimate);
        EXPECT_LE(h.estimate, previous);  // descending count order
        previous = h.estimate;
      }
      EXPECT_EQ(sum, kLength);
      const double min = static_cast<double>(ss.min_count());
      for (Item item = 0; item < stream.universe; ++item) {
        const double f = static_cast<double>(oracle.Frequency(item));
        const double est = ss.EstimateFrequency(item);
        ASSERT_GE(est, f) << item;
        ASSERT_LE(est, f + min) << item;
      }
    }
  }
}

TEST(SpaceSavingOracle, HeavyHittersStopAtTheThreshold) {
  const NamedStream stream = Streams()[0];
  SpaceSaving ss(64);
  ss.UpdateBatch(stream.items.data(), stream.items.size());
  const double threshold = 40.0;
  std::vector<Item> expected;
  std::vector<Item> all;
  ss.AppendCandidates(&all);
  for (Item item : all) {
    if (ss.EstimateFrequency(item) >= threshold) expected.push_back(item);
  }
  std::vector<Item> got;
  for (const HeavyHitter& h : ss.HeavyHitters(threshold)) {
    EXPECT_GE(h.estimate, threshold);
    got.push_back(h.item);
  }
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.empty());
}

TEST(SpaceSavingOracle, MergeMatchesTheReference) {
  // Overlapping halves and item-disjoint halves (the sharded shape).
  const Stream all = ZipfStream(3000, 1.1, 2 * kLength, 44);
  const Stream first(all.begin(), all.begin() + kLength);
  const Stream second(all.begin() + kLength, all.end());
  Stream even;
  Stream odd;
  for (Item item : all) (item % 2 == 0 ? even : odd).push_back(item);
  const std::pair<const Stream*, const Stream*> cases[] = {
      {&first, &second}, {&even, &odd}};
  for (const auto& [left, right] : cases) {
    for (size_t k : kCapacities) {
      SCOPED_TRACE("k=" + std::to_string(k));
      SpaceSaving a(k);
      SpaceSaving b(k);
      ReferenceSpaceSaving ref_a(k);
      ReferenceSpaceSaving ref_b(k);
      a.UpdateBatch(left->data(), left->size());
      b.UpdateBatch(right->data(), right->size());
      for (Item item : *left) ref_a.Update(item);
      for (Item item : *right) ref_b.Update(item);
      RecordingSink sink;
      a.mutable_accountant()->set_write_sink(&sink);
      const uint64_t writes_before = a.accountant().word_writes();
      const uint64_t reads_before = a.accountant().word_reads();
      const size_t ref_before = ref_a.writes().size();
      ASSERT_TRUE(a.MergeFrom(b).ok());
      ref_a.MergeFrom(ref_b);
      ExpectMatchesReference(a, ref_a, 3000);
      const std::vector<SinkWrite> merge_writes(
          ref_a.writes().begin() + static_cast<long>(ref_before),
          ref_a.writes().end());
      EXPECT_EQ(sink.writes, merge_writes);
      EXPECT_EQ(a.accountant().word_writes() - writes_before,
                merge_writes.size());
      EXPECT_EQ(a.accountant().word_reads() - reads_before, b.size());
      // The merged summary keeps evolving like the reference.
      a.UpdateBatch(first.data(), first.size());
      for (Item item : first) ref_a.Update(item);
      ExpectMatchesReference(a, ref_a, 3000);
    }
  }
}

TEST(SpaceSavingOracle, MergeIntoEmptyMatchesSourceEstimates) {
  const NamedStream stream = Streams()[0];
  SpaceSaving src(64);
  src.UpdateBatch(stream.items.data(), stream.items.size());
  SpaceSaving dst(64);
  ASSERT_TRUE(dst.MergeFrom(src).ok());
  for (Item item = 0; item < stream.universe; ++item) {
    ASSERT_EQ(dst.EstimateFrequency(item), src.EstimateFrequency(item));
  }
  EXPECT_FALSE(dst.MergeFrom(SpaceSaving(32)).ok());
}

TEST(SpaceSavingRestore, RestoredReplicaContinuesBitwise) {
  const NamedStream stream = Streams()[0];
  for (size_t k : kCapacities) {
    SCOPED_TRACE("k=" + std::to_string(k));
    SpaceSaving live(k);
    live.UpdateBatch(stream.items.data(), 3000);
    SpaceSaving copy(k);
    copy.UpdateBatch(stream.items.data() + 3000, 500);  // stale contents
    ASSERT_TRUE(copy.RestoreFrom(live).ok());
    std::vector<Item> a;
    std::vector<Item> b;
    live.AppendCandidates(&a);
    copy.AppendCandidates(&b);
    EXPECT_EQ(a, b);

    // Unchanged source: every slot word suppresses.
    const uint64_t writes = copy.accountant().word_writes();
    const uint64_t suppressed = copy.accountant().suppressed_writes();
    ASSERT_TRUE(copy.RestoreFrom(live).ok());
    EXPECT_EQ(copy.accountant().word_writes(), writes);
    EXPECT_EQ(copy.accountant().suppressed_writes(),
              suppressed + 3 * live.size());

    // The continuation writes the same cells in the same order.
    RecordingSink live_sink;
    RecordingSink copy_sink;
    live.mutable_accountant()->set_write_sink(&live_sink);
    copy.mutable_accountant()->set_write_sink(&copy_sink);
    live.UpdateBatch(stream.items.data() + 3000, 2000);
    copy.UpdateBatch(stream.items.data() + 3000, 2000);
    EXPECT_EQ(copy_sink.cells(), live_sink.cells());
    for (Item item = 0; item < stream.universe; ++item) {
      ASSERT_EQ(copy.EstimateFrequency(item), live.EstimateFrequency(item));
    }
  }
}

TEST(SpaceSavingRestore, RestorePricesOnlyChangedSlotWords) {
  const NamedStream stream = Streams()[0];
  SpaceSaving live(64);
  live.UpdateBatch(stream.items.data(), 2000);
  SpaceSaving snapshot(64);
  ASSERT_TRUE(snapshot.RestoreFrom(live).ok());
  EXPECT_EQ(snapshot.accountant().word_writes(), 3 * live.size());
  EXPECT_EQ(snapshot.accountant().state_changes(), 1u);

  // One hit on a tracked item changes exactly its count word.
  std::vector<Item> tracked;
  live.AppendCandidates(&tracked);
  live.Update(tracked.front());
  RecordingSink sink;
  snapshot.mutable_accountant()->set_write_sink(&sink);
  ASSERT_TRUE(snapshot.RestoreFrom(live).ok());
  ASSERT_EQ(sink.writes.size(), 1u);
  EXPECT_EQ(sink.writes[0].cell % 3, 1u);  // a count word

  // A larger destination frees its surplus slots at one word each.
  SpaceSaving small(64);
  small.UpdateBatch(stream.items.data(), 10);
  SpaceSaving big(64);
  big.UpdateBatch(stream.items.data(), 2000);
  const uint64_t before = big.accountant().word_writes();
  ASSERT_TRUE(big.RestoreFrom(small).ok());
  EXPECT_EQ(big.size(), small.size());
  EXPECT_LE(big.accountant().word_writes() - before,
            3 * small.size() + (64 - small.size()));
}

TEST(SpaceSavingAllocation, UpdateBatchAllocatesNothingAfterWarmUp) {
  const Stream stream = ZipfStream(uint64_t{1} << 20, 1.1, uint64_t{1} << 16,
                                   45);
  SpaceSaving ss(1024);
  ss.UpdateBatch(stream.data(), 1024);  // warm-up batch
  const uint64_t before = g_allocations.load();
  ss.UpdateBatch(stream.data(), stream.size());
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(ss.size(), 1024u);
}

}  // namespace
}  // namespace fewstate
