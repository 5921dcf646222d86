// DirtyTracker against a std::set oracle: whatever mix of single writes,
// batches, repeats, sparse high addresses and mid-stream clears it sees,
// the tracker's membership, exact count and ascending cell list must be
// the oracle's. Also pins which checkpoint policies read a tracker.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/random.h"
#include "recover/checkpoint_policy.h"
#include "state/dirty_tracker.h"
#include "state/write_sink.h"

namespace fewstate {
namespace {

void ExpectMatchesOracle(const DirtyTracker& tracker,
                         const std::set<uint64_t>& oracle) {
  EXPECT_EQ(tracker.dirty_words(), oracle.size());
  const std::vector<uint64_t> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(tracker.SortedCells(), expected);
  for (uint64_t cell : oracle) EXPECT_TRUE(tracker.Contains(cell)) << cell;
}

TEST(DirtyTracker, EmptyTrackerHoldsNothing) {
  DirtyTracker tracker;
  EXPECT_EQ(tracker.dirty_words(), 0u);
  EXPECT_TRUE(tracker.SortedCells().empty());
  EXPECT_FALSE(tracker.Contains(0));
  EXPECT_FALSE(tracker.Contains(~uint64_t{0}));
}

TEST(DirtyTracker, RepeatedCellsCountOnce) {
  DirtyTracker tracker;
  std::set<uint64_t> oracle;
  for (int round = 0; round < 5; ++round) {
    for (uint64_t cell : {uint64_t{3}, uint64_t{63}, uint64_t{64},
                          uint64_t{0}, uint64_t{3}}) {
      tracker.OnWrite(static_cast<uint64_t>(round), cell);
      oracle.insert(cell);
    }
  }
  ExpectMatchesOracle(tracker, oracle);
  EXPECT_EQ(tracker.dirty_words(), 4u);
  EXPECT_FALSE(tracker.Contains(1));
  EXPECT_FALSE(tracker.Contains(65));
}

// Batches and single writes interleave; cells cover many bitmap words,
// with word-boundary cells (63, 64, 127, 128, ...) and repeats both
// within one batch and across batches.
TEST(DirtyTracker, RandomMixMatchesSetOracle) {
  Rng rng(71);
  DirtyTracker tracker;
  std::set<uint64_t> oracle;
  uint64_t epoch = 0;
  for (int step = 0; step < 200; ++step) {
    if (rng.Bernoulli(0.3)) {
      const uint64_t cell = rng.UniformInt(5000);
      tracker.OnWrite(++epoch, cell);
      oracle.insert(cell);
    } else {
      std::vector<CellWrite> batch;
      const uint64_t size = rng.UniformInt(300);
      for (uint64_t i = 0; i < size; ++i) {
        const uint64_t cell = rng.Bernoulli(0.2)
                                  ? 64 * rng.UniformInt(80) + 63 * (i & 1)
                                  : rng.UniformInt(5000);
        batch.push_back(CellWrite{cell, static_cast<uint32_t>(i / 3)});
        oracle.insert(cell);
      }
      tracker.OnWrites(epoch, batch.data(), batch.size());
      epoch += size / 3 + 1;
    }
    EXPECT_EQ(tracker.dirty_words(), oracle.size()) << step;
  }
  ExpectMatchesOracle(tracker, oracle);
  for (uint64_t cell = 0; cell < 5200; ++cell) {
    EXPECT_EQ(tracker.Contains(cell), oracle.count(cell) > 0) << cell;
  }
}

// A few cells far apart: the bitmap grows to the highest address and the
// gaps between stay clean.
TEST(DirtyTracker, SparseHighAddresses) {
  DirtyTracker tracker;
  std::set<uint64_t> oracle;
  constexpr uint64_t kHigh = uint64_t{1} << 20;
  constexpr uint64_t kMid = uint64_t{1} << 18;
  for (uint64_t cell : {kHigh, uint64_t{7}, kHigh + 1, kMid - 1, kMid}) {
    tracker.OnWrite(1, cell);
    oracle.insert(cell);
  }
  ExpectMatchesOracle(tracker, oracle);
  EXPECT_FALSE(tracker.Contains(kHigh - 1));
  EXPECT_FALSE(tracker.Contains(kMid * 2));
}

// Past the last bitmap word, membership is false rather than a read out
// of bounds; a later write there grows the bitmap.
TEST(DirtyTracker, ContainsPastTheBitmapIsFalse) {
  DirtyTracker tracker;
  tracker.OnWrite(1, 10);
  EXPECT_FALSE(tracker.Contains(64));
  EXPECT_FALSE(tracker.Contains(1000000));
  EXPECT_FALSE(tracker.Contains(~uint64_t{0}));
  tracker.OnWrite(2, 1000000);
  EXPECT_TRUE(tracker.Contains(1000000));
  EXPECT_FALSE(tracker.Contains(1000001));
  EXPECT_EQ(tracker.dirty_words(), 2u);
}

// ClearDirty and Reset start a new interval mid-stream: the old cells are
// gone, the count restarts at zero, and cells written again count anew.
TEST(DirtyTracker, ClearDirtyAndResetMidStream) {
  Rng rng(72);
  DirtyTracker tracker;
  std::set<uint64_t> oracle;
  for (int interval = 0; interval < 6; ++interval) {
    std::vector<CellWrite> batch;
    for (int i = 0; i < 400; ++i) {
      const uint64_t cell = rng.UniformInt(interval % 2 == 0 ? 3000 : 300);
      batch.push_back(CellWrite{cell, static_cast<uint32_t>(i)});
      oracle.insert(cell);
    }
    tracker.OnWrites(0, batch.data(), batch.size());
    ExpectMatchesOracle(tracker, oracle);
    if (interval % 2 == 0) {
      tracker.ClearDirty();
    } else {
      tracker.Reset();
    }
    oracle.clear();
    EXPECT_EQ(tracker.dirty_words(), 0u);
    EXPECT_TRUE(tracker.SortedCells().empty());
    for (const CellWrite& w : batch) EXPECT_FALSE(tracker.Contains(w.cell));
  }
}

// After one write far out grows the bitmap, later intervals touch a few
// scattered words each; clears must leave no bit behind anywhere, and a
// word emptied by a clear must rejoin the set when it is written again.
TEST(DirtyTracker, SmallIntervalsOnALargeBitmap) {
  Rng rng(73);
  DirtyTracker tracker;
  constexpr uint64_t kFar = uint64_t{1} << 22;
  tracker.OnWrite(1, kFar);
  EXPECT_EQ(tracker.SortedCells(), std::vector<uint64_t>{kFar});
  tracker.ClearDirty();
  EXPECT_FALSE(tracker.Contains(kFar));
  std::vector<uint64_t> previous;
  for (int interval = 0; interval < 50; ++interval) {
    std::set<uint64_t> oracle;
    // Half the cells repeat last interval's words, half land anywhere.
    for (const uint64_t cell : previous) {
      if (rng.Bernoulli(0.5)) {
        const uint64_t neighbour = (cell & ~uint64_t{63}) | rng.UniformInt(64);
        tracker.OnWrite(2, neighbour);
        oracle.insert(neighbour);
      }
    }
    for (int i = 0; i < 5; ++i) {
      const uint64_t cell = rng.UniformInt(kFar + 1);
      tracker.OnWrite(2, cell);
      oracle.insert(cell);
    }
    ExpectMatchesOracle(tracker, oracle);
    previous = tracker.SortedCells();
    if (interval % 2 == 0) {
      tracker.ClearDirty();
    } else {
      tracker.Reset();
    }
    EXPECT_EQ(tracker.dirty_words(), 0u);
    EXPECT_TRUE(tracker.SortedCells().empty());
    for (const uint64_t cell : previous) EXPECT_FALSE(tracker.Contains(cell));
  }
}

// Bulk reads never dirty anything.
TEST(DirtyTracker, ReadsAreNotWrites) {
  DirtyTracker tracker;
  tracker.OnBulkReads(1000);
  EXPECT_EQ(tracker.dirty_words(), 0u);
  tracker.OnWrite(1, 5);
  tracker.OnBulkReads(3);
  EXPECT_EQ(tracker.SortedCells(), std::vector<uint64_t>{5});
}

// A tracker is built only where the policy reads it: the dirty-words
// trigger and delta snapshots read one; full snapshots under item or
// write-budget triggers never do.
TEST(DirtyTracker, PolicyNeedsTrackingOnlyWhereItIsRead) {
  using Snapshot = CheckpointPolicy::Snapshot;
  EXPECT_FALSE(CheckpointPolicy::None().needs_dirty_tracking());
  EXPECT_FALSE(CheckpointPolicy::EveryItems(100, Snapshot::kFull)
                   .needs_dirty_tracking());
  EXPECT_FALSE(CheckpointPolicy::WriteBudget(100, Snapshot::kFull)
                   .needs_dirty_tracking());
  EXPECT_TRUE(CheckpointPolicy::EveryItems(100, Snapshot::kDelta)
                  .needs_dirty_tracking());
  EXPECT_TRUE(CheckpointPolicy::WriteBudget(100, Snapshot::kDelta)
                  .needs_dirty_tracking());
  EXPECT_TRUE(CheckpointPolicy::DirtyWords(100, Snapshot::kFull)
                  .needs_dirty_tracking());
  EXPECT_TRUE(CheckpointPolicy::DirtyWords(100, Snapshot::kDelta)
                  .needs_dirty_tracking());
  // A disabled delta policy (zero interval) reads nothing.
  EXPECT_FALSE(CheckpointPolicy::EveryItems(0, Snapshot::kDelta)
                   .needs_dirty_tracking());
}

}  // namespace
}  // namespace fewstate
