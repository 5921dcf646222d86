#include "state/state_accountant.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "recording_sink.h"
#include "state/tracked.h"

namespace fewstate {
namespace {

TEST(StateAccountant, StartsAtZero) {
  StateAccountant a;
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.word_writes(), 0u);
  EXPECT_EQ(a.word_reads(), 0u);
  EXPECT_EQ(a.updates(), 0u);
}

TEST(StateAccountant, PaperMetricCountsUpdatesNotWrites) {
  // Three writes within one update epoch = one state change (sigma_t
  // changed once).
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  a.RecordWrite(1);
  a.RecordWrite(2);
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(a.word_writes(), 3u);
  a.BeginUpdate();  // closes the first epoch
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(a.updates(), 2u);
}

TEST(StateAccountant, CleanUpdatesAreNotChanges) {
  StateAccountant a;
  for (int i = 0; i < 10; ++i) a.BeginUpdate();
  EXPECT_EQ(a.updates(), 10u);
  EXPECT_EQ(a.state_changes(), 0u);
}

TEST(StateAccountant, AlternatingDirtyCleanEpochs) {
  StateAccountant a;
  for (int i = 0; i < 10; ++i) {
    a.BeginUpdate();
    if (i % 2 == 0) a.RecordWrite(0);
  }
  EXPECT_EQ(a.state_changes(), 5u);
}

TEST(StateAccountant, InFlightDirtyEpochIsCounted) {
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  // No closing BeginUpdate: the in-flight change must still be visible.
  EXPECT_EQ(a.state_changes(), 1u);
}

TEST(StateAccountant, SuppressedWritesAndReadsAreNotChanges) {
  StateAccountant a;
  a.BeginUpdate();
  a.RecordSuppressedWrite();
  a.RecordRead(5);
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 1u);
  EXPECT_EQ(a.word_reads(), 5u);
}

TEST(StateAccountant, InitialisationWritesBeforeFirstUpdateAreFree) {
  // Epoch 0 (before any BeginUpdate) models construction: writes there
  // never count toward the paper metric (sigma_0 is the initial state).
  StateAccountant a;
  a.RecordWrite(0);
  a.RecordWrite(1);
  EXPECT_EQ(a.state_changes(), 0u);
  a.BeginUpdate();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.word_writes(), 2u);  // finer counters still see them
}

TEST(StateAccountant, AllocationTracksPeak) {
  StateAccountant a;
  uint64_t base1 = a.AllocateCells(10);
  uint64_t base2 = a.AllocateCells(5);
  EXPECT_EQ(base1, 0u);
  EXPECT_EQ(base2, 10u);
  EXPECT_EQ(a.allocated_words(), 15u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
  a.ReleaseCells(12);
  EXPECT_EQ(a.allocated_words(), 3u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
  a.AllocateCells(2);
  EXPECT_EQ(a.allocated_words(), 5u);
  EXPECT_EQ(a.peak_allocated_words(), 15u);
}

TEST(StateAccountant, ReleaseMoreThanAllocatedClampsToZero) {
  StateAccountant a;
  a.AllocateCells(3);
  a.ReleaseCells(100);
  EXPECT_EQ(a.allocated_words(), 0u);
}

TEST(StateAccountant, ResetClearsEverything) {
  StateAccountant a;
  a.BeginUpdate();
  a.RecordWrite(0);
  a.RecordRead();
  a.AllocateCells(4);
  a.Reset();
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.word_writes(), 0u);
  EXPECT_EQ(a.word_reads(), 0u);
  EXPECT_EQ(a.updates(), 0u);
  EXPECT_EQ(a.allocated_words(), 0u);
  EXPECT_EQ(a.peak_allocated_words(), 0u);
}

TEST(StateAccountant, WritesFlowToAttachedSink) {
  StateAccountant a;
  RecordingSink sink;
  a.set_write_sink(&sink);
  a.BeginUpdate();
  a.RecordWrite(7);
  a.BeginUpdate();
  a.RecordWrite(9, 2);  // two words: cells 9 and 10
  ASSERT_EQ(sink.writes.size(), 3u);
  EXPECT_EQ(sink.writes[0].epoch, 1u);
  EXPECT_EQ(sink.writes[0].cell, 7u);
  EXPECT_EQ(sink.writes[1].cell, 9u);
  EXPECT_EQ(sink.writes[2].cell, 10u);
  EXPECT_EQ(sink.writes[2].epoch, 2u);
}

TEST(TrackedCell, SetCountsOnlyRealChanges) {
  StateAccountant a;
  TrackedCell<int> cell(&a, 5);
  a.BeginUpdate();
  cell.Set(5);  // unchanged value
  EXPECT_EQ(a.state_changes(), 0u);
  EXPECT_EQ(a.suppressed_writes(), 1u);
  cell.Set(6);
  EXPECT_EQ(a.state_changes(), 1u);
  EXPECT_EQ(cell.Peek(), 6);
}

TEST(TrackedCell, GetCountsReads) {
  StateAccountant a;
  TrackedCell<int> cell(&a, 1);
  (void)cell.Get();
  (void)cell.Get();
  (void)cell.Peek();  // Peek is free
  EXPECT_EQ(a.word_reads(), 2u);
}

TEST(TrackedCell, MoveTransfersCellOwnership) {
  StateAccountant a;
  {
    TrackedCell<int> cell(&a, 1);
    EXPECT_EQ(a.allocated_words(), 1u);
    TrackedCell<int> moved(std::move(cell));
    EXPECT_EQ(a.allocated_words(), 1u);  // still one live cell
    EXPECT_EQ(moved.Peek(), 1);
  }
  EXPECT_EQ(a.allocated_words(), 0u);  // released exactly once
}

TEST(TrackedArray, SetGetAndRelease) {
  StateAccountant a;
  {
    TrackedArray<uint64_t> arr(&a, 8, 0);
    EXPECT_EQ(arr.size(), 8u);
    EXPECT_EQ(a.allocated_words(), 8u);
    a.BeginUpdate();
    arr.Set(3, 42);
    EXPECT_EQ(arr.Peek(3), 42u);
    EXPECT_EQ(a.state_changes(), 1u);
    arr.Set(3, 42);  // idempotent write
    EXPECT_EQ(a.suppressed_writes(), 1u);
    (void)arr.Get(0);
    EXPECT_EQ(a.word_reads(), 1u);
  }
  EXPECT_EQ(a.allocated_words(), 0u);
}

TEST(TrackedArray, DistinctCellAddresses) {
  StateAccountant a;
  RecordingSink sink;
  a.set_write_sink(&sink);
  TrackedArray<int> arr(&a, 4, 0);
  a.BeginUpdate();
  arr.Set(0, 1);
  arr.Set(3, 1);
  ASSERT_EQ(sink.writes.size(), 2u);
  EXPECT_EQ(sink.writes[1].cell - sink.writes[0].cell, 3u);
}

// --- ApplyBatch against the scalar Record* sequence, differentially ---
//
// A script is a seeded random sequence of accountant calls: a few
// epoch-0 (initialisation) calls, then stream updates, each a list of
// multi-word writes, suppressed writes and reads. The scalar side plays
// it through BeginUpdate/Record*; the batch side mirrors each update
// into a BatchUpdateScratch and flushes it with ApplyBatch, cut into
// batches at random update boundaries so that dirty updates are left
// pending across cuts.

struct ScriptOp {
  enum class Kind { kWrite, kSuppressed, kRead };
  Kind kind = Kind::kWrite;
  uint64_t cell = 0;
  uint64_t words = 1;
};

// The update shape `AllChanged` compresses: one write of this many words.
constexpr uint64_t kRunWords = 2;

struct Script {
  std::vector<ScriptOp> init;  // before the first BeginUpdate
  std::vector<std::vector<ScriptOp>> updates;
  std::vector<size_t> cuts;  // batch ends (update indices), ascending
};

ScriptOp RandomOp(Rng* rng) {
  constexpr ScriptOp::Kind kKinds[] = {ScriptOp::Kind::kWrite,
                                       ScriptOp::Kind::kSuppressed,
                                       ScriptOp::Kind::kRead};
  ScriptOp op;
  op.kind = kKinds[rng->UniformInt(3)];
  op.cell = rng->UniformInt(64);
  op.words = 1 + rng->UniformInt(3);
  return op;
}

Script RandomScript(uint64_t seed) {
  Rng rng(seed);
  Script script;
  const uint64_t init_ops = rng.UniformInt(4);
  for (uint64_t i = 0; i < init_ops; ++i) script.init.push_back(RandomOp(&rng));
  const size_t n = 1 + static_cast<size_t>(rng.UniformInt(300));
  for (size_t u = 0; u < n; ++u) {
    std::vector<ScriptOp> ops;
    if (rng.Bernoulli(0.3)) {
      ops.push_back(ScriptOp{ScriptOp::Kind::kWrite, rng.UniformInt(64),
                             kRunWords});
    } else {
      const uint64_t k = rng.UniformInt(5);  // 0: a clean update
      for (uint64_t i = 0; i < k; ++i) ops.push_back(RandomOp(&rng));
    }
    script.updates.push_back(ops);
  }
  for (size_t u = 1; u < n; ++u) {
    if (rng.Bernoulli(0.1)) script.cuts.push_back(u);
  }
  script.cuts.push_back(n);
  return script;
}

void Play(const ScriptOp& op, StateAccountant* a) {
  switch (op.kind) {
    case ScriptOp::Kind::kWrite:
      a->RecordWrite(op.cell, op.words);
      break;
    case ScriptOp::Kind::kSuppressed:
      a->RecordSuppressedWrite(op.words);
      break;
    case ScriptOp::Kind::kRead:
      a->RecordRead(op.words);
      break;
  }
}

void Mirror(const ScriptOp& op, BatchUpdateScratch* scratch) {
  switch (op.kind) {
    case ScriptOp::Kind::kWrite:
      scratch->Write(op.cell, op.words);
      break;
    case ScriptOp::Kind::kSuppressed:
      scratch->SuppressedWrite(op.words);
      break;
    case ScriptOp::Kind::kRead:
      scratch->Read(op.words);
      break;
  }
}

bool IsRunUpdate(const std::vector<ScriptOp>& ops) {
  return ops.size() == 1 && ops[0].kind == ScriptOp::Kind::kWrite &&
         ops[0].words == kRunWords;
}

TEST(StateAccountantBatch, ApplyBatchMatchesScalarRecordSequence) {
  uint64_t pending_dirty_cuts = 0;
  for (const bool with_sink : {false, true}) {
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   (with_sink ? " sink" : " no sink"));
      const Script script = RandomScript(seed);
      StateAccountant scalar;
      StateAccountant batched;
      RecordingSink scalar_sink;
      RecordingSink batched_sink;
      if (with_sink) {
        scalar.set_write_sink(&scalar_sink);
        batched.set_write_sink(&batched_sink);
      }
      for (const ScriptOp& op : script.init) {
        Play(op, &scalar);
        Play(op, &batched);
      }

      Rng coin(seed ^ 0x5eedULL);
      BatchUpdateScratch scratch;
      size_t begin = 0;
      for (const size_t end : script.cuts) {
        for (size_t u = begin; u < end; ++u) {
          scalar.BeginUpdate();
          for (const ScriptOp& op : script.updates[u]) Play(op, &scalar);
        }
        scratch.Begin(batched.needs_cell_addresses());
        for (size_t u = begin; u < end;) {
          // Without a sink, a stretch of one-write updates may go in as
          // one aggregate AllChanged call instead of item by item.
          size_t run = 0;
          while (!with_sink && u + run < end &&
                 IsRunUpdate(script.updates[u + run])) {
            ++run;
          }
          if (run > 0 && coin.Bernoulli(0.5)) {
            scratch.AllChanged(run, kRunWords);
            u += run;
            continue;
          }
          scratch.BeginItem();
          for (const ScriptOp& op : script.updates[u]) Mirror(op, &scratch);
          ++u;
        }
        batched.ApplyBatch(scratch);
        if (end < script.updates.size() && scratch.last_changed()) {
          ++pending_dirty_cuts;
        }
        begin = end;

        SCOPED_TRACE("after update " + std::to_string(end));
        ASSERT_EQ(scalar.updates(), batched.updates());
        ASSERT_EQ(scalar.state_changes(), batched.state_changes());
        ASSERT_EQ(scalar.word_writes(), batched.word_writes());
        ASSERT_EQ(scalar.suppressed_writes(), batched.suppressed_writes());
        ASSERT_EQ(scalar.word_reads(), batched.word_reads());
        ASSERT_EQ(scalar_sink.writes, batched_sink.writes);
        ASSERT_EQ(scalar_sink.bulk_reads, batched_sink.bulk_reads);
      }
      if (with_sink) {
        EXPECT_EQ(batched_sink.writes.size(), batched.word_writes());
      }
    }
  }
  // The scripts do leave dirty updates pending across cuts.
  EXPECT_GT(pending_dirty_cuts, 100u);
}

}  // namespace
}  // namespace fewstate
