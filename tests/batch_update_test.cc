// Batch ≡ scalar bitwise equivalence for the `UpdateBatch` kernels.
//
// The contract (common/stream_types.h): `UpdateBatch(items, n)` is an
// ingest-speed optimization only — estimates, accountant totals, sink
// replay (dirty sets, metered epochs, live NVM wear) and checkpoint
// traffic must come out bit-for-bit identical to n scalar `Update` calls
// in the same order. Every sketch overriding `UpdateBatch` is checked
// here, across batch sizes {1, 7, 4096}, with and without an attached
// sink chain, and through the sharded engine with a checkpoint trigger
// landing mid-batch. Only CountMin and CountSketch keep an independent
// scalar `Update` as the reference; MisraGries' and SpaceSaving's
// `Update` is a one-item batch, so for them the sweep pins chunking and
// batch-size independence, and StableSketch batches through its `Update`.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/sketch.h"
#include "common/random.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "baselines/stable_sketch.h"
#include "nvm/live_sink.h"
#include "recover/checkpoint_policy.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/dirty_tracker.h"
#include "state/write_sink.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

struct Maker {
  const char* name;
  std::function<std::unique_ptr<Sketch>()> make;
};

// Every sketch with a real `UpdateBatch` kernel, in the configurations
// the kernels specialize on — CountMin both plain (closed-form
// accounting + row-major sweep) and conservative (per-item min path) —
// plus StableSketch in both counter modes, which batches through the
// default per-item loop over its memoised `Update`.
std::vector<Maker> BatchSketches() {
  return {
      {"misra_gries", [] { return std::make_unique<MisraGries>(64); }},
      {"count_min",
       [] { return std::make_unique<CountMin>(4, 256, 7, false); }},
      {"count_min_conservative",
       [] { return std::make_unique<CountMin>(4, 256, 7, true); }},
      {"count_sketch",
       [] { return std::make_unique<CountSketch>(4, 256, 9); }},
      {"space_saving", [] { return std::make_unique<SpaceSaving>(64); }},
      {"stable_exact",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kExact);
       }},
      {"stable_morris",
       [] {
         return std::make_unique<StableSketch>(
             0.5, 16, 11, StableSketch::CounterMode::kMorris, 0.2);
       }},
  };
}

// Universe larger than the counter budgets (64) so MisraGries and
// SpaceSaving evict, exercising their slot recycling under batching.
Stream TestStream() { return ZipfStream(5000, 1.2, 30000, /*seed=*/321); }

void FeedScalar(Sketch& sketch, const Stream& stream) {
  for (const Item item : stream) sketch.Update(item);
}

void FeedBatched(Sketch& sketch, const Stream& stream, size_t batch) {
  for (size_t off = 0; off < stream.size(); off += batch) {
    const size_t n = std::min(batch, stream.size() - off);
    sketch.UpdateBatch(stream.data() + off, n);
  }
}

void ExpectAccountantsEqual(const StateAccountant& scalar,
                            const StateAccountant& batched,
                            const std::string& context) {
  EXPECT_EQ(scalar.updates(), batched.updates()) << context;
  EXPECT_EQ(scalar.state_changes(), batched.state_changes()) << context;
  EXPECT_EQ(scalar.word_writes(), batched.word_writes()) << context;
  EXPECT_EQ(scalar.suppressed_writes(), batched.suppressed_writes())
      << context;
  EXPECT_EQ(scalar.word_reads(), batched.word_reads()) << context;
  EXPECT_EQ(scalar.allocated_words(), batched.allocated_words()) << context;
  EXPECT_EQ(scalar.peak_allocated_words(), batched.peak_allocated_words())
      << context;
}

// Exact (==, not near) estimate comparison over the whole universe: the
// final structure state must be bitwise identical, and every point query
// is a deterministic function of that state.
void ExpectEstimatesEqual(const Sketch& scalar, const Sketch& batched,
                          const std::string& context) {
  for (Item item = 0; item < 5000; ++item) {
    ASSERT_EQ(scalar.EstimateFrequency(item), batched.EstimateFrequency(item))
        << context << " item=" << item;
  }
}

TEST(BatchUpdateTest, MatchesScalarAcrossBatchSizes) {
  const Stream stream = TestStream();
  for (const Maker& maker : BatchSketches()) {
    const std::unique_ptr<Sketch> scalar = maker.make();
    FeedScalar(*scalar, stream);
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
      const std::string context =
          std::string(maker.name) + " batch=" + std::to_string(batch);
      const std::unique_ptr<Sketch> batched = maker.make();
      FeedBatched(*batched, stream, batch);
      ExpectAccountantsEqual(scalar->accountant(), batched->accountant(),
                             context);
      ExpectEstimatesEqual(*scalar, *batched, context);
    }
  }
}

// Counts the device-visible write stream: one word per `OnWrite`,
// distinct non-initialisation epochs as state changes, and bulk reads.
class CountingSink : public WriteSink {
 public:
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    (void)cell;
    ++word_writes_;
    if (epoch != 0 && (!saw_epoch_ || epoch != last_epoch_)) {
      ++state_changes_;
      last_epoch_ = epoch;
      saw_epoch_ = true;
    }
  }
  void OnBulkReads(uint64_t count) override { word_reads_ += count; }

  uint64_t word_writes() const { return word_writes_; }
  uint64_t state_changes() const { return state_changes_; }
  uint64_t word_reads() const { return word_reads_; }

 private:
  uint64_t word_writes_ = 0;
  uint64_t state_changes_ = 0;
  uint64_t word_reads_ = 0;
  uint64_t last_epoch_ = 0;
  bool saw_epoch_ = false;
};

// With a sink chain attached the kernels must abandon their closed-form
// accounting and replay every touched word in scalar program order:
// the DirtyTracker set, the counting sink's distinct-epoch state-change
// count, and the per-cell wear of a live NVM device all pin that.
TEST(BatchUpdateTest, SinkReplayMatchesScalar) {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  spec.leveling = NvmSpec::Leveling::kHashed;
  spec.hash_seed = 11;

  const Stream stream = TestStream();
  for (const Maker& maker : BatchSketches()) {
    struct SinkChain {
      DirtyTracker dirty;
      CountingSink meter;
      std::unique_ptr<LiveNvmSink> nvm;
      std::unique_ptr<TeeSink> tee;
    };
    const auto attach = [&spec](Sketch& sketch, SinkChain& chain) {
      chain.nvm = std::make_unique<LiveNvmSink>(spec);
      chain.tee = std::make_unique<TeeSink>(std::vector<WriteSink*>{
          &chain.dirty, &chain.meter, chain.nvm.get()});
      sketch.mutable_accountant()->set_write_sink(chain.tee.get());
    };

    const std::unique_ptr<Sketch> scalar = maker.make();
    SinkChain scalar_chain;
    attach(*scalar, scalar_chain);
    FeedScalar(*scalar, stream);

    for (const size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
      const std::string context =
          std::string(maker.name) + " batch=" + std::to_string(batch);
      const std::unique_ptr<Sketch> batched = maker.make();
      SinkChain batched_chain;
      attach(*batched, batched_chain);
      FeedBatched(*batched, stream, batch);

      ExpectAccountantsEqual(scalar->accountant(), batched->accountant(),
                             context);
      ExpectEstimatesEqual(*scalar, *batched, context);
      EXPECT_EQ(scalar_chain.dirty.SortedCells(),
                batched_chain.dirty.SortedCells())
          << context;
      EXPECT_EQ(scalar_chain.meter.word_writes(),
                batched_chain.meter.word_writes())
          << context;
      EXPECT_EQ(scalar_chain.meter.state_changes(),
                batched_chain.meter.state_changes())
          << context;
      EXPECT_EQ(scalar_chain.meter.word_reads(),
                batched_chain.meter.word_reads())
          << context;
      // The meter's distinct-epoch count must also agree with the
      // accountant's own metric — the epoch numbers the batch
      // reconciliation replays are real, not merely distinct.
      EXPECT_EQ(batched_chain.meter.state_changes(),
                batched->accountant().state_changes())
          << context;
      EXPECT_EQ(scalar_chain.nvm->device().cell_wear(),
                batched_chain.nvm->device().cell_wear())
          << context;
      EXPECT_EQ(scalar_chain.nvm->Report().writes_replayed,
                batched_chain.nvm->Report().writes_replayed)
          << context;
      EXPECT_EQ(scalar_chain.nvm->Report().energy_nj,
                batched_chain.nvm->Report().energy_nj)
          << context;
    }
  }
}

// `T` fed one item per `T::UpdateBatch` call — the scalar side of an
// engine-level comparison. (Calling `Update` here would recurse where `T`
// defines `Update` as a one-item batch.) Still a `T` to `dynamic_cast`, so
// merges and delta checkpoints treat it exactly like the original.
template <typename T>
class ScalarOnly : public T {
 public:
  using T::T;
  void UpdateBatch(const Item* items, size_t n) override {
    for (size_t i = 0; i < n; ++i) T::UpdateBatch(items + i, 1);
  }
};

// `SketchFactory::Of<T>`, minting `ScalarOnly<T>` replicas when `scalar`.
template <typename T, typename... Args>
SketchFactory FactoryOf(bool scalar, std::string name, Args... args) {
  if (scalar) {
    return SketchFactory::Of<ScalarOnly<T>>(std::move(name), args...);
  }
  return SketchFactory::Of<T>(std::move(name), args...);
}

// A checkpoint trigger landing mid-batch (checkpoint_every = 1000 items,
// drain batches of 4096) must produce identical durability traffic on
// both update paths: the trigger fires at the same batch boundaries
// either way, and the delta checkpoints serialize identical dirty sets.
TEST(BatchUpdateTest, CheckpointStraddlingBatchMatchesScalar) {
  const auto run = [](bool scalar) -> ShardedRunReport {
    ShardedEngineOptions options;
    options.shards = 1;
    options.batch_items = 4096;
    options.checkpoint_policy = CheckpointPolicy::EveryItems(
        1000, CheckpointPolicy::Snapshot::kDelta);
    options.checkpoint_nvm.config.num_cells = 1 << 14;
    ShardedEngine engine(options);
    EXPECT_TRUE(engine
                    .AddSketch(FactoryOf<CountMin>(scalar, "count_min",
                                                   size_t{4}, size_t{256},
                                                   uint64_t{7}, false))
                    .ok());
    EXPECT_TRUE(engine
                    .AddSketch(FactoryOf<MisraGries>(scalar, "misra_gries",
                                                     size_t{64}))
                    .ok());
    return engine.Run(ZipfSource(5000, 1.2, 30000, /*seed=*/321));
  };

  const ShardedRunReport scalar = run(true);
  const ShardedRunReport batched = run(false);
  ASSERT_EQ(scalar.sketches.size(), batched.sketches.size());
  EXPECT_EQ(scalar.items_ingested, batched.items_ingested);
  for (size_t i = 0; i < scalar.sketches.size(); ++i) {
    const ShardedSketchReport& s = scalar.sketches[i];
    const ShardedSketchReport& b = batched.sketches[i];
    ASSERT_EQ(s.name, b.name);
    EXPECT_EQ(s.total.updates, b.total.updates) << s.name;
    EXPECT_EQ(s.total.state_changes, b.total.state_changes) << s.name;
    EXPECT_EQ(s.total.word_writes, b.total.word_writes) << s.name;
    EXPECT_EQ(s.total.suppressed_writes, b.total.suppressed_writes)
        << s.name;
    EXPECT_EQ(s.checkpoints_taken, b.checkpoints_taken) << s.name;
    EXPECT_EQ(s.checkpoint.full_checkpoints, b.checkpoint.full_checkpoints)
        << s.name;
    EXPECT_EQ(s.checkpoint.delta_checkpoints, b.checkpoint.delta_checkpoints)
        << s.name;
    // Delta checkpoints serialize exactly the words whose values changed
    // since the previous snapshot — identical dirty sets, identical
    // checkpoint word traffic, bit for bit.
    EXPECT_EQ(s.checkpoint.word_writes, b.checkpoint.word_writes) << s.name;
  }
}

// StableSketch memoises each item's entry vector in a direct-mapped table
// sized by its row count. An entry depends only on (seed, row, item), so a
// memoised sketch's rows must agree bit for bit with the same rows of a
// sketch too wide for any memo, fed the same stream.
void ExpectRowsMatchUnmemoisedSketch(const Stream& stream, size_t rows,
                                     uint64_t seed) {
  constexpr size_t kWideRows = 600;
  ASSERT_EQ(StableSketch::EntryMemoSlots(kWideRows), 0u);
  ASSERT_GT(StableSketch::EntryMemoSlots(rows), 0u);
  StableSketch wide(0.5, kWideRows, seed, StableSketch::CounterMode::kExact);
  FeedScalar(wide, stream);
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
    const std::string context = "batch=" + std::to_string(batch);
    StableSketch memoised(0.5, rows, seed, StableSketch::CounterMode::kExact);
    FeedBatched(memoised, stream, batch);
    EXPECT_EQ(memoised.accountant().updates(), wide.accountant().updates())
        << context;
    for (size_t r = 0; r < rows; ++r) {
      const double m = memoised.RowValue(r);
      const double w = wide.RowValue(r);
      uint64_t m_bits;
      uint64_t w_bits;
      std::memcpy(&m_bits, &m, sizeof(m));
      std::memcpy(&w_bits, &w, sizeof(w));
      ASSERT_EQ(m_bits, w_bits) << context << " row=" << r;
    }
  }
}

constexpr size_t kMemoRun = 150;

// Groups of four items sharing one memo slot (one group around item 0,
// one around UINT64_MAX, the rest from the low items), emitted in runs of
// `kMemoRun` random picks from one group: within a run consecutive items
// share a slot, so every switch of item evicts and every repeat hits.
Stream MemoCollisionStream(size_t slots) {
  std::vector<std::vector<Item>> groups;
  for (const Item anchor : {Item{0}, UINT64_MAX, Item{1}, Item{12345}}) {
    const size_t slot = StableSketch::EntryMemoSlot(anchor, slots);
    std::vector<Item> group = {anchor};
    for (Item mate = 2; group.size() < 4; ++mate) {
      if (mate != anchor && StableSketch::EntryMemoSlot(mate, slots) == slot) {
        group.push_back(mate);
      }
    }
    groups.push_back(group);
  }
  Rng rng(99);
  Stream stream;
  for (int round = 0; round < 8; ++round) {
    for (const std::vector<Item>& group : groups) {
      for (size_t i = 0; i < kMemoRun; ++i) {
        stream.push_back(group[rng.UniformInt(group.size())]);
      }
    }
  }
  return stream;
}

TEST(BatchUpdateTest, MemoisedStableRowsMatchUnmemoisedSketchUnderCollisions) {
  constexpr size_t kRows = 32;
  const size_t slots = StableSketch::EntryMemoSlots(kRows);
  ASSERT_EQ(slots, 128u);
  const Stream stream = MemoCollisionStream(slots);
  for (size_t i = 1; i < stream.size(); ++i) {
    if (i % kMemoRun == 0) continue;  // a new run, a new group
    ASSERT_EQ(StableSketch::EntryMemoSlot(stream[i], slots),
              StableSketch::EntryMemoSlot(stream[i - 1], slots))
        << "at " << i;
  }
  ExpectRowsMatchUnmemoisedSketch(stream, kRows, 11);
}

TEST(BatchUpdateTest, MemoisedStableRowsMatchUnmemoisedSketchOnZipf) {
  Stream stream = ZipfStream(300, 1.2, 1500, /*seed=*/77);
  stream.push_back(0);
  stream.push_back(UINT64_MAX);
  stream.push_back(UINT64_MAX);
  ExpectRowsMatchUnmemoisedSketch(stream, 32, 13);
}

}  // namespace
}  // namespace fewstate
