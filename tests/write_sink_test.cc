// The WriteSink pipeline: the accountant streams every event to its sink,
// TeeSink must be equivalent to each sink alone, every sink's batch
// `OnWrites` must equal its per-record `OnWrite` loop, engines report the
// live device's state, and sharded checkpoint wear must be deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/item_source.h"
#include "api/stream_engine.h"
#include "baselines/count_min.h"
#include "baselines/count_sketch.h"
#include "common/random.h"
#include "nvm/live_sink.h"
#include "nvm/nvm_adapter.h"
#include "recording_sink.h"
#include "shard/sharded_engine.h"
#include "shard/sketch_factory.h"
#include "state/dirty_tracker.h"
#include "state/state_accountant.h"
#include "state/write_sink.h"
#include "stream/generators.h"

namespace fewstate {
namespace {

// Bitwise: exact equality on every field, doubles included (inf == inf).
void ExpectReportsIdentical(const NvmReplayReport& a,
                            const NvmReplayReport& b) {
  EXPECT_EQ(a.writes_replayed, b.writes_replayed);
  EXPECT_EQ(a.reads_replayed, b.reads_replayed);
  EXPECT_EQ(a.max_cell_wear, b.max_cell_wear);
  EXPECT_EQ(a.wear_imbalance, b.wear_imbalance);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.projected_stream_replays_to_failure,
            b.projected_stream_replays_to_failure);
}

NvmSpec SmallSpec(NvmSpec::Leveling leveling) {
  NvmSpec spec;
  spec.config.num_cells = 1 << 12;
  spec.config.endurance = 1 << 20;
  spec.leveling = leveling;
  spec.rotate_period = 16;
  spec.hash_seed = 11;
  return spec;
}

Stream TestStream() { return ZipfStream(2000, 1.2, 50000, /*seed=*/97); }

TEST(WriteSink, AccountantStreamsEveryEventToTheSink) {
  StateAccountant a;
  RecordingSink sink;
  a.set_write_sink(&sink);
  EXPECT_EQ(a.write_sink(), &sink);

  a.BeginUpdate();
  a.RecordWrite(5, 2);  // words: cells 5 and 6, epoch 1
  a.RecordRead(3);
  a.RecordSuppressedWrite();  // not a state change: never reaches the sink
  a.BeginUpdate();
  a.RecordWrite(9);

  ASSERT_EQ(sink.writes.size(), 3u);
  EXPECT_EQ(sink.writes[0].epoch, 1u);
  EXPECT_EQ(sink.writes[0].cell, 5u);
  EXPECT_EQ(sink.writes[1].cell, 6u);
  EXPECT_EQ(sink.writes[2].epoch, 2u);
  EXPECT_EQ(sink.writes[2].cell, 9u);
  EXPECT_EQ(sink.bulk_reads, 3u);

  a.Reset();
  EXPECT_EQ(sink.resets, 1);
}

// TeeSink composes: a recorder and a live device fed through one tee
// behave exactly as each would alone.
TEST(WriteSink, TeeSinkIsEquivalentToEachSinkAlone) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kDirect);

  RecordingSink solo_log;
  CountMin a(4, 512, /*seed=*/3);
  a.mutable_accountant()->set_write_sink(&solo_log);
  a.Consume(stream);

  LiveNvmSink solo_live(spec);
  CountMin b(4, 512, /*seed=*/3);
  b.mutable_accountant()->set_write_sink(&solo_live);
  b.Consume(stream);

  RecordingSink teed_log;
  LiveNvmSink teed_live(spec);
  TeeSink tee({&teed_log, &teed_live});
  CountMin c(4, 512, /*seed=*/3);
  c.mutable_accountant()->set_write_sink(&tee);
  c.Consume(stream);

  ASSERT_FALSE(solo_log.writes.empty());
  EXPECT_TRUE(teed_log.writes == solo_log.writes);
  EXPECT_EQ(teed_log.bulk_reads, solo_log.bulk_reads);
  ExpectReportsIdentical(teed_live.Report(), solo_live.Report());
}

// One batch as `StateAccountant::ApplyBatch` hands it to a sink.
struct RecordedBatch {
  uint64_t base_epoch = 0;
  std::vector<CellWrite> writes;
};

// Batches of program-order write records over `cells` logical cells: a
// hot region written many times over (repeats within and across batches),
// a cold tail, and addresses past the 4096-cell test device so the
// modulo path runs too. Sizes straddle the cost path's 256-record chunk,
// and an empty batch is included.
std::vector<RecordedBatch> MixedBatches(uint64_t cells, uint64_t seed) {
  Rng rng(seed);
  std::vector<RecordedBatch> batches;
  uint64_t epoch = 0;
  for (const size_t size : {size_t{1}, size_t{7}, size_t{0}, size_t{255},
                            size_t{256}, size_t{257}, size_t{1000},
                            size_t{3}, size_t{4096}}) {
    RecordedBatch batch;
    batch.base_epoch = epoch;
    uint32_t update = 0;
    for (size_t i = 0; i < size; ++i) {
      if (rng.Bernoulli(0.4)) ++update;  // several words per update
      const uint64_t cell =
          rng.Bernoulli(0.7) ? rng.UniformInt(16) : rng.UniformInt(cells);
      batch.writes.push_back(CellWrite{cell, update});
    }
    epoch += uint64_t{update} + 1;
    batches.push_back(std::move(batch));
  }
  return batches;
}

void FeedBatches(const std::vector<RecordedBatch>& batches, WriteSink* sink) {
  for (const RecordedBatch& batch : batches) {
    sink->OnWrites(batch.base_epoch, batch.writes.data(), batch.writes.size());
  }
}

void FeedRecordByRecord(const std::vector<RecordedBatch>& batches,
                        WriteSink* sink) {
  for (const RecordedBatch& batch : batches) {
    for (const CellWrite& w : batch.writes) {
      sink->OnWrite(batch.base_epoch + w.update_index + 1, w.cell);
    }
  }
}

void ExpectCacheStatsIdentical(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.total_writes, b.total_writes);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.absorbed_writes, b.absorbed_writes);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
  EXPECT_EQ(a.clean_evictions, b.clean_evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.writebacks_pending, b.writebacks_pending);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.reuse_cold, b.reuse_cold);
  EXPECT_EQ(a.reuse_hist, b.reuse_hist);
}

// The default `OnWrites` is the per-record loop under the epoch rule
// `base_epoch + update_index + 1`.
TEST(WriteSinkBatch, DefaultLoopMatchesPerRecordOnWrite) {
  const std::vector<RecordedBatch> batches = MixedBatches(1 << 13, 31);

  RecordingSink batched_default;
  RecordingSink looped_default;
  FeedBatches(batches, &batched_default);
  FeedRecordByRecord(batches, &looped_default);
  ASSERT_EQ(batched_default.writes.size(), looped_default.writes.size());
  for (size_t i = 0; i < looped_default.writes.size(); ++i) {
    EXPECT_EQ(batched_default.writes[i].epoch, looped_default.writes[i].epoch);
    EXPECT_EQ(batched_default.writes[i].cell, looped_default.writes[i].cell);
  }
}

// Every leveling policy, cached or not: batch pricing must leave the
// device, the report and the cache tier bitwise where per-record pricing
// leaves them. Hashed leveling is the sensitive case — its per-cell
// versions must advance in program order within a batch.
TEST(WriteSinkBatch, LiveNvmSinkOnWritesMatchesOnWriteLoopForEverySpec) {
  const std::vector<RecordedBatch> batches = MixedBatches(3 << 12, 32);
  std::vector<NvmSpec> specs;
  for (NvmSpec::Leveling leveling :
       {NvmSpec::Leveling::kDirect, NvmSpec::Leveling::kRotating,
        NvmSpec::Leveling::kHashed}) {
    specs.push_back(SmallSpec(leveling));
    NvmSpec cached = SmallSpec(leveling);
    cached.cache.sets = 4;
    cached.cache.ways = 2;
    cached.cache.line_words = 4;
    specs.push_back(cached);
  }
  for (const NvmSpec& spec : specs) {
    SCOPED_TRACE(std::string(spec.leveling_name()) +
                 (spec.cache.enabled() ? " cached" : ""));
    LiveNvmSink batched(spec);
    LiveNvmSink looped(spec);
    FeedBatches(batches, &batched);
    FeedRecordByRecord(batches, &looped);
    const NvmReplayReport a = batched.Report();
    const NvmReplayReport b = looped.Report();
    ExpectReportsIdentical(a, b);
    EXPECT_EQ(a.cache_enabled, b.cache_enabled);
    ExpectCacheStatsIdentical(a.cache, b.cache);
    EXPECT_EQ(batched.device().cell_wear(), looped.device().cell_wear());
    EXPECT_EQ(batched.device().total_writes(), looped.device().total_writes());
  }
}

// A tee hands the whole batch to each sink in turn; a tracker and a
// device behind it end up exactly as under per-record fan-out.
TEST(WriteSinkBatch, TeeOfTrackerAndDeviceMatchesOnWriteLoop) {
  const std::vector<RecordedBatch> batches = MixedBatches(3 << 12, 33);
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kHashed);

  DirtyTracker batched_dirty;
  LiveNvmSink batched_live(spec);
  TeeSink batched({&batched_dirty, &batched_live});
  FeedBatches(batches, &batched);

  DirtyTracker looped_dirty;
  LiveNvmSink looped_live(spec);
  TeeSink looped({&looped_dirty, &looped_live});
  FeedRecordByRecord(batches, &looped);

  EXPECT_EQ(batched_dirty.dirty_words(), looped_dirty.dirty_words());
  EXPECT_EQ(batched_dirty.SortedCells(), looped_dirty.SortedCells());
  ExpectReportsIdentical(batched_live.Report(), looped_live.Report());
  EXPECT_EQ(batched_live.device().cell_wear(),
            looped_live.device().cell_wear());
}

TEST(WriteSink, AccountantResetRenewsTheLiveDevice) {
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kDirect);
  LiveNvmSink live(spec);
  StateAccountant a;
  a.set_write_sink(&live);
  a.BeginUpdate();
  a.RecordWrite(3);
  a.RecordRead(2);
  EXPECT_EQ(live.Report().writes_replayed, 1u);
  a.Reset();
  const NvmReplayReport fresh = live.Report();
  EXPECT_EQ(fresh.writes_replayed, 0u);
  EXPECT_EQ(fresh.reads_replayed, 0u);
  EXPECT_EQ(fresh.max_cell_wear, 0u);
}

TEST(StreamEngineNvm, AttachNvmPricesWritesLiveAndReportsDeviceState) {
  const Stream stream = TestStream();
  StreamEngine engine;
  engine.Register("count_min", std::make_unique<CountMin>(4, 512, 7));
  ASSERT_TRUE(engine.AttachNvm("count_min",
                               SmallSpec(NvmSpec::Leveling::kDirect))
                  .ok());
  EXPECT_FALSE(engine.AttachNvm("missing",
                                SmallSpec(NvmSpec::Leveling::kDirect))
                   .ok());
  NvmSpec invalid;
  invalid.config.num_cells = 0;
  EXPECT_FALSE(engine.AttachNvm("count_min", invalid).ok());

  const RunReport report = engine.Run(stream);
  const SketchRunReport* row = report.Find("count_min");
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->has_nvm);
  EXPECT_EQ(row->nvm.writes_replayed, row->word_writes);
  EXPECT_GT(row->nvm.max_cell_wear, 0u);
  const LiveNvmSink* sink = engine.NvmSink("count_min");
  ASSERT_NE(sink, nullptr);
  ExpectReportsIdentical(row->nvm, sink->Report());
}

TEST(StreamEngineNvm, EngineDestructionDetachesSinkFromBorrowedSketch) {
  CountMin borrowed(4, 64, 1);
  {
    StreamEngine engine;
    engine.RegisterBorrowed("cm", &borrowed);
    ASSERT_TRUE(
        engine.AttachNvm("cm", SmallSpec(NvmSpec::Leveling::kDirect)).ok());
    engine.Run(ZipfStream(100, 1.2, 1000, 1));
    EXPECT_NE(borrowed.accountant().write_sink(), nullptr);
  }
  // The engine-owned sink died with the engine; the borrowed sketch must
  // not be left writing into freed memory.
  EXPECT_EQ(borrowed.accountant().write_sink(), nullptr);
  borrowed.Update(7);
}

TEST(ShardedNvm, SingleShardLiveDeviceMatchesStreamEngineBitwise) {
  const Stream stream = TestStream();
  const NvmSpec spec = SmallSpec(NvmSpec::Leveling::kRotating);

  StreamEngine reference;
  reference.Register("count_min",
                     std::make_unique<CountMin>(size_t{4}, size_t{512},
                                                uint64_t{7}, false));
  ASSERT_TRUE(reference.AttachNvm("count_min", spec).ok());
  const RunReport expected = reference.Run(stream);

  ShardedEngineOptions options;
  options.shards = 1;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded
                  .AddSketch(SketchFactory::Of<CountMin>(
                                 "count_min", size_t{4}, size_t{512},
                                 uint64_t{7}, false),
                             spec)
                  .ok());
  const ShardedRunReport report = sharded.Run(stream);
  const ShardedSketchReport* row = report.Find("count_min");
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE(row->per_shard[0].has_nvm);
  ASSERT_TRUE(row->total.has_nvm);
  ExpectReportsIdentical(row->per_shard[0].nvm,
                         expected.Find("count_min")->nvm);
  ExpectReportsIdentical(row->total.nvm, expected.Find("count_min")->nvm);
}

ShardedRunReport RunCheckpointed(size_t shards, uint64_t every, uint64_t items,
                                 size_t batch_items = 1024) {
  ShardedEngineOptions options;
  options.shards = shards;
  options.batch_items = batch_items;
  options.checkpoint_policy =
      CheckpointPolicy::EveryItems(every, CheckpointPolicy::Snapshot::kFull);
  options.checkpoint_nvm = SmallSpec(NvmSpec::Leveling::kDirect);
  ShardedEngine engine(options);
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<CountMin>(
                                 "count_min", size_t{4}, size_t{512},
                                 uint64_t{7}, false),
                             SmallSpec(NvmSpec::Leveling::kDirect))
                  .ok());
  EXPECT_TRUE(engine
                  .AddSketch(SketchFactory::Of<CountSketch>(
                                 "count_sketch", size_t{4}, size_t{512},
                                 uint64_t{8}),
                             SmallSpec(NvmSpec::Leveling::kHashed))
                  .ok());
  return engine.Run(ZipfSource(5000, 1.2, items, /*seed=*/4242));
}

TEST(ShardedNvm, CheckpointWearIsDeterministicForFixedSeedAndShards) {
  const ShardedRunReport first = RunCheckpointed(2, 10000, 60000);
  const ShardedRunReport second = RunCheckpointed(2, 10000, 60000);
  ASSERT_EQ(first.sketches.size(), second.sketches.size());
  for (size_t i = 0; i < first.sketches.size(); ++i) {
    const ShardedSketchReport& a = first.sketches[i];
    const ShardedSketchReport& b = second.sketches[i];
    EXPECT_GT(a.checkpoints_taken, 0u);
    EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
    EXPECT_EQ(a.checkpoint.updates, b.checkpoint.updates);
    EXPECT_EQ(a.checkpoint.state_changes, b.checkpoint.state_changes);
    EXPECT_EQ(a.checkpoint.word_writes, b.checkpoint.word_writes);
    EXPECT_EQ(a.checkpoint.word_reads, b.checkpoint.word_reads);
    ASSERT_TRUE(a.checkpoint.has_nvm);
    ExpectReportsIdentical(a.checkpoint.nvm, b.checkpoint.nvm);
    ExpectReportsIdentical(a.total.nvm, b.total.nvm);
  }
}

TEST(ShardedNvm, CheckpointCountMatchesThresholdsCrossed) {
  // S == 1: the shard sees all N items, so exactly floor(N / every)
  // thresholds are crossed when no batch crosses two thresholds.
  const ShardedRunReport report = RunCheckpointed(1, 10000, 55000);
  for (const ShardedSketchReport& sk : report.sketches) {
    EXPECT_EQ(sk.checkpoints_taken, 5u);
    EXPECT_EQ(sk.checkpoint.full_checkpoints, 5u);
    EXPECT_EQ(sk.checkpoint.updates, 5u);  // one restore epoch per snapshot
    EXPECT_GT(sk.checkpoint.word_writes, 0u);
  }
}

TEST(ShardedNvm, BatchCrossingTwoThresholdsCheckpointsOnce) {
  // Every 4096-item batch crosses two 2048-item thresholds. The state is
  // the same at both, so each batch boundary takes one checkpoint.
  const ShardedRunReport report =
      RunCheckpointed(1, 2048, 16384, /*batch_items=*/4096);
  for (const ShardedSketchReport& sk : report.sketches) {
    EXPECT_EQ(sk.checkpoints_taken, 4u);
    EXPECT_EQ(sk.checkpoint.full_checkpoints, 4u);
    EXPECT_EQ(sk.checkpoint.updates, 4u);  // one restore epoch per snapshot
    EXPECT_EQ(sk.last_checkpoint_items, std::vector<uint64_t>{16384});
  }
}

TEST(ShardedNvm, MoreFrequentCheckpointsCostMoreDurabilityWear) {
  const ShardedRunReport sparse = RunCheckpointed(1, 20000, 60000);
  const ShardedRunReport dense = RunCheckpointed(1, 5000, 60000);
  const ShardedSketchReport* s = sparse.Find("count_min");
  const ShardedSketchReport* d = dense.Find("count_min");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_GT(d->checkpoints_taken, s->checkpoints_taken);
  EXPECT_GT(d->checkpoint.word_writes, s->checkpoint.word_writes);
  EXPECT_GT(d->checkpoint.nvm.writes_replayed,
            s->checkpoint.nvm.writes_replayed);
  // Update-path wear is unaffected by how often we snapshot.
  EXPECT_EQ(d->per_shard[0].word_writes, s->per_shard[0].word_writes);
}

}  // namespace
}  // namespace fewstate
