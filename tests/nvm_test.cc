#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "nvm/cache_tier.h"
#include "nvm/live_sink.h"
#include "nvm/nvm_adapter.h"
#include "nvm/nvm_device.h"
#include "nvm/wear_leveling.h"
#include "state/state_accountant.h"

namespace fewstate {
namespace {

NvmConfig SmallConfig() {
  NvmConfig config;
  config.num_cells = 64;
  config.endurance = 100;
  return config;
}

TEST(NvmConfig, ValidationCatchesBadParameters) {
  NvmConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_cells = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = NvmConfig();
  config.endurance = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = NvmConfig();
  config.write_energy_nj = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(NvmDevice, TracksPerCellWear) {
  NvmDevice device(SmallConfig());
  device.Write(3);
  device.Write(3);
  device.Write(5);
  EXPECT_EQ(device.total_writes(), 3u);
  EXPECT_EQ(device.max_cell_wear(), 2u);
  EXPECT_EQ(device.cell_wear()[3], 2u);
  EXPECT_EQ(device.cell_wear()[5], 1u);
}

TEST(NvmDevice, AddressesWrapModuloDeviceSize) {
  NvmDevice device(SmallConfig());
  device.Write(64 + 3);  // wraps to cell 3
  EXPECT_EQ(device.cell_wear()[3], 1u);
}

TEST(NvmDevice, FailsWhenACellReachesEndurance) {
  NvmDevice device(SmallConfig());
  for (int i = 0; i < 99; ++i) device.Write(0);
  EXPECT_FALSE(device.failed());
  EXPECT_NEAR(device.lifetime_remaining(), 0.01, 1e-9);
  device.Write(0);
  EXPECT_TRUE(device.failed());
  EXPECT_EQ(device.worn_out_cells(), 1u);
  EXPECT_DOUBLE_EQ(device.lifetime_remaining(), 0.0);
}

TEST(NvmDevice, EnergyAndLatencyUseAsymmetricCosts) {
  NvmConfig config = SmallConfig();
  config.read_energy_nj = 1.0;
  config.write_energy_nj = 10.0;
  config.read_latency_ns = 50.0;
  config.write_latency_ns = 500.0;
  NvmDevice device(config);
  device.Write(0);
  device.Read(0);
  device.ReadBulk(9);
  EXPECT_DOUBLE_EQ(device.energy_nj(), 10.0 + 10.0);
  EXPECT_DOUBLE_EQ(device.latency_ns(), 500.0 + 500.0);
  EXPECT_EQ(device.total_reads(), 10u);
}

TEST(NvmDevice, WearImbalanceDetectsHotCells) {
  NvmDevice hot(SmallConfig());
  for (int i = 0; i < 64; ++i) hot.Write(0);
  EXPECT_DOUBLE_EQ(hot.wear_imbalance(), 64.0);

  NvmDevice level(SmallConfig());
  for (int c = 0; c < 64; ++c) level.Write(c);
  EXPECT_DOUBLE_EQ(level.wear_imbalance(), 1.0);
}

TEST(WearLeveling, DirectMappingIsIdentityModuloSize) {
  DirectMapping direct(64);
  EXPECT_EQ(direct.MapWrite(5), 5u);
  EXPECT_EQ(direct.MapWrite(64 + 5), 5u);
}

TEST(WearLeveling, RotatingMappingSpreadsAHotCell) {
  RotatingMapping rotate(16, /*rotate_period=*/1);
  std::set<uint64_t> cells;
  for (int i = 0; i < 16; ++i) cells.insert(rotate.MapWrite(0));
  EXPECT_EQ(cells.size(), 16u);  // one rotation per write covers the device
}

TEST(WearLeveling, HashedMappingSpreadsAHotCell) {
  HashedMapping hashed(1 << 12, 7);
  std::set<uint64_t> cells;
  for (int i = 0; i < 100; ++i) cells.insert(hashed.MapWrite(0));
  EXPECT_GT(cells.size(), 90u);  // ~uniform scatter, few collisions
}

// A direct-mapped device of `SmallConfig()`.
NvmSpec SmallSpec() {
  NvmSpec spec;
  spec.config = SmallConfig();
  return spec;
}

TEST(NvmAdapter, LiveSinkPricesEveryAccountedWordAndRead) {
  StateAccountant accountant;
  LiveNvmSink sink(SmallSpec());
  accountant.set_write_sink(&sink);
  accountant.BeginUpdate();
  accountant.RecordWrite(1);
  accountant.RecordWrite(2);
  accountant.BeginUpdate();
  accountant.RecordWrite(1);
  accountant.RecordRead(7);

  const NvmReplayReport report = sink.Report();
  EXPECT_EQ(report.writes_replayed, 3u);
  EXPECT_EQ(report.reads_replayed, 7u);
  EXPECT_EQ(report.max_cell_wear, 2u);  // cell 1 written twice
  EXPECT_DOUBLE_EQ(report.projected_stream_replays_to_failure, 100.0 / 2.0);
}

TEST(NvmAdapter, NoWritesMeansInfiniteLifetime) {
  LiveNvmSink sink(SmallSpec());
  const NvmReplayReport report = sink.Report();
  EXPECT_TRUE(std::isinf(report.projected_stream_replays_to_failure));
}

TEST(NvmAdapter, WearLevelingExtendsLifetimeOfHotWorkloads) {
  // A workload that hammers one logical cell: direct mapping dies sooner
  // than rotate/hashed.
  auto run = [](NvmSpec::Leveling leveling) {
    NvmSpec spec;
    spec.config.num_cells = 256;
    spec.config.endurance = 1 << 20;
    spec.leveling = leveling;
    spec.rotate_period = 4;
    spec.hash_seed = 9;
    StateAccountant accountant;
    LiveNvmSink sink(spec);
    accountant.set_write_sink(&sink);
    for (int i = 0; i < 1000; ++i) {
      accountant.BeginUpdate();
      accountant.RecordWrite(0);
    }
    return sink.Report().projected_stream_replays_to_failure;
  };
  const double direct = run(NvmSpec::Leveling::kDirect);
  const double rotate = run(NvmSpec::Leveling::kRotating);
  const double hashed = run(NvmSpec::Leveling::kHashed);
  EXPECT_GT(rotate, 10 * direct);
  EXPECT_GT(hashed, 10 * direct);
}

// --- Reporting discipline on the cached path (regression) ---
//
// A mid-run report on a cached path must never silently exclude pending
// write-backs: the non-const `LiveNvmSink::Report()` auto-flushes first,
// and the two unflushed views (`NvmCostPath::Report`, const sink
// `Report`) abort loudly instead of under-reporting wear.

NvmSpec TinyCachedSpec() {
  NvmSpec spec;
  spec.config = SmallConfig();
  spec.cache.sets = 1;
  spec.cache.ways = 2;
  spec.cache.line_words = 1;
  return spec;
}

TEST(NvmAdapterCached, MidRunReportAutoFlushesAndStaysCumulative) {
  LiveNvmSink sink(TinyCachedSpec());
  sink.OnWrite(1, 0);
  sink.OnWrite(1, 1);
  sink.OnWrite(2, 0);  // absorbed: cell 0 is already dirty

  const NvmReplayReport mid = sink.Report();  // non-const: auto-flushes
  EXPECT_TRUE(mid.cache_enabled);
  EXPECT_EQ(mid.cache.writebacks_pending, 0u);
  EXPECT_EQ(mid.cache.total_writes, 3u);
  EXPECT_EQ(mid.cache.absorbed_writes, 1u);
  EXPECT_EQ(mid.writes_replayed, 2u);  // device writes == write-backs

  // Idempotent: reporting again without new writes changes nothing.
  const NvmReplayReport again = sink.Report();
  EXPECT_EQ(again.writes_replayed, mid.writes_replayed);
  EXPECT_EQ(again.cache.writebacks, mid.cache.writebacks);

  // The run continues after a mid-run report; the next report is
  // cumulative, not restarted.
  sink.OnWrite(3, 0);
  const NvmReplayReport fin = sink.Report();
  EXPECT_EQ(fin.cache.total_writes, 4u);
  EXPECT_EQ(fin.writes_replayed, 3u);
  EXPECT_EQ(fin.max_cell_wear, 2u);  // cell 0 written back twice
}

TEST(NvmAdapterCachedDeathTest, UnflushedCostPathReportAborts) {
  NvmConfig config = SmallConfig();
  NvmDevice device(config);
  auto policy = MakeDirectMapping(config.num_cells);
  CacheSpec cache_spec;
  cache_spec.sets = 1;
  cache_spec.ways = 1;
  cache_spec.line_words = 1;
  CacheTier cache(cache_spec);
  NvmCostPath path(policy.get(), &device, &cache);
  path.Write(0);
  ASSERT_FALSE(path.flushed());
  EXPECT_DEATH(path.Report(), "pending");
  path.Flush();
  EXPECT_EQ(path.Report().writes_replayed, 1u);  // fine once flushed
}

TEST(NvmAdapterCachedDeathTest, UnflushedConstSinkReportAborts) {
  LiveNvmSink sink(TinyCachedSpec());
  sink.OnWrite(1, 0);
  const LiveNvmSink& view = sink;
  EXPECT_DEATH(view.Report(), "pending");
  sink.Flush();
  EXPECT_EQ(view.Report().writes_replayed, 1u);
}

}  // namespace
}  // namespace fewstate
