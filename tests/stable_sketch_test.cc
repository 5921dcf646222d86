#include "baselines/stable_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "stream/generators.h"
#include "stream/stream_stats.h"

namespace fewstate {
namespace {

TEST(StableSketch, CauchyScaleFactorIsOne) {
  // median|D_1| = median of |Cauchy| = 1.
  EXPECT_NEAR(StableSketch::MedianAbsPStable(1.0), 1.0, 0.02);
}

TEST(StableSketch, ScaleFactorIsCachedAndDeterministic) {
  EXPECT_DOUBLE_EQ(StableSketch::MedianAbsPStable(0.5),
                   StableSketch::MedianAbsPStable(0.5));
}

TEST(StableSketch, L1OfSingleItemIsItsCount) {
  StableSketch sk(1.0, 128, 5, StableSketch::CounterMode::kExact);
  for (int i = 0; i < 1000; ++i) sk.Update(77);
  // ||f||_1 = 1000 exactly; the sketch sees 1000 * D(77).
  EXPECT_NEAR(sk.EstimateLp() / 1000.0, 1.0, 0.25);
}

TEST(StableSketch, MedianOfTrialsTracksFpAcrossP) {
  const uint64_t n = 2000, m = 30000;
  const Stream stream = ZipfStream(n, 1.2, m, 6);
  const StreamStats oracle(stream);
  for (double p : {0.3, 0.5, 0.8, 1.0}) {
    std::vector<double> ratios;
    for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
      StableSketch sk(p, 128, seed, StableSketch::CounterMode::kExact);
      sk.Consume(stream);
      ratios.push_back(sk.EstimateFp() / oracle.Fp(p));
    }
    std::nth_element(ratios.begin(), ratios.begin() + 2, ratios.end());
    EXPECT_NEAR(ratios[2], 1.0, 0.3) << "p=" << p;
  }
}

TEST(StableSketch, MorrisModeMatchesExactModeEstimates) {
  const Stream stream = ZipfStream(2000, 1.3, 30000, 7);
  const double p = 0.5;
  StableSketch exact(p, 96, 9, StableSketch::CounterMode::kExact);
  StableSketch morris(p, 96, 9, StableSketch::CounterMode::kMorris, 1e-4);
  exact.Consume(stream);
  morris.Consume(stream);
  // Same seed => same p-stable entries; only the counter noise differs.
  EXPECT_NEAR(morris.EstimateFp() / exact.EstimateFp(), 1.0, 0.1);
}

TEST(StableSketch, ExactModeWritesEveryUpdate) {
  const Stream stream = ZipfStream(500, 1.2, 4000, 10);
  StableSketch sk(0.5, 32, 11, StableSketch::CounterMode::kExact);
  sk.Consume(stream);
  EXPECT_EQ(sk.accountant().state_changes(), stream.size());
}

TEST(StableSketch, MorrisModeWritesFarLess) {
  const Stream stream = ZipfStream(500, 1.2, 60000, 12);
  StableSketch sk(0.5, 32, 13, StableSketch::CounterMode::kMorris, 1e-2);
  sk.Consume(stream);
  EXPECT_LT(sk.accountant().state_changes(), stream.size() / 2);
  EXPECT_GT(sk.accountant().state_changes(), 0u);
}

TEST(StableSketch, EntriesAreDeterministicPerSeed) {
  StableSketch a(0.5, 8, 42, StableSketch::CounterMode::kExact);
  StableSketch b(0.5, 8, 42, StableSketch::CounterMode::kExact);
  const Stream stream = ZipfStream(100, 1.0, 1000, 14);
  a.Consume(stream);
  b.Consume(stream);
  EXPECT_DOUBLE_EQ(a.EstimateLp(), b.EstimateLp());
}

TEST(StableSketch, EmptyStreamEstimatesZero) {
  StableSketch sk(0.5, 16, 15, StableSketch::CounterMode::kMorris);
  EXPECT_DOUBLE_EQ(sk.EstimateLp(), 0.0);
}

TEST(StableSketch, EntryMemoFitsItsBudget) {
  for (size_t rows : {size_t{1}, size_t{8}, size_t{32}, size_t{96},
                      size_t{510}, size_t{511}, size_t{4096}}) {
    const size_t slots = StableSketch::EntryMemoSlots(rows);
    if (slots == 0) {
      EXPECT_GE(rows, 511u);
      continue;
    }
    EXPECT_EQ(slots & (slots - 1), 0u) << rows;  // a power of two
    EXPECT_GE(slots, 16u) << rows;
    EXPECT_LE(slots * (sizeof(uint64_t) + 1 + rows * sizeof(double)),
              StableSketch::kEntryMemoBytes)
        << rows;
    for (Item item : {Item{0}, Item{1}, UINT64_MAX}) {
      EXPECT_LT(StableSketch::EntryMemoSlot(item, slots), slots);
    }
  }
  EXPECT_EQ(StableSketch::EntryMemoSlots(32), 128u);
}

TEST(StableSketch, RestoredReplicaWithColdMemoContinuesIdentically) {
  // The memo is scratch outside the restorable state: a replica restored
  // from a warm source starts with an empty memo, yet the two continue
  // in lockstep (same levels, same coin flips).
  const Stream stream = ZipfStream(3000, 1.1, 20000, 16);
  const size_t half = stream.size() / 2;
  StableSketch source(0.5, 32, 17, StableSketch::CounterMode::kMorris, 0.05);
  for (size_t i = 0; i < half; ++i) source.Update(stream[i]);
  StableSketch replica(0.5, 32, 17, StableSketch::CounterMode::kMorris, 0.05);
  ASSERT_TRUE(replica.RestoreFrom(source).ok());
  for (size_t i = half; i < stream.size(); ++i) {
    source.Update(stream[i]);
    replica.Update(stream[i]);
  }
  for (size_t r = 0; r < source.rows(); ++r) {
    EXPECT_EQ(source.RowValue(r), replica.RowValue(r)) << r;
  }
}

}  // namespace
}  // namespace fewstate
