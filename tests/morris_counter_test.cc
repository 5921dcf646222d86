#include "counters/morris_counter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {
namespace {

TEST(MorrisCounter, ExactModeCountsExactly) {
  StateAccountant a;
  Rng rng(1);
  MorrisCounter counter(&a, &rng, 0.0);
  for (int i = 0; i < 1000; ++i) counter.Increment();
  EXPECT_DOUBLE_EQ(counter.Estimate(), 1000.0);
  EXPECT_EQ(counter.level_changes(), 1000u);
}

TEST(MorrisCounter, StartsAtZero) {
  StateAccountant a;
  Rng rng(2);
  MorrisCounter counter(&a, &rng, 0.1);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
  EXPECT_EQ(counter.level(), 0u);
}

TEST(MorrisCounter, FirstIncrementIsDeterministic) {
  // At level 0 the advance probability is (1+a)^0 = 1.
  StateAccountant a;
  Rng rng(3);
  MorrisCounter counter(&a, &rng, 0.5);
  counter.Increment();
  EXPECT_EQ(counter.level(), 1u);
  EXPECT_NEAR(counter.Estimate(), 1.0, 1e-9);
}

TEST(MorrisCounter, UnbiasedAcrossInstances) {
  const double kA = 0.05;
  const uint64_t kN = 5000;
  const int kCounters = 64;
  StateAccountant a;
  Rng rng(4);
  double sum = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    for (uint64_t i = 0; i < kN; ++i) counter.Increment();
    sum += counter.Estimate();
  }
  const double mean = sum / kCounters;
  // Relative sd of the mean ~ sqrt(a/2)/sqrt(kCounters) ~ 2%.
  EXPECT_NEAR(mean / kN, 1.0, 0.08);
}

TEST(MorrisCounter, ErrorShrinksWithGrowthParameter) {
  const uint64_t kN = 20000;
  const int kCounters = 48;
  StateAccountant a;
  Rng rng(5);
  double err_small_a = 0, err_big_a = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter fine(&a, &rng, 0.002);
    MorrisCounter coarse(&a, &rng, 0.5);
    for (uint64_t i = 0; i < kN; ++i) {
      fine.Increment();
      coarse.Increment();
    }
    err_small_a += std::fabs(fine.Estimate() - kN) / kN;
    err_big_a += std::fabs(coarse.Estimate() - kN) / kN;
  }
  EXPECT_LT(err_small_a / kCounters, 0.05);
  EXPECT_LT(err_small_a, err_big_a);
}

TEST(MorrisCounter, StateChangesAreLogarithmic) {
  const double kA = 0.05;
  StateAccountant a;
  Rng rng(6);
  MorrisCounter counter(&a, &rng, kA);
  const uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) counter.Increment();
  // Expected level ~ log(1 + a n)/log(1 + a) ~ 175; allow generous slack.
  EXPECT_LT(counter.level_changes(), kN / 50);
  EXPECT_GT(counter.level_changes(), 20u);
  // state changes recorded in the accountant match the level changes: no
  // update epochs were opened, so we check word_writes instead.
  EXPECT_EQ(a.word_writes(), counter.level_changes());
}

TEST(MorrisCounter, WeightedAddMatchesUnitIncrements) {
  // Adding 1.0 repeatedly is distributionally the classic Morris rule.
  const double kA = 0.1;
  const int kCounters = 64;
  const uint64_t kN = 2000;
  StateAccountant a;
  Rng rng(7);
  double sum = 0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    for (uint64_t i = 0; i < kN; ++i) counter.Add(1.0);
    sum += counter.Estimate();
  }
  EXPECT_NEAR(sum / kCounters / kN, 1.0, 0.12);
}

TEST(MorrisCounter, WeightedAddUnbiasedForFractionalWeights) {
  const double kA = 0.05;
  const int kCounters = 64;
  StateAccountant a;
  Rng rng(8);
  double sum = 0;
  const double kTotal = 1000.0;
  for (int c = 0; c < kCounters; ++c) {
    MorrisCounter counter(&a, &rng, kA);
    double pushed = 0;
    while (pushed < kTotal) {
      counter.Add(0.37);
      pushed += 0.37;
    }
    sum += counter.Estimate() / pushed;
  }
  EXPECT_NEAR(sum / kCounters, 1.0, 0.1);
}

TEST(MorrisCounter, LargeSingleAddJumpsInOneWrite) {
  StateAccountant a;
  Rng rng(9);
  MorrisCounter counter(&a, &rng, 0.01);
  counter.Add(1e6);
  EXPECT_NEAR(counter.Estimate(), 1e6, 0.02 * 1e6);
  EXPECT_LE(counter.level_changes(), 1u);
}

TEST(MorrisCounter, AddZeroOrNegativeIsNoOp) {
  StateAccountant a;
  Rng rng(10);
  MorrisCounter counter(&a, &rng, 0.1);
  counter.Add(0.0);
  counter.Add(-5.0);
  EXPECT_DOUBLE_EQ(counter.Estimate(), 0.0);
  EXPECT_EQ(counter.level_changes(), 0u);
}

TEST(MorrisCounter, ExactModeWeightedAddStochasticallyRounds) {
  // a = 0: value(X) = X, so Add(0.5) advances with probability 0.5.
  StateAccountant a;
  Rng rng(11);
  MorrisCounter counter(&a, &rng, 0.0);
  const int kAdds = 10000;
  for (int i = 0; i < kAdds; ++i) counter.Add(0.5);
  EXPECT_NEAR(counter.Estimate() / (0.5 * kAdds), 1.0, 0.06);
}

TEST(MorrisCounter, GrowthForAccuracyScalesAsEpsSquaredDelta) {
  EXPECT_DOUBLE_EQ(MorrisCounter::GrowthForAccuracy(0.1, 0.1),
                   2.0 * 0.01 * 0.1);
  EXPECT_LT(MorrisCounter::GrowthForAccuracy(0.01, 0.1),
            MorrisCounter::GrowthForAccuracy(0.1, 0.1));
}

TEST(MorrisCounter, MonotoneEstimates) {
  // Estimates never decrease as increments accumulate.
  StateAccountant a;
  Rng rng(12);
  MorrisCounter counter(&a, &rng, 0.2);
  double last = 0.0;
  for (int i = 0; i < 5000; ++i) {
    counter.Increment();
    const double now = counter.Estimate();
    ASSERT_GE(now, last);
    last = now;
  }
}

TEST(MorrisCounter, AddNaNIsNoOp) {
  StateAccountant a;
  Rng rng(13);
  MorrisCounter counter(&a, &rng, 0.1);
  counter.Add(1.0);
  const uint64_t reads = a.word_reads();
  Rng expected = rng;
  counter.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(counter.level(), 1u);
  EXPECT_EQ(counter.level_changes(), 1u);
  EXPECT_EQ(a.word_reads(), reads);
  EXPECT_EQ(rng.Next(), expected.Next());  // no coin was flipped
}

TEST(MorrisCounter, AddInfinitySaturatesLevel) {
  for (const double growth : {0.0, 0.1}) {
    StateAccountant a;
    Rng rng(14);
    MorrisCounter counter(&a, &rng, growth);
    counter.Add(std::numeric_limits<double>::infinity());
    EXPECT_GE(counter.level(), MorrisCounter::kMaxLevel - 1) << growth;
    EXPECT_EQ(counter.level_changes(), 1u) << growth;
    // A saturated counter stays at the top rather than wrapping around.
    for (int i = 0; i < 4; ++i) {
      counter.Add(std::numeric_limits<double>::infinity());
      counter.Add(1.0);
      counter.Increment();
      EXPECT_GE(counter.level(), MorrisCounter::kMaxLevel - 1) << growth;
    }
  }
}

TEST(MorrisCounter, AddBeyondLevelRangeSaturates) {
  // a == 0 maps a weight of 1e12 to level 1e12 > 2^32; a tiny growth
  // parameter does the same for a finite 1e300.
  struct Case {
    double growth;
    double weight;
  };
  for (const Case c : {Case{0.0, 1e12}, Case{1e-12, 1e300}}) {
    StateAccountant a;
    Rng rng(15);
    MorrisCounter counter(&a, &rng, c.growth);
    counter.Add(c.weight);
    EXPECT_GE(counter.level(), MorrisCounter::kMaxLevel - 1) << c.growth;
    EXPECT_EQ(counter.level_changes(), 1u) << c.growth;
    for (int i = 0; i < 4; ++i) counter.Increment();
    EXPECT_GE(counter.level(), MorrisCounter::kMaxLevel - 1) << c.growth;
  }
}

TEST(MorrisCounter, LevelChangesNeverExceedLevel) {
  StateAccountant a;
  Rng rng(16);
  Rng op_rng(17);
  std::vector<MorrisCounter> counters;
  for (const double growth : {0.0, 1e-3, 0.2, 2.0}) {
    counters.emplace_back(&a, &rng, growth);
  }
  for (int op = 0; op < 20000; ++op) {
    MorrisCounter& c = counters[op_rng.UniformInt(counters.size())];
    switch (op_rng.UniformInt(3)) {
      case 0:
        c.Increment();
        break;
      case 1:
        c.Add(std::pow(10.0, op_rng.UniformDouble() * 6.0 - 3.0));
        break;
      default:
        ASSERT_TRUE(c.Merge(c).ok());
        break;
    }
    ASSERT_LE(c.level_changes(), c.level()) << "op " << op;
  }
}

// The counter as it was before boundary caching, copied verbatim: the
// oracle for the differential test below.
class ReferenceMorrisCounter {
 public:
  ReferenceMorrisCounter(StateAccountant* accountant, Rng* rng, double a)
      : accountant_(accountant),
        rng_(rng),
        a_(a < 0 ? 0.0 : a),
        log1p_a_(std::log1p(a_)),
        level_(accountant, 0) {}

  double ValueAt(double x) const {
    if (a_ == 0.0) return x;
    return std::expm1(x * log1p_a_) / a_;
  }

  double LevelFor(double v) const {
    if (a_ == 0.0) return v;
    return std::log1p(a_ * v) / log1p_a_;
  }

  void Increment() {
    const uint32_t x = level_.Peek();
    accountant_->RecordRead();
    if (a_ == 0.0) {
      level_.Set(x + 1);
      ++level_changes_;
      return;
    }
    // Advance with probability (1+a)^{-x}.
    const double advance_prob =
        std::exp(-static_cast<double>(x) * log1p_a_);
    if (rng_->Bernoulli(advance_prob)) {
      level_.Set(x + 1);
      ++level_changes_;
    }
  }

  void Add(double w) {
    if (w <= 0.0) return;
    const uint32_t x = level_.Peek();
    accountant_->RecordRead();
    const double target = ValueAt(x) + w;
    double xf = LevelFor(target);
    uint32_t base = static_cast<uint32_t>(xf);
    if (base < x) base = x;  // guard against floating-point rounding
    const double lo = ValueAt(base);
    const double gap = ValueAt(base + 1) - lo;
    double q = (target - lo) / gap;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const uint32_t final_level = base + (rng_->Bernoulli(q) ? 1 : 0);
    if (final_level != x) {
      level_.Set(final_level);
      ++level_changes_;
    } else {
      accountant_->RecordSuppressedWrite();
    }
  }

  void Merge(const ReferenceMorrisCounter& other) { Add(other.Estimate()); }

  void RestoreFrom(const ReferenceMorrisCounter& other) {
    level_.Set(other.level_.Peek());  // suppressed when already equal
    level_changes_ = other.level_changes_;
  }

  double Estimate() const { return ValueAt(level_.Peek()); }
  uint32_t level() const { return level_.Peek(); }
  uint64_t level_changes() const { return level_changes_; }

 private:
  StateAccountant* accountant_;
  Rng* rng_;
  double a_;
  double log1p_a_;
  TrackedCell<uint32_t> level_;
  uint64_t level_changes_ = 0;
};

// Reference and cached counters driven in lockstep: one bank of each,
// with their own accountant and an Rng of equal seed shared by the bank
// (as in a sketch's rows). After every operation the level, the change
// count, the accountant's read/write/suppressed totals and the next Rng
// output must agree.
class MorrisLockstep {
 public:
  MorrisLockstep(double a, size_t counters, uint64_t seed)
      : ref_rng_(seed), new_rng_(seed) {
    for (size_t i = 0; i < counters; ++i) {
      ref_.emplace_back(&ref_accountant_, &ref_rng_, a);
      new_.emplace_back(&new_accountant_, &new_rng_, a);
    }
    ref_.emplace_back(&ref_accountant_, &ref_rng_, a);  // stays at level 0
    new_.emplace_back(&new_accountant_, &new_rng_, a);
  }

  size_t size() const { return ref_.size() - 1; }
  const ReferenceMorrisCounter& ref(size_t i) const { return ref_[i]; }

  void Increment(size_t i) {
    ref_[i].Increment();
    new_[i].Increment();
  }
  void Add(size_t i, double w) {
    ref_[i].Add(w);
    new_[i].Add(w);
  }
  void Merge(size_t dst, size_t src) {
    ref_[dst].Merge(ref_[src]);
    ASSERT_TRUE(new_[dst].Merge(new_[src]).ok());
  }
  void RestoreFrom(size_t dst, size_t src) {
    ref_[dst].RestoreFrom(ref_[src]);
    ASSERT_TRUE(new_[dst].RestoreFrom(new_[src]).ok());
  }
  // Restores counter `i` from the untouched level-0 counter.
  void Reset(size_t i) { RestoreFrom(i, size()); }

  // Empty when both banks agree, else a description of the difference.
  std::string Mismatch(size_t i) const {
    std::string out;
    const auto check = [&out](const char* what, uint64_t r, uint64_t n) {
      if (r != n) {
        out += std::string(what) + " ref=" + std::to_string(r) +
               " new=" + std::to_string(n) + "; ";
      }
    };
    check("level", ref_[i].level(), new_[i].level());
    check("level_changes", ref_[i].level_changes(), new_[i].level_changes());
    check("word_reads", ref_accountant_.word_reads(),
          new_accountant_.word_reads());
    check("word_writes", ref_accountant_.word_writes(),
          new_accountant_.word_writes());
    check("suppressed_writes", ref_accountant_.suppressed_writes(),
          new_accountant_.suppressed_writes());
    Rng ref_next = ref_rng_;
    Rng new_next = new_rng_;
    check("next_rng", ref_next.Next(), new_next.Next());
    if (new_[i].level_changes() > new_[i].level()) {
      out += "level_changes exceeds level; ";
    }
    return out;
  }

 private:
  StateAccountant ref_accountant_;
  StateAccountant new_accountant_;
  Rng ref_rng_;
  Rng new_rng_;
  std::vector<ReferenceMorrisCounter> ref_;
  std::vector<MorrisCounter> new_;
};

TEST(MorrisCounter, BoundaryCacheMatchesUncachedReference) {
  constexpr int kOpsPerGrowth = 1 << 18;  // 4 x 2^18 > 10^6 ops in total
  constexpr size_t kCounters = 6;
  uint64_t seed = 100;
  for (const double growth : {0.0, 1e-3, 0.2, 2.0}) {
    MorrisLockstep bank(growth, kCounters, ++seed);
    Rng op_rng(seed * 7919);
    for (int op = 0; op < kOpsPerGrowth; ++op) {
      const size_t i = op_rng.UniformInt(kCounters);
      const uint64_t kind = op_rng.UniformInt(16);
      if (kind < 3) {
        bank.Increment(i);
      } else if (kind < 9) {
        // Log-uniform weights over [1e-9, 1e6]: from far below a level
        // gap to multi-level jumps.
        bank.Add(i, std::pow(10.0, op_rng.UniformDouble() * 15.0 - 9.0));
      } else if (kind < 13) {
        // A target within four ulps of the next level boundary, where
        // LevelFor's rounding decides between staying and jumping.
        const ReferenceMorrisCounter& ref = bank.ref(i);
        double boundary = ref.ValueAt(ref.level() + 1.0);
        const int ulps = static_cast<int>(op_rng.UniformInt(9)) - 4;
        for (int u = 0; u < std::abs(ulps); ++u) {
          boundary = std::nextafter(
              boundary, ulps < 0 ? 0.0 : std::numeric_limits<double>::max());
        }
        bank.Add(i, boundary - ref.ValueAt(ref.level()));
      } else if (kind < 15) {
        bank.Merge(i, op_rng.UniformInt(kCounters));
      } else {
        bank.RestoreFrom(i, op_rng.UniformInt(kCounters));
      }
      // Keep levels far from 2^32 and estimates far from overflow
      // (self-merges double them): the reference's uint32_t cast is
      // undefined for the levels past either.
      if (bank.ref(i).level() > (1u << 30) || bank.ref(i).Estimate() > 1e250) {
        bank.Reset(i);
      }
      const std::string mismatch = bank.Mismatch(i);
      ASSERT_TRUE(mismatch.empty())
          << "a=" << growth << " op " << op << " kind " << kind << ": "
          << mismatch;
    }
  }
}

}  // namespace
}  // namespace fewstate
