#include "counters/morris_counter.h"

#include <cmath>

namespace fewstate {

MorrisCounter::MorrisCounter(StateAccountant* accountant, Rng* rng, double a)
    : rng_(rng),
      a_(a < 0 ? 0.0 : a),
      log1p_a_(std::log1p(a_)),
      level_(accountant, 0) {}

double MorrisCounter::GrowthForAccuracy(double eps, double delta) {
  double a = 2.0 * eps * eps * delta;
  return a;
}

double MorrisCounter::ValueAt(double x) const {
  if (a_ == 0.0) return x;
  return std::expm1(x * log1p_a_) / a_;
}

double MorrisCounter::LevelFor(double v) const {
  if (a_ == 0.0) return v;
  return std::log1p(a_ * v) / log1p_a_;
}

void MorrisCounter::Increment() {
  const uint32_t x = level_.Get();
  if (x == kMaxLevel) return;  // saturated
  if (a_ == 0.0) {
    level_.Set(x + 1);
    ++level_changes_;
    DropBoundaryCache();
    return;
  }
  // Advance with probability (1+a)^{-x}.
  const double advance_prob = std::exp(-static_cast<double>(x) * log1p_a_);
  if (rng_->Bernoulli(advance_prob)) {
    level_.Set(x + 1);
    ++level_changes_;
    DropBoundaryCache();
  }
}

void MorrisCounter::Add(double w) {
  if (!(w > 0.0)) return;  // also rejects NaN
  const uint32_t x = level_.Get();
  if (!(lower_value_ >= 0.0)) {
    lower_value_ = ValueAt(x);
    upper_value_ = ValueAt(x + 1.0);
  }
  const double target = lower_value_ + w;
  const double xf = LevelFor(target);
  // Saturate before the cast: converting a level at or past 2^32 (or an
  // infinite one) to uint32_t is undefined.
  uint32_t base =
      xf < kMaxLevel - 1.0 ? static_cast<uint32_t>(xf) : kMaxLevel - 1;
  if (base < x) base = x;  // guard against floating-point rounding
  double lo = lower_value_;
  double hi = upper_value_;
  if (base != x) {  // a multi-level jump
    lo = ValueAt(base);
    hi = ValueAt(base + 1.0);
  }
  const double gap = hi - lo;
  double q = (target - lo) / gap;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const bool up = rng_->Bernoulli(q) && base != kMaxLevel;
  const uint32_t final_level = base + (up ? 1 : 0);
  level_.Set(final_level);  // suppressed when the level is unchanged
  if (final_level != x) {
    ++level_changes_;
    DropBoundaryCache();
  }
}

Status MorrisCounter::Merge(const MorrisCounter& other) {
  if (a_ != other.a_) {
    return Status::InvalidArgument(
        "MorrisCounter::Merge: growth parameters differ");
  }
  Add(other.Estimate());
  return Status::OK();
}

Status MorrisCounter::RestoreFrom(const MorrisCounter& other) {
  if (a_ != other.a_) {
    return Status::InvalidArgument(
        "MorrisCounter::RestoreFrom: growth parameters differ");
  }
  level_.Set(other.level_.Peek());  // suppressed when already equal
  level_changes_ = other.level_changes_;
  DropBoundaryCache();
  return Status::OK();
}

double MorrisCounter::Estimate() const { return ValueAt(level_.Peek()); }

}  // namespace fewstate
