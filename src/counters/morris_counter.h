#ifndef FEWSTATE_COUNTERS_MORRIS_COUNTER_H_
#define FEWSTATE_COUNTERS_MORRIS_COUNTER_H_

#include <cstdint>

#include "common/random.h"
#include "common/status.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief Approximate counter with few state changes (paper Theorem 1.5,
/// [Mor78, NY22]).
///
/// The counter keeps a single tracked word: the level X. The estimated
/// count is value(X) = ((1+a)^X - 1) / a, which is unbiased for the true
/// count under the standard Morris increment rule (advance X with
/// probability (1+a)^{-X}). Smaller `a` means better accuracy but more
/// level advances: a counter that reaches count n performs
/// O(log(1 + a*n)/a) state changes — poly(log n, 1/eps, log 1/delta) with
/// a = Theta(eps^2 * delta), versus n for an exact counter.
///
/// `a == 0` degenerates to an exact counter (every increment advances),
/// which is how the library's "exact counter" baselines are expressed.
///
/// Real-valued increments (`Add`) are supported for the p-stable sketch of
/// Theorem 3.2: the target value value(X) + w is converted to a fractional
/// level and the counter jumps there with probabilistic rounding, keeping
/// the estimate unbiased while performing at most one tracked write (and
/// usually zero when w is far below the current level gap).
///
/// Cost: `Add` caches the level boundaries value(X) and value(X+1), so a
/// call that stays within the current level — the common case, since few
/// calls change state — pays one `log1p` (the fractional-level inverse)
/// plus one Bernoulli draw instead of one `log1p` and three `expm1`. The
/// cache is untracked scratch, not algorithm state: it is dropped on every
/// level write and refilled by the next `Add`, so `Increment`-only
/// counters never compute it. Results are bitwise identical to recomputing
/// the boundaries on every call.
class MorrisCounter {
 public:
  /// \brief Constructs a counter with growth parameter `a >= 0` drawing
  /// randomness from `rng` (not owned; one Rng is typically shared by all
  /// counters of an algorithm).
  MorrisCounter(StateAccountant* accountant, Rng* rng, double a);

  MorrisCounter(MorrisCounter&&) noexcept = default;
  MorrisCounter& operator=(MorrisCounter&&) noexcept = default;

  /// \brief Growth parameter achieving (1+eps)-accuracy with probability
  /// 1 - delta via Chebyshev on the standard Morris variance bound
  /// Var[estimate] <= a * n^2 / 2:  a = 2 * eps^2 * delta.
  static double GrowthForAccuracy(double eps, double delta);

  /// \brief Counts one occurrence.
  void Increment();

  /// \brief Adds a non-negative real weight. Weights that are not
  /// positive (zero, negative, NaN) are ignored; an infinite weight, or
  /// one whose target level lies past `kMaxLevel`, saturates the level.
  void Add(double w);

  /// \brief Folds another counter (same growth parameter `a`) into this
  /// one: the level jumps to represent the sum of both estimates, via the
  /// same probabilistic rounding as `Add`, so the merged estimate stays
  /// unbiased and the jump costs at most one tracked write. The source is
  /// not modified. This is what makes sharded Morris-backed sketches
  /// consolidable.
  Status Merge(const MorrisCounter& other);

  /// \brief Overwrites this counter's level with `other`'s, exactly — no
  /// probabilistic rounding and no randomness consumed (unlike `Merge`).
  /// Writing the level already held is suppressed, so restoring onto the
  /// previous checkpoint of an unadvanced counter is free. The
  /// checkpoint/recovery primitive behind `MergeableSketch::RestoreFrom`
  /// in sketches built on Morris counters.
  Status RestoreFrom(const MorrisCounter& other);

  /// \brief Unbiased estimate of the accumulated count/weight.
  double Estimate() const;

  /// \brief Current level (the single word of tracked state).
  uint32_t level() const { return level_.Peek(); }

  /// \brief The level saturates here: `Increment` and `Add` never move
  /// it past the 32-bit range (or wrap it around).
  static constexpr uint32_t kMaxLevel = UINT32_MAX;

  /// \brief Logical cell address of the level word (dirty-set lookups in
  /// delta restores).
  uint64_t cell() const { return level_.cell(); }

  /// \brief Number of level advances so far (== tracked state changes
  /// attributable to this counter). Never exceeds `level()`: every
  /// advance raises the level by at least one.
  uint64_t level_changes() const { return level_changes_; }

  /// \brief Growth parameter.
  double a() const { return a_; }

 private:
  /// Estimate implied by level x.
  double ValueAt(double x) const;
  /// Inverse of ValueAt: (possibly fractional) level whose value is v.
  double LevelFor(double v) const;

  /// Marks the boundary cache stale; called on every level write.
  void DropBoundaryCache() { lower_value_ = -1.0; }

  Rng* rng_;
  double a_;
  double log1p_a_;  // cached log(1+a); 0 when a == 0
  // Boundary cache: ValueAt(level) and ValueAt(level + 1), valid only
  // while lower_value_ >= 0 (ValueAt is never negative).
  double lower_value_ = -1.0;
  double upper_value_ = 0.0;
  // The accountant lives in the cell: Get() is the counted read, Set() of
  // the held value the suppressed write.
  [[no_unique_address]] TrackedCell<uint32_t> level_;
  // Packed into level_'s tail padding; 32 bits suffice because
  // level_changes_ <= level_.
  uint32_t level_changes_ = 0;
};

// SampleAndHold keeps one counter per hold node; a larger counter grows
// every node.
static_assert(sizeof(MorrisCounter) <= 64,
              "MorrisCounter must stay within one cache line");

}  // namespace fewstate

#endif  // FEWSTATE_COUNTERS_MORRIS_COUNTER_H_
