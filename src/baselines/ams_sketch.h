#ifndef FEWSTATE_BASELINES_AMS_SKETCH_H_
#define FEWSTATE_BASELINES_AMS_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/mergeable.h"
#include "common/hashing.h"
#include "common/status.h"
#include "common/stream_types.h"
#include "state/state_accountant.h"
#include "state/tracked.h"

namespace fewstate {

/// \brief AMS "tug-of-war" F2 estimator [AMS99].
///
/// Maintains `rows x cols` signed accumulators Z_rc = sum_i sign_rc(i) f_i
/// with 4-wise independent signs; F2 is estimated as the median over rows
/// of the mean over cols of Z^2. Every update writes all rows*cols
/// accumulators, so the state-change count is Theta(m) — the classic moment
/// estimation baseline the paper's Theorem 1.3 contrasts with.
class AmsSketch : public MergeableSketch {
 public:
  /// \brief `cols` averages control variance; `rows` medians control
  /// failure probability.
  AmsSketch(size_t rows, size_t cols, uint64_t seed);

  void Update(Item item) override;

  /// \brief Adds another AMS sketch's accumulators element-wise. The
  /// tug-of-war accumulators are linear in the frequency vector, so
  /// merging identically-configured shard replicas (same rows, cols, seed)
  /// is exactly equivalent to one sketch over the concatenated streams.
  Status MergeFrom(const Sketch& other) override;

  /// \brief Overwrites the accumulators with another AMS sketch's (same
  /// rows, cols, seed), pricing only words that differ — the
  /// checkpoint/restore contract; a `dirty` restore scans only the dirty
  /// cells.
  Status RestoreFrom(const Sketch& source,
                     const DirtyTracker* dirty = nullptr) override;

  /// \brief Median-of-means estimate of F2.
  double EstimateF2() const;

  /// \brief Tug-of-war point query: median over rows of the mean over
  /// cols of sign_rc(item) * Z_rc. Unbiased, with variance O(F2 / cols) —
  /// much noisier than the heavy-hitter structures, but a legitimate
  /// frequency estimator (and what makes AmsSketch a full `Sketch`).
  double EstimateFrequency(Item item) const override;

  /// \brief True iff `other` has this sketch's rows, cols and seed — the
  /// merge/restore precondition.
  bool SameConfig(const AmsSketch& other) const {
    return other.rows_ == rows_ && other.cols_ == cols_ && other.seed_ == seed_;
  }

  const StateAccountant& accountant() const override { return accountant_; }
  StateAccountant* mutable_accountant() override { return &accountant_; }

 private:
  size_t rows_;
  size_t cols_;
  uint64_t seed_;
  StateAccountant accountant_;
  std::vector<PolynomialHash> sign_hashes_;  // one per accumulator
  std::unique_ptr<TrackedArray<int64_t>> accumulators_;
};

}  // namespace fewstate

#endif  // FEWSTATE_BASELINES_AMS_SKETCH_H_
