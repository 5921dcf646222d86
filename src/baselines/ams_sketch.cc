#include "baselines/ams_sketch.h"

#include "common/math_util.h"

namespace fewstate {

AmsSketch::AmsSketch(size_t rows, size_t cols, uint64_t seed)
    : rows_(rows == 0 ? 1 : rows), cols_(cols == 0 ? 1 : cols), seed_(seed) {
  sign_hashes_.reserve(rows_ * cols_);
  for (size_t i = 0; i < rows_ * cols_; ++i) {
    sign_hashes_.emplace_back(/*independence=*/4, Mix64(seed + 977 * i + 5));
  }
  accumulators_ = std::make_unique<TrackedArray<int64_t>>(&accountant_,
                                                          rows_ * cols_, 0);
}

void AmsSketch::Update(Item item) {
  accountant_.BeginUpdate();
  for (size_t i = 0; i < rows_ * cols_; ++i) {
    const int sign = sign_hashes_[i].HashSign(item);
    accumulators_->Set(i, accumulators_->Get(i) + sign);
  }
}

Status AmsSketch::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = SourceAs(this, other, "AmsSketch::MergeFrom", &status);
  if (src == nullptr) return status;
  accountant_.BeginUpdate();
  AddTrackedArray(accumulators_.get(), *src->accumulators_);
  return Status::OK();
}

Status AmsSketch::RestoreFrom(const Sketch& source, const DirtyTracker* dirty) {
  Status status;
  const auto* src = SourceAs(this, source, "AmsSketch::RestoreFrom", &status);
  if (src == nullptr) return status;
  accountant_.BeginUpdate();
  CopyTrackedArray(accumulators_.get(), *src->accumulators_, dirty);
  return Status::OK();
}

double AmsSketch::EstimateFrequency(Item item) const {
  std::vector<double> row_means(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      const size_t i = r * cols_ + c;
      const int sign = sign_hashes_[i].HashSign(item);
      sum += sign * static_cast<double>(accumulators_->Peek(i));
    }
    row_means[r] = sum / static_cast<double>(cols_);
  }
  return Median(std::move(row_means));
}

double AmsSketch::EstimateF2() const {
  std::vector<double> row_means(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      const double z = static_cast<double>(accumulators_->Peek(r * cols_ + c));
      sum += z * z;
    }
    row_means[r] = sum / static_cast<double>(cols_);
  }
  return Median(std::move(row_means));
}

}  // namespace fewstate
