#include "baselines/stable_sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/math_util.h"

namespace fewstate {

StableSketch::StableSketch(double p, size_t rows, uint64_t seed,
                           CounterMode mode, double morris_a,
                           StateAccountant* shared_accountant,
                           bool manage_epochs)
    : p_(p),
      rows_(rows == 0 ? 1 : rows),
      seed_(seed),
      mode_(mode),
      morris_a_(morris_a),
      manage_epochs_(manage_epochs),
      rng_(Mix64(seed ^ 0x57ab1e5ce7c4ULL)),
      theta_hash_(Mix64(seed * 3 + 1)),
      r_hash_(Mix64(seed * 5 + 2)),
      memo_slots_(EntryMemoSlots(rows_)) {
  if (shared_accountant != nullptr) {
    accountant_ = shared_accountant;
  } else {
    owned_accountant_ = std::make_unique<StateAccountant>();
    accountant_ = owned_accountant_.get();
  }
  if (mode_ == CounterMode::kExact) {
    exact_rows_ =
        std::make_unique<TrackedArray<double>>(accountant_, rows_, 0.0);
  } else {
    pos_counters_.reserve(rows_);
    neg_counters_.reserve(rows_);
    for (size_t r = 0; r < rows_; ++r) {
      pos_counters_.emplace_back(accountant_, &rng_, morris_a);
      neg_counters_.emplace_back(accountant_, &rng_, morris_a);
    }
  }
}

double StableSketch::Entry(size_t row, Item item) const {
  // Derive two (approximately) independent uniforms for the CMS formula
  // from the (row, item) pair. A seeded hash replaces the paper's
  // limited-independence derandomisation (see DESIGN.md substitutions).
  const uint64_t key = Mix64(item * 0x100000001b3ULL + row + 1);
  double u_theta = theta_hash_.HashUnit(key);
  double u_r = r_hash_.HashUnit(key ^ 0xabcdef12345678ULL);
  // Keep both uniforms strictly inside (0, 1) for the logs/poles.
  if (u_theta <= 0.0) u_theta = 0x1.0p-53;
  if (u_theta >= 1.0) u_theta = 1.0 - 0x1.0p-53;
  if (u_r <= 0.0) u_r = 0x1.0p-53;
  const double theta = (u_theta - 0.5) * M_PI;
  return PStableFromUniform(p_, theta, u_r);
}

size_t StableSketch::EntryMemoSlots(size_t rows) {
  constexpr size_t kMinSlots = 16;
  const size_t slot_bytes =
      sizeof(uint64_t) + sizeof(uint8_t) + rows * sizeof(double);
  const size_t fit = kEntryMemoBytes / slot_bytes;
  if (fit < kMinSlots) return 0;
  size_t slots = kMinSlots;
  while (slots * 2 <= fit) slots *= 2;
  return slots;
}

size_t StableSketch::EntryMemoSlot(Item item, size_t slots) {
  // slots is a power of two >= 16, so ctz is its log2 and the shift is
  // below 64.
  const int bits = __builtin_ctzll(slots);
  return static_cast<size_t>((item * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

const double* StableSketch::MemoizedEntries(Item item) {
  if (memo_slots_ == 0) return nullptr;
  if (memo_keys_.empty()) {
    memo_keys_.assign(memo_slots_, 0);
    memo_valid_.assign(memo_slots_, 0);
    memo_entries_.assign(memo_slots_ * rows_, 0.0);
  }
  const size_t slot = EntryMemoSlot(item, memo_slots_);
  double* entries = memo_entries_.data() + slot * rows_;
  if (memo_valid_[slot] == 0 || memo_keys_[slot] != item) {
    for (size_t r = 0; r < rows_; ++r) entries[r] = Entry(r, item);
    memo_keys_[slot] = item;
    memo_valid_[slot] = 1;
  }
  return entries;
}

void StableSketch::Update(Item item) {
  if (manage_epochs_) accountant_->BeginUpdate();
  const double* entries = MemoizedEntries(item);
  for (size_t r = 0; r < rows_; ++r) {
    const double e = entries != nullptr ? entries[r] : Entry(r, item);
    if (mode_ == CounterMode::kExact) {
      exact_rows_->Set(r, exact_rows_->Get(r) + e);
    } else if (e >= 0.0) {
      pos_counters_[r].Add(e);
    } else {
      neg_counters_[r].Add(-e);
    }
  }
}

Status StableSketch::MergeFrom(const Sketch& other) {
  Status status;
  const auto* src = SourceAs(this, other, "StableSketch::MergeFrom", &status);
  if (src == nullptr) return status;
  if (manage_epochs_) accountant_->BeginUpdate();
  if (mode_ == CounterMode::kExact) {
    AddTrackedArray(exact_rows_.get(), *src->exact_rows_);
    return Status::OK();
  }
  for (size_t r = 0; r < rows_; ++r) {
    // Growth parameters were checked above, so the per-counter merges
    // cannot fail.
    pos_counters_[r].Merge(src->pos_counters_[r]);
    neg_counters_[r].Merge(src->neg_counters_[r]);
  }
  return Status::OK();
}

Status StableSketch::RestoreFrom(const Sketch& source,
                                 const DirtyTracker* dirty) {
  Status status;
  const auto* src =
      SourceAs(this, source, "StableSketch::RestoreFrom", &status);
  if (src == nullptr) return status;
  if (manage_epochs_) accountant_->BeginUpdate();
  if (mode_ == CounterMode::kExact) {
    CopyTrackedArray(exact_rows_.get(), *src->exact_rows_, dirty);
  } else {
    // Growth parameters were checked above, so the per-counter restores
    // cannot fail; a counter outside the dirty set is already equal.
    for (size_t r = 0; r < rows_; ++r) {
      if (dirty == nullptr || dirty->Contains(src->pos_counters_[r].cell())) {
        pos_counters_[r].RestoreFrom(src->pos_counters_[r]);
      }
      if (dirty == nullptr || dirty->Contains(src->neg_counters_[r].cell())) {
        neg_counters_[r].RestoreFrom(src->neg_counters_[r]);
      }
    }
  }
  // The RNG cursor is state too (it decides the future coin flips), but it
  // is not a tracked word — the streaming model never charges for it, on
  // update or on restore.
  rng_ = src->rng_;
  return Status::OK();
}

double StableSketch::RowValue(size_t row) const {
  if (mode_ == CounterMode::kExact) return exact_rows_->Peek(row);
  return pos_counters_[row].Estimate() - neg_counters_[row].Estimate();
}

double StableSketch::MedianAbsRowValue() const {
  std::vector<double> magnitudes(rows_);
  for (size_t r = 0; r < rows_; ++r) magnitudes[r] = std::fabs(RowValue(r));
  return Median(std::move(magnitudes));
}

double StableSketch::EstimateLp() const {
  return MedianAbsRowValue() / MedianAbsPStable(p_);
}

double StableSketch::EstimateFp() const { return PowP(EstimateLp(), p_); }

double StableSketch::MedianAbsPStable(double p) {
  static std::mutex mu;
  static std::map<double, double> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(p);
  if (it != cache.end()) return it->second;
  // Seeded Monte Carlo: the scale factor only needs ~3 decimal digits.
  Rng rng(0xC0FFEE123ULL ^ static_cast<uint64_t>(p * 1e9));
  constexpr int kSamples = 200001;
  std::vector<double> samples(kSamples);
  for (auto& s : samples) s = std::fabs(SamplePStable(p, &rng));
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double median = samples[mid];
  cache.emplace(p, median);
  return median;
}

}  // namespace fewstate
