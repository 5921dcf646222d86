#include "nvm/wear_leveling.h"

namespace fewstate {

namespace {

// `x % n`, skipping the division when `x` is already in range (the common
// case: logical addresses are dense from 0 and devices are sized to fit).
inline uint64_t Wrap(uint64_t x, uint64_t n) { return x < n ? x : x % n; }

}  // namespace

DirectMapping::DirectMapping(uint64_t num_cells)
    : num_cells_(num_cells == 0 ? 1 : num_cells) {}

void DirectMapping::MapWrites(const uint64_t* logicals, size_t n,
                              uint64_t* physical) {
  for (size_t i = 0; i < n; ++i) physical[i] = Wrap(logicals[i], num_cells_);
}

RotatingMapping::RotatingMapping(uint64_t num_cells, uint64_t rotate_period)
    : num_cells_(num_cells == 0 ? 1 : num_cells),
      rotate_period_(rotate_period == 0 ? 1 : rotate_period),
      until_rotate_(rotate_period_) {}

void RotatingMapping::MapWrites(const uint64_t* logicals, size_t n,
                                uint64_t* physical) {
  for (size_t i = 0; i < n; ++i) {
    physical[i] = Wrap(logicals[i] + offset_, num_cells_);
    // The offset advances one slot after every `rotate_period_` writes.
    if (--until_rotate_ == 0) {
      until_rotate_ = rotate_period_;
      offset_ = offset_ + 1 == num_cells_ ? 0 : offset_ + 1;
    }
  }
}

HashedMapping::HashedMapping(uint64_t num_cells, uint64_t seed)
    : num_cells_(num_cells == 0 ? 1 : num_cells), hash_(seed) {}

void HashedMapping::MapWrites(const uint64_t* logicals, size_t n,
                              uint64_t* physical) {
  // Version each logical cell so successive writes scatter. Versions
  // advance in program order (a cell written twice in one batch gets two
  // consecutive versions); the keys are then hashed in one pass.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t logical = logicals[i];
    if (logical >= write_counts_.size()) {
      write_counts_.resize(logical + 1, 0);
    }
    const uint64_t version = write_counts_[logical]++;
    physical[i] = Mix64(logical * 0x9e3779b97f4a7c15ULL + version);
  }
  hash_.HashRangeBatch(physical, n, num_cells_, physical);
}

std::unique_ptr<WearLevelingPolicy> MakeDirectMapping(uint64_t num_cells) {
  return std::make_unique<DirectMapping>(num_cells);
}

std::unique_ptr<WearLevelingPolicy> MakeRotatingMapping(
    uint64_t num_cells, uint64_t rotate_period) {
  return std::make_unique<RotatingMapping>(num_cells, rotate_period);
}

std::unique_ptr<WearLevelingPolicy> MakeHashedMapping(uint64_t num_cells,
                                                      uint64_t seed) {
  return std::make_unique<HashedMapping>(num_cells, seed);
}

}  // namespace fewstate
