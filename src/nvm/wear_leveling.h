#ifndef FEWSTATE_NVM_WEAR_LEVELING_H_
#define FEWSTATE_NVM_WEAR_LEVELING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hashing.h"

namespace fewstate {

/// \brief Maps logical state cells to physical NVM cells, optionally
/// spreading writes to avoid hot cells (§1.1: wear leveling
/// [Cha07, CHK07]; later systems minimise total writes instead [BFG+15] —
/// which is the paper's algorithmic angle).
///
/// Each policy implements one batch mapping, `MapWrites`; the scalar
/// `MapWrite` is its n = 1 case, so a batch and the same writes mapped
/// one at a time advance the remapping state identically.
class WearLevelingPolicy {
 public:
  virtual ~WearLevelingPolicy() = default;

  /// \brief Maps `n` writes, in program order: `physical[i]` is the
  /// physical cell for the write to `logicals[i]`, exactly as if
  /// `MapWrite` were called on each in turn. May advance internal
  /// remapping state.
  virtual void MapWrites(const uint64_t* logicals, size_t n,
                         uint64_t* physical) = 0;

  /// \brief Physical cell for one write to `logical`.
  uint64_t MapWrite(uint64_t logical) {
    uint64_t physical = 0;
    MapWrites(&logical, 1, &physical);
    return physical;
  }

  /// \brief Policy name for reports.
  virtual const char* name() const = 0;
};

/// \brief Identity mapping: logical cell = physical cell. A hot logical
/// counter becomes a hot physical cell.
class DirectMapping : public WearLevelingPolicy {
 public:
  explicit DirectMapping(uint64_t num_cells);
  void MapWrites(const uint64_t* logicals, size_t n,
                 uint64_t* physical) override;
  const char* name() const override { return "direct"; }

 private:
  uint64_t num_cells_;
};

/// \brief Start-gap style rotation [QGR11]: the logical->physical mapping
/// is a rotation that advances by one slot every `rotate_period` writes,
/// smearing hot logical cells across the device over time.
class RotatingMapping : public WearLevelingPolicy {
 public:
  RotatingMapping(uint64_t num_cells, uint64_t rotate_period);
  void MapWrites(const uint64_t* logicals, size_t n,
                 uint64_t* physical) override;
  const char* name() const override { return "rotate"; }

 private:
  uint64_t num_cells_;
  uint64_t rotate_period_;
  uint64_t until_rotate_;  // writes left before the next rotation step
  uint64_t offset_ = 0;
};

/// \brief Hash-based per-write scatter: each write of a logical cell lands
/// on a pseudo-random physical cell derived from (logical, write count).
/// Models the per-cell write-balancing hashing of [EGMP14]; perfect
/// leveling, but the mapping table itself would cost extra state in a real
/// system (we charge nothing, making it the most favourable baseline for
/// write-heavy algorithms).
class HashedMapping : public WearLevelingPolicy {
 public:
  HashedMapping(uint64_t num_cells, uint64_t seed);
  void MapWrites(const uint64_t* logicals, size_t n,
                 uint64_t* physical) override;
  const char* name() const override { return "hashed"; }

 private:
  uint64_t num_cells_;
  TabulationHash hash_;
  std::vector<uint64_t> write_counts_;  // per-logical version counter
};

/// \brief Factory helpers.
std::unique_ptr<WearLevelingPolicy> MakeDirectMapping(uint64_t num_cells);
std::unique_ptr<WearLevelingPolicy> MakeRotatingMapping(
    uint64_t num_cells, uint64_t rotate_period);
std::unique_ptr<WearLevelingPolicy> MakeHashedMapping(uint64_t num_cells,
                                                      uint64_t seed);

}  // namespace fewstate

#endif  // FEWSTATE_NVM_WEAR_LEVELING_H_
