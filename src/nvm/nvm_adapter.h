#ifndef FEWSTATE_NVM_NVM_ADAPTER_H_
#define FEWSTATE_NVM_NVM_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nvm/cache_tier.h"
#include "nvm/nvm_device.h"
#include "nvm/wear_leveling.h"
#include "state/write_sink.h"

namespace fewstate {

/// \brief Outcome of pricing an algorithm's memory behaviour on NVM, as
/// `LiveNvmSink::Report` (one device) or `AggregateNvmReports` (several)
/// returns it.
///
/// With a cache tier attached, `writes_replayed` counts writes that
/// *reached the device* (dirty-eviction and flush write-backs); the
/// logical write count the algorithm generated is `cache.total_writes`.
struct NvmReplayReport {
  uint64_t writes_replayed = 0;
  uint64_t reads_replayed = 0;
  uint64_t max_cell_wear = 0;
  double wear_imbalance = 1.0;
  double energy_nj = 0.0;
  double latency_ns = 0.0;
  /// Projected number of times the whole stream could be re-run before the
  /// first cell wears out (infinite if no writes landed anywhere).
  double projected_stream_replays_to_failure = 0.0;

  /// True iff a DRAM cache tier sat in front of the device; `cache` is
  /// all-zero otherwise.
  bool cache_enabled = false;
  /// Cache-tier traffic accounting (hits, absorbed writes, evictions,
  /// write-backs, reuse-distance histogram). Valid only after flush:
  /// `Report()` asserts the tier holds no pending dirty words.
  CacheStats cache;
};

/// \brief The shared costing core: one write/read path from logical state
/// traffic, through a wear-leveling policy, onto a simulated device —
/// turning the paper's abstract state-change counts into the §1.1
/// motivating quantities (energy, latency, device lifetime under
/// asymmetric read/write costs).
///
/// `LiveNvmSink` feeds it each write as the algorithm performs it; `Write`
/// is the per-record reference that `WriteBatch` must match bit for bit.
/// Policy, device and (optional) cache tier are borrowed and must outlive
/// the path. With a cache, writes land in the tier and only dirty
/// evictions / `Flush()` write-backs reach the policy+device; wear
/// leveling therefore remaps at write-back time, downstream of the cache.
class NvmCostPath {
 public:
  NvmCostPath(WearLevelingPolicy* policy, NvmDevice* device,
              CacheTier* cache = nullptr)
      : policy_(policy), device_(device), cache_(cache) {}

  /// \brief Prices one word write of logical `cell`. `writes_` counts
  /// writes that reach the device (all of them when uncached).
  void Write(uint64_t cell) {
    if (cache_ == nullptr) {
      device_->Write(policy_->MapWrite(cell));
      ++writes_;
      return;
    }
    cache_->Write(cell, [this](uint64_t victim) {
      device_->Write(policy_->MapWrite(victim));
      ++writes_;
    });
  }

  /// \brief Prices `n` word writes, in program order — bitwise the same
  /// as `Write(writes[i].cell)` for each record. Uncached, the cells are
  /// mapped a chunk at a time through one `MapWrites` call; with a cache
  /// tier each write still walks the tier on its own.
  void WriteBatch(const CellWrite* writes, size_t n) {
    if (cache_ != nullptr) {
      for (size_t i = 0; i < n; ++i) Write(writes[i].cell);
      return;
    }
    constexpr size_t kChunk = 256;
    uint64_t logical[kChunk];
    uint64_t physical[kChunk];
    for (size_t done = 0; done < n; done += kChunk) {
      const size_t k = n - done < kChunk ? n - done : kChunk;
      for (size_t i = 0; i < k; ++i) logical[i] = writes[done + i].cell;
      policy_->MapWrites(logical, k, physical);
      for (size_t i = 0; i < k; ++i) device_->Write(physical[i]);
    }
    writes_ += n;
  }

  /// \brief Prices `count` aggregate reads (energy/latency; no wear).
  /// Reads are address-free aggregates, so the cache tier cannot filter
  /// them — they pass through to the device unchanged.
  void BulkReads(uint64_t count) {
    device_->ReadBulk(count);
    reads_ += count;
  }

  /// \brief Writes back every dirty cached word to the device (no-op when
  /// uncached). Must run before `Report()` on a cached path.
  void Flush() {
    if (cache_ == nullptr) return;
    cache_->Flush([this](uint64_t victim) {
      device_->Write(policy_->MapWrite(victim));
      ++writes_;
    });
  }

  /// \brief True iff every write has been priced onto the device (always
  /// true uncached; cached: no pending dirty words).
  bool flushed() const { return cache_ == nullptr || cache_->flushed(); }

  /// \brief Costing outcome so far. On a cached path the tier must be
  /// flushed — wear, lifetime and imbalance would
  /// otherwise silently exclude pending write-backs — so an unflushed
  /// `Report()` aborts (see `LiveNvmSink::Report` for the auto-flushing
  /// wrapper).
  NvmReplayReport Report() const;

 private:
  WearLevelingPolicy* policy_;
  NvmDevice* device_;
  CacheTier* cache_;
  uint64_t writes_ = 0;
  uint64_t reads_ = 0;
};

/// \brief Folds per-device reports into one deployment-level view (e.g.
/// one device per shard replica, plus checkpoint devices): traffic,
/// energy and latency add up; `max_cell_wear` and `wear_imbalance`
/// take the worst device; lifetime takes the first device to fail.
/// Cache-tier counters and reuse-distance buckets sum element-wise
/// (`cache_enabled` if any part had a cache).
/// An empty input yields a default (all-zero) report.
NvmReplayReport AggregateNvmReports(const std::vector<NvmReplayReport>& parts);

}  // namespace fewstate

#endif  // FEWSTATE_NVM_NVM_ADAPTER_H_
