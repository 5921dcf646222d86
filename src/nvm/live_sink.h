#ifndef FEWSTATE_NVM_LIVE_SINK_H_
#define FEWSTATE_NVM_LIVE_SINK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "nvm/cache_tier.h"
#include "nvm/nvm_adapter.h"
#include "nvm/nvm_device.h"
#include "nvm/wear_leveling.h"
#include "state/write_sink.h"

namespace fewstate {

/// \brief Value description of one simulated NVM attachment: device cost
/// parameters plus the wear-leveling policy to put in front of it. Plain
/// data, so engines can copy it into per-shard replicas (every replica
/// mints its own device from the same spec).
struct NvmSpec {
  enum class Leveling {
    kDirect,    ///< identity mapping — hot logical cells stay hot
    kRotating,  ///< start-gap rotation [QGR11]
    kHashed,    ///< per-write hash scatter [EGMP14]
  };

  NvmConfig config;
  Leveling leveling = Leveling::kDirect;
  uint64_t rotate_period = 64;  ///< kRotating: writes per rotation step
  uint64_t hash_seed = 1;       ///< kHashed: scatter hash seed
  /// Optional DRAM write-back cache in front of the device (disabled by
  /// default — `cache.sets == 0` keeps the path bitwise-identical to the
  /// uncached one). The cache holds logical cells; wear leveling remaps
  /// at write-back time.
  CacheSpec cache;

  /// \brief Mints the configured wear-leveling policy (sized to the
  /// device).
  std::unique_ptr<WearLevelingPolicy> MakePolicy() const;

  /// \brief Policy label for reports ("direct" / "rotate" / "hashed").
  const char* leveling_name() const;

  /// \brief Validates the device parameters and cache geometry.
  Status Validate() const {
    Status device_status = config.Validate();
    if (!device_status.ok()) return device_status;
    return cache.Validate();
  }
};

/// \brief The live end of the `WriteSink` pipeline: pushes each state
/// write through a wear-leveling policy onto a simulated `NvmDevice` *as
/// it happens*.
///
/// The sink holds only the device — O(device) memory, never a trace — so
/// wear, energy and lifetime are exact on unbounded streams. All pricing
/// runs through one `NvmCostPath`: `OnWrite` is its per-record `Write`,
/// and `OnWrites` its batch mapping, which must match that loop bitwise.
class LiveNvmSink : public WriteSink {
 public:
  /// \brief Builds a fresh device + policy from `spec`. The spec must
  /// validate (checked by callers that accept external specs).
  explicit LiveNvmSink(const NvmSpec& spec);

  /// \brief Prices one word write on the device, through the policy, as
  /// it happens.
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    (void)epoch;  // wear does not depend on when, only on where
    path_.Write(cell);
  }

  /// \brief Prices a batch of word writes, in program order, through the
  /// path's batch mapping (bitwise the same as one `OnWrite` per record).
  void OnWrites(uint64_t base_epoch, const CellWrite* writes,
                size_t n) override {
    (void)base_epoch;
    path_.WriteBatch(writes, n);
  }

  /// \brief Prices `count` aggregate reads (energy/latency; no wear).
  void OnBulkReads(uint64_t count) override { path_.BulkReads(count); }

  /// \brief Writes back every dirty cached word onto the device. An
  /// uncached device is always consistent, so this is a no-op without a
  /// cache tier. Idempotent; the engines call it at end of run.
  void Flush() override { path_.Flush(); }

  /// \brief Renews the attachment: a fresh device, policy and cache tier,
  /// as if just constructed (forwarded from an accountant reset).
  void Reset() override;

  /// \brief Costing outcome so far. Flushes the cache tier first, so a
  /// mid-run report on a cached path reflects flushed state (pending
  /// write-backs are priced, never silently excluded).
  NvmReplayReport Report() {
    path_.Flush();
    return path_.Report();
  }

  /// \brief Const overload for already-flushed sinks (e.g. via
  /// `StreamEngine::NvmSink`, which the engine flushes at end of run).
  /// Aborts if the cache tier still holds pending write-backs — a const
  /// sink cannot flush, and an unflushed wear figure is a wrong answer.
  NvmReplayReport Report() const { return path_.Report(); }

  /// \brief The simulated device behind this sink (direct wear queries).
  const NvmDevice& device() const { return *device_; }

  /// \brief The cache tier, or nullptr when the spec disables it.
  const CacheTier* cache() const { return cache_.get(); }

  /// \brief The spec this sink was built from.
  const NvmSpec& spec() const { return spec_; }

 private:
  NvmSpec spec_;
  std::unique_ptr<WearLevelingPolicy> policy_;
  std::unique_ptr<NvmDevice> device_;
  std::unique_ptr<CacheTier> cache_;  // null when spec_.cache is disabled
  NvmCostPath path_;
};

}  // namespace fewstate

#endif  // FEWSTATE_NVM_LIVE_SINK_H_
