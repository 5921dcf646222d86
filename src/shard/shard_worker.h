#ifndef FEWSTATE_SHARD_SHARD_WORKER_H_
#define FEWSTATE_SHARD_SHARD_WORKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/batch_drainer.h"
#include "api/stream_engine.h"
#include "common/stream_types.h"
#include "nvm/live_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/checkpoint_policy.h"
#include "shard/sketch_factory.h"
#include "shard/snapshot_serving.h"
#include "state/dirty_tracker.h"
#include "state/write_sink.h"

namespace fewstate {

// shard/sharded_engine.h
struct ShardedEngineOptions;

/// \brief A sketch registered with a `ShardedEngine`: its factory and what
/// registration learned about it.
struct ShardedSketchSpec {
  SketchFactory factory;
  bool mergeable = false;
  bool has_nvm = false;
  NvmSpec nvm_spec;  // meaningful iff has_nvm
};

/// \brief One shard of a `ShardedEngine` run and the body of its ingest
/// thread. Owns the shard's replicas, their sinks (live NVM device, dirty
/// tracker, checkpoint device) and their checkpoint snapshots. `Consume`
/// drains a batch through a `BatchDrainer`, then, at the batch boundary,
/// publishes ingest progress and evaluates the checkpoint policy: it
/// captures full or delta snapshots onto the checkpoint devices and, when
/// serving, publishes them to the readers' slots. Only the worker's thread
/// touches this state between thread start and join; the engine reads it
/// back afterwards and keeps it until the next `Run`.
class ShardWorker {
 public:
  /// Mints shard `shard`'s replica of every spec with its sinks attached.
  /// `options.checkpoint_policy` must already be normalised by the engine;
  /// `serving[i]` holds spec i's publication slots and `progress` is the
  /// shard's published ingest counter.
  ShardWorker(size_t shard, const std::vector<ShardedSketchSpec>& specs,
              const ShardedEngineOptions& options,
              const std::vector<std::unique_ptr<SketchServingSlots>>& serving,
              std::atomic<uint64_t>* progress);
  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// \brief Ingests one batch and runs the batch-boundary work.
  void Consume(const Stream& batch);

  /// \brief Ends ingest: frees the delta-mode serving spares (copies no
  /// slot publishes), so a finished run keeps only what queries read.
  void Finish();

  /// \brief Replica `i`'s accountant deltas since construction, with its
  /// peak allocation and its update wall time.
  SketchRunReport IngestReport(size_t i) const;

  /// \brief Replica `i`'s checkpoint traffic: summed snapshot accountant
  /// deltas and capture time, with the full/delta/published counts.
  const SketchRunReport& checkpoint_report(size_t i) const {
    return lanes_[i].checkpoint;
  }
  /// \brief Shard items at replica `i`'s last checkpoint (0 if none).
  uint64_t last_checkpoint_items(size_t i) const {
    return lanes_[i].items_at_last;
  }

  // Replica `i` and its parts; each is null when absent, and for an `i`
  // past the specs this worker was built with.
  Sketch* replica(size_t i) const {
    return i < lanes_.size() ? lanes_[i].replica.get() : nullptr;
  }
  const Sketch* snapshot(size_t i) const {  // most recent checkpoint
    return i < lanes_.size() ? lanes_[i].snapshot.get() : nullptr;
  }
  LiveNvmSink* nvm_sink(size_t i) const {  // live update device
    return i < lanes_.size() ? lanes_[i].nvm.get() : nullptr;
  }
  LiveNvmSink* ckpt_sink(size_t i) const {  // checkpoint device
    return i < lanes_.size() ? lanes_[i].ckpt.get() : nullptr;
  }

 private:
  struct Lane {
    explicit Lane(const ShardedSketchSpec& s) : spec(s) {}

    ShardedSketchSpec spec;
    // Sinks are declared before the sketches whose accountants point at
    // them, so they outlive those sketches on destruction.
    std::unique_ptr<LiveNvmSink> nvm;
    std::unique_ptr<LiveNvmSink> ckpt;
    // Only when the policy reads it: the dirty-words trigger, or delta
    // snapshots.
    std::unique_ptr<DirtyTracker> dirty;
    std::unique_ptr<TeeSink> tee;         // when both dirty and nvm exist
    std::unique_ptr<Sketch> replica;
    // Persistent across checkpoints in delta mode; replaced wholesale by
    // full snapshots. Shared because full-mode serving publishes these
    // objects directly, and a reader's view may pin one past the next
    // checkpoint.
    std::shared_ptr<Sketch> snapshot;
    std::shared_ptr<const ShardSnapshot>* slot = nullptr;
    AccountantSnapshot before;
    SketchRunReport checkpoint;
    uint64_t items_at_last = 0;     // shard items at the last checkpoint
    uint64_t next_every_items = 0;  // next kEveryItems threshold
    uint64_t writes_at_last = 0;    // replica word_writes at last checkpoint
    // Delta-mode serving buffers: the persistent base snapshot is mutated
    // in place by the next delta, so publication serves a copy. Two
    // buffers alternate; the spare (unpublished) one is reused only when
    // no reader still pins it (use_count() == 1 — safe to test, since a
    // buffer out of the slot can gain no new references).
    std::shared_ptr<Sketch> serve_bufs[2];
    int serve_cur = 0;  // index of the most recently published buffer
    Gauge* live_max_wear = nullptr;  // metrics + live device only
    Counter* ckpt_full = nullptr;    // metrics + checkpointing only
    Counter* ckpt_delta = nullptr;
    Counter* ckpt_words = nullptr;
    Counter* published = nullptr;
  };

  void TakeCheckpoint(Lane* lane);
  void Publish(Lane* lane);

  BatchDrainer drainer_;
  std::vector<Lane> lanes_;
  CheckpointPolicy policy_;
  bool serve_;
  std::atomic<uint64_t>* progress_;
  TraceRecorder* trace_;
  Counter* items_ = nullptr;    // metrics only
  Counter* batches_ = nullptr;  // metrics only
  uint64_t processed_ = 0;
};

}  // namespace fewstate

#endif  // FEWSTATE_SHARD_SHARD_WORKER_H_
