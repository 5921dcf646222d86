#ifndef FEWSTATE_API_BATCH_DRAINER_H_
#define FEWSTATE_API_BATCH_DRAINER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/sketch.h"
#include "common/stream_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fewstate {

/// \brief The one engine drain step, shared by `StreamEngine::Run` and
/// every `ShardedEngine` shard worker: feeds each batch to the added
/// sketches in turn through `UpdateBatch`, timing each sketch once per
/// batch. With a tracer, a batch is a `batch_drain` span holding one
/// `update:<name>` span per sketch. With a registry, each
/// batch boundary folds the sketches' accountant deltas into the
/// `fewstate_sketch_{state_changes,word_writes}_total` counters and the
/// `fewstate_sketch_{change,wear}_rate` gauges — read straight from the
/// accountants, since the drainer runs on the thread that owns the
/// sketches, so the totals reconcile exactly with report deltas. Not
/// thread-safe.
class BatchDrainer {
 public:
  /// Metric series carry `labels` plus `{sketch=<name>}`; metrics and
  /// trace may be null.
  BatchDrainer(MetricsRegistry* metrics, TraceRecorder* trace,
               MetricLabels labels = {});

  /// \brief Adds a borrowed sketch under `name`. Its telemetry publishes
  /// only accountant traffic from here on.
  void Add(Sketch* sketch, const std::string& name);

  /// \brief Feeds `batch[0, count)` to every sketch, then publishes the
  /// batch-boundary telemetry.
  void Drain(const Item* batch, size_t count);

  /// \brief Wall seconds spent inside sketch `i`'s update calls.
  double busy_seconds(size_t i) const { return lanes_[i].busy_seconds; }

 private:
  struct Lane {
    Sketch* sketch = nullptr;
    std::string span_name;  // "update:<name>"; tracing only
    double busy_seconds = 0.0;
    Counter* state_changes = nullptr;  // metrics only, likewise below
    Counter* word_writes = nullptr;
    Gauge* change_rate = nullptr;
    Gauge* wear_rate = nullptr;
    uint64_t last_changes = 0;
    uint64_t last_writes = 0;
  };

  std::vector<Lane> lanes_;
  MetricsRegistry* metrics_;
  TraceRecorder* trace_;
  MetricLabels labels_;
};

}  // namespace fewstate

#endif  // FEWSTATE_API_BATCH_DRAINER_H_
