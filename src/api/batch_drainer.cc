#include "api/batch_drainer.h"

#include <chrono>
#include <utility>

namespace fewstate {

BatchDrainer::BatchDrainer(MetricsRegistry* metrics, TraceRecorder* trace,
                           MetricLabels labels)
    : metrics_(metrics), trace_(trace), labels_(std::move(labels)) {}

void BatchDrainer::Add(Sketch* sketch, const std::string& name) {
  Lane& lane = lanes_.emplace_back();
  lane.sketch = sketch;
  if (trace_ != nullptr) lane.span_name = "update:" + name;
  if (metrics_ == nullptr) return;
  MetricLabels labels = labels_;
  labels.emplace_back("sketch", name);
  lane.state_changes =
      metrics_->GetCounter("fewstate_sketch_state_changes_total", labels);
  lane.word_writes =
      metrics_->GetCounter("fewstate_sketch_word_writes_total", labels);
  lane.change_rate = metrics_->GetGauge("fewstate_sketch_change_rate", labels);
  lane.wear_rate = metrics_->GetGauge("fewstate_sketch_wear_rate", labels);
  lane.last_changes = sketch->accountant().state_changes();
  lane.last_writes = sketch->accountant().word_writes();
}

void BatchDrainer::Drain(const Item* batch, size_t count) {
  using Clock = std::chrono::steady_clock;
  if (trace_ != nullptr) trace_->Begin("batch_drain", "ingest");
  for (Lane& lane : lanes_) {
    if (trace_ != nullptr) trace_->Begin(lane.span_name, "update");
    const Clock::time_point t0 = Clock::now();
    lane.sketch->UpdateBatch(batch, count);
    lane.busy_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (trace_ != nullptr) trace_->End(lane.span_name, "update");
  }
  if (trace_ != nullptr) trace_->End("batch_drain", "ingest");
  if (metrics_ == nullptr) return;
  const double batch_size = static_cast<double>(count);
  for (Lane& lane : lanes_) {
    const StateAccountant& a = lane.sketch->accountant();
    const uint64_t changes = a.state_changes();
    const uint64_t writes = a.word_writes();
    lane.state_changes->Increment(changes - lane.last_changes);
    lane.word_writes->Increment(writes - lane.last_writes);
    lane.change_rate->Set(static_cast<double>(changes - lane.last_changes) /
                          batch_size);
    lane.wear_rate->Set(static_cast<double>(writes - lane.last_writes) /
                        batch_size);
    lane.last_changes = changes;
    lane.last_writes = writes;
  }
}

}  // namespace fewstate
