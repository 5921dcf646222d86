#include "shard/shard_worker.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "api/mergeable.h"
#include "shard/sharded_engine.h"

namespace fewstate {

namespace {

// A failed snapshot copy means the factory minted mismatched
// configurations — a programming error, fatal like a failed merge.
void CheckCopy(const Status& status, const char* what,
               const SketchFactory& factory) {
  if (status.ok()) return;
  std::fprintf(stderr, "ShardedEngine::Run: %s of '%s' failed: %s\n", what,
               factory.name().c_str(), status.ToString().c_str());
  std::abort();
}

}  // namespace

ShardWorker::ShardWorker(
    size_t shard, const std::vector<ShardedSketchSpec>& specs,
    const ShardedEngineOptions& options,
    const std::vector<std::unique_ptr<SketchServingSlots>>& serving,
    std::atomic<uint64_t>* progress)
    : drainer_(options.metrics, options.trace,
               {{"shard", std::to_string(shard)}}),
      policy_(options.checkpoint_policy),
      serve_(options.serve_snapshots),
      progress_(progress),
      trace_(options.trace) {
  MetricsRegistry* const metrics = options.metrics;
  const std::string shard_label = std::to_string(shard);
  if (metrics != nullptr) {
    items_ = metrics->GetCounter("fewstate_shard_items_total",
                                 {{"shard", shard_label}});
    batches_ = metrics->GetCounter("fewstate_batches_drained_total",
                                   {{"shard", shard_label}});
  }
  lanes_.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const ShardedSketchSpec& e = specs[i];
    Lane& lane = lanes_.emplace_back(e);
    lane.slot = &serving[i]->slots[shard];
    // Fresh replica: a sharded run consumes its replicas by merging them.
    // An NVM spec gets a live device; a sketch whose dirty set the
    // checkpoint policy reads gets a `DirtyTracker`; one needing both gets
    // them tee'd. Sinks attach before any update so they see the replica's
    // whole lifetime.
    lane.replica = e.factory.Make();
    if (e.has_nvm) lane.nvm = std::make_unique<LiveNvmSink>(e.nvm_spec);
    if (policy_.enabled() && e.mergeable) {
      // Checkpoint device: persists across this shard's checkpoints
      // (re-snapshotting the same region accrues wear).
      lane.ckpt = std::make_unique<LiveNvmSink>(options.checkpoint_nvm);
      if (policy_.needs_dirty_tracking()) {
        lane.dirty = std::make_unique<DirtyTracker>();
      }
    }
    std::vector<WriteSink*> chain;
    if (lane.dirty != nullptr) chain.push_back(lane.dirty.get());
    if (lane.nvm != nullptr) chain.push_back(lane.nvm.get());
    if (chain.size() > 1) lane.tee = std::make_unique<TeeSink>(chain);
    if (!chain.empty()) {
      lane.replica->mutable_accountant()->set_write_sink(
          lane.tee != nullptr ? lane.tee.get() : chain[0]);
    }
    lane.before = AccountantSnapshot::Of(lane.replica->accountant());
    lane.next_every_items = policy_.every_items;  // kEveryItems only
    drainer_.Add(lane.replica.get(), e.factory.name());
    if (metrics == nullptr) continue;
    const std::string& name = e.factory.name();
    const MetricLabels labels{{"shard", shard_label}, {"sketch", name}};
    if (lane.nvm != nullptr) {
      lane.live_max_wear = metrics->GetGauge(
          "fewstate_nvm_max_cell_wear",
          {{"shard", shard_label}, {"sketch", name}, {"device", "live"}});
    }
    if (policy_.enabled()) {
      lane.ckpt_full = metrics->GetCounter(
          "fewstate_checkpoints_total",
          {{"shard", shard_label}, {"sketch", name}, {"kind", "full"}});
      lane.ckpt_delta = metrics->GetCounter(
          "fewstate_checkpoints_total",
          {{"shard", shard_label}, {"sketch", name}, {"kind", "delta"}});
      lane.ckpt_words =
          metrics->GetCounter("fewstate_checkpoint_word_writes_total", labels);
      lane.published =
          metrics->GetCounter("fewstate_snapshots_published_total", labels);
    }
  }
}

void ShardWorker::Consume(const Stream& batch) {
  drainer_.Drain(batch.data(), batch.size());
  processed_ += batch.size();
  if (items_ != nullptr) {
    items_->Increment(batch.size());
    batches_->Increment();
    for (const Lane& lane : lanes_) {
      if (lane.live_max_wear != nullptr) {
        lane.live_max_wear->Set(
            static_cast<double>(lane.nvm->device().max_cell_wear()));
      }
    }
  }
  // Publish ingest progress *before* evaluating checkpoints, with release
  // order: any snapshot published below carries items_at_checkpoint <=
  // this store, so a reader loading slots then progress never computes
  // negative staleness.
  if (serve_) progress_->store(processed_, std::memory_order_release);
  for (Lane& lane : lanes_) {
    if (lane.ckpt == nullptr) continue;  // not checkpointable
    switch (policy_.trigger) {
      case CheckpointPolicy::Trigger::kEveryItems:
        // A batch that crossed several thresholds checkpoints once: every
        // capture at this boundary would copy the same state.
        if (processed_ >= lane.next_every_items) {
          TakeCheckpoint(&lane);
          lane.next_every_items =
              (processed_ / policy_.every_items + 1) * policy_.every_items;
        }
        break;
      case CheckpointPolicy::Trigger::kWriteBudget:
        if (lane.replica->accountant().word_writes() - lane.writes_at_last >=
            policy_.write_budget) {
          TakeCheckpoint(&lane);
        }
        break;
      case CheckpointPolicy::Trigger::kDirtyWords:
        if (lane.dirty->dirty_words() >= policy_.dirty_words) {
          TakeCheckpoint(&lane);
        }
        break;
      case CheckpointPolicy::Trigger::kNone:
        break;
    }
  }
}

void ShardWorker::Finish() {
  for (Lane& lane : lanes_) {
    for (std::shared_ptr<Sketch>& buf : lane.serve_bufs) buf.reset();
  }
}

SketchRunReport ShardWorker::IngestReport(size_t i) const {
  const Lane& lane = lanes_[i];
  const StateAccountant& a = lane.replica->accountant();
  SketchRunReport r = lane.before.DeltaTo(AccountantSnapshot::Of(a));
  r.name = lane.spec.factory.name();
  r.peak_allocated_words = a.peak_allocated_words();
  r.wall_seconds = drainer_.busy_seconds(i);
  return r;
}

// Serializes the live replica into its snapshot, pricing the writes on the
// checkpoint device. A *full* checkpoint rewrites the whole state region
// (a freshly-minted snapshot replica restores from the live one — every
// nonzero word costs a device write); a *delta* checkpoint restores the
// persistent snapshot from just the words the `DirtyTracker` saw change,
// which for the paper's write-frugal sketches is a tiny fraction of state.
void ShardWorker::TakeCheckpoint(Lane* lane) {
  const Sketch& live = *lane->replica;
  SketchRunReport& row = lane->checkpoint;
  if (trace_ != nullptr) {
    trace_->Instant("policy_trigger", "checkpoint", processed_);
  }
  const uint64_t ckpt_words_before = row.word_writes;
  // Delta only when the policy asks for it, a base snapshot exists, and
  // the dirty fraction is below the full-rewrite threshold (past it, a
  // delta costs a rewrite anyway).
  bool full = true;
  if (policy_.snapshot == CheckpointPolicy::Snapshot::kDelta &&
      lane->snapshot != nullptr) {
    const uint64_t allocated = live.accountant().allocated_words();
    const double fraction =
        allocated == 0 ? 1.0
                       : static_cast<double>(lane->dirty->dirty_words()) /
                             static_cast<double>(allocated);
    full = fraction >= policy_.full_snapshot_dirty_fraction;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Explicit Begin/End (not TraceSpan): the capture span must close before
  // the publish span opens, and the only other exits in between are
  // aborts.
  if (trace_ != nullptr) trace_->Begin("checkpoint_capture", "checkpoint");
  if (full) {
    std::unique_ptr<Sketch> fresh = lane->spec.factory.Make();
    fresh->mutable_accountant()->set_write_sink(lane->ckpt.get());
    CheckCopy(AsMergeable(fresh.get())->RestoreFrom(live), "checkpoint",
              lane->spec.factory);
    Accumulate(&row, AccountantSnapshot().DeltaTo(
                         AccountantSnapshot::Of(fresh->accountant())));
    lane->snapshot = std::move(fresh);
    ++row.full_checkpoints;
  } else {
    Sketch* snap = lane->snapshot.get();
    const AccountantSnapshot pre = AccountantSnapshot::Of(snap->accountant());
    CheckCopy(AsMergeable(snap)->RestoreFrom(live, lane->dirty.get()),
              "delta checkpoint", lane->spec.factory);
    Accumulate(&row, pre.DeltaTo(AccountantSnapshot::Of(snap->accountant())));
    ++row.delta_checkpoints;
  }
  if (trace_ != nullptr) trace_->End("checkpoint_capture", "checkpoint");
  row.wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The next interval's dirty set and budgets start now.
  if (lane->dirty != nullptr) lane->dirty->ClearDirty();
  lane->writes_at_last = live.accountant().word_writes();
  lane->items_at_last = processed_;
  if (lane->ckpt_full != nullptr) {
    (full ? lane->ckpt_full : lane->ckpt_delta)->Increment();
    lane->ckpt_words->Increment(row.word_writes - ckpt_words_before);
  }
  if (serve_) Publish(lane);
}

// Publishes the latest checkpoint for concurrent readers. In full mode
// every checkpoint mints a fresh snapshot object that nothing will mutate
// again, so it is published directly, zero-copy. In delta mode the base
// snapshot is the mutation target of the *next* delta, so readers get a
// double-buffered copy instead, priced as bulk reads of the checkpoint
// region (serving re-reads durable state; reads cost energy, never wear).
void ShardWorker::Publish(Lane* lane) {
  TraceSpan publish_span(trace_, "checkpoint_publish", "checkpoint");
  std::shared_ptr<const Sketch> to_publish;
  if (policy_.snapshot != CheckpointPolicy::Snapshot::kDelta) {
    to_publish = lane->snapshot;
  } else {
    std::shared_ptr<Sketch>& spare = lane->serve_bufs[lane->serve_cur ^ 1];
    if (spare == nullptr || spare.use_count() > 1) {
      spare = lane->spec.factory.Make();
    }
    CheckCopy(AsMergeable(spare.get())->RestoreFrom(*lane->replica),
              "serving copy", lane->spec.factory);
    lane->ckpt->OnBulkReads(lane->snapshot->accountant().allocated_words());
    lane->serve_cur ^= 1;
    to_publish = spare;
  }
  auto published = std::make_shared<ShardSnapshot>();
  published->sketch = std::move(to_publish);
  published->items_at_checkpoint = processed_;
  published->sequence =
      lane->checkpoint.full_checkpoints + lane->checkpoint.delta_checkpoints;
  std::atomic_store(lane->slot,
                    std::shared_ptr<const ShardSnapshot>(std::move(published)));
  ++lane->checkpoint.snapshots_published;
  if (lane->published != nullptr) lane->published->Increment();
}

}  // namespace fewstate
