#include "shard/sharded_engine.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/random.h"
#include "obs/wear_probe.h"

namespace fewstate {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Bounded FIFO of item batches between the partitioner and one shard
/// worker. `Push` blocks when the worker is `max_batches` (>= 1) behind
/// (backpressure); `Pop` blocks until a batch arrives or the queue is
/// closed and drained. The optional telemetry bindings (null when metrics
/// are off) publish the live depth, the run's high-water depth, and the
/// number of pushes that actually blocked on backpressure; all stores
/// happen under the queue lock the caller already pays for.
class BatchQueue {
 public:
  BatchQueue(size_t max_batches, Gauge* depth, Gauge* peak_depth,
             Counter* backpressure_waits)
      : max_batches_(max_batches),
        depth_(depth),
        peak_depth_(peak_depth),
        backpressure_(backpressure_waits) {}

  void Push(Stream batch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (backpressure_ != nullptr && batches_.size() >= max_batches_) {
      backpressure_->Increment();
    }
    not_full_.wait(lock, [this] { return batches_.size() < max_batches_; });
    batches_.push_back(std::move(batch));
    PublishDepth();
    not_empty_.notify_one();
  }

  bool Pop(Stream* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !batches_.empty() || closed_; });
    if (batches_.empty()) return false;
    *out = std::move(batches_.front());
    batches_.pop_front();
    PublishDepth();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  void PublishDepth() {  // callers hold mu_
    if (depth_ == nullptr) return;
    depth_->Set(static_cast<double>(batches_.size()));
    if (batches_.size() > peak_seen_) {
      peak_seen_ = batches_.size();
      peak_depth_->Set(static_cast<double>(peak_seen_));
    }
  }

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Stream> batches_;
  size_t max_batches_;
  Gauge* depth_;
  Gauge* peak_depth_;
  Counter* backpressure_;
  size_t peak_seen_ = 0;
  bool closed_ = false;
};

}  // namespace

const ShardedSketchReport* ShardedRunReport::Find(
    const std::string& name) const {
  for (const ShardedSketchReport& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string ShardedRunReport::ToString() const {
  std::string out;
  AppendFormat(&out,
               "sharded run: shards=%zu batch=%zu items_ingested=%llu "
               "ingest=%.6fs merge=%.6fs wall=%.6fs throughput=%.0f items/s\n",
               shards, batch_items,
               static_cast<unsigned long long>(items_ingested),
               ingest_seconds, merge_seconds, wall_seconds, items_per_second);
  out += "  shard items:";
  for (uint64_t items : shard_items) {
    AppendFormat(&out, " %llu", static_cast<unsigned long long>(items));
  }
  out += '\n';
  for (const ShardedSketchReport& s : sketches) {
    AppendFormat(
        &out,
        "  %-24s total: state_changes=%-10llu word_writes=%-10llu "
        "suppressed=%-8llu reads=%-10llu (merge: changes=%llu writes=%llu)\n",
        s.name.c_str(), static_cast<unsigned long long>(s.total.state_changes),
        static_cast<unsigned long long>(s.total.word_writes),
        static_cast<unsigned long long>(s.total.suppressed_writes),
        static_cast<unsigned long long>(s.total.word_reads),
        static_cast<unsigned long long>(s.merge.state_changes),
        static_cast<unsigned long long>(s.merge.word_writes));
    if (s.total.has_nvm) {
      AppendFormat(
          &out,
          "    nvm (all devices): writes=%-10llu max_wear=%-8llu "
          "energy=%.3gnJ replays_to_eol=%.4g\n",
          static_cast<unsigned long long>(s.total.nvm.writes_replayed),
          static_cast<unsigned long long>(s.total.nvm.max_cell_wear),
          s.total.nvm.energy_nj,
          s.total.nvm.projected_stream_replays_to_failure);
    }
    if (s.checkpoints_taken > 0) {
      AppendFormat(
          &out,
          "    checkpoints=%-4llu (full=%llu delta=%llu published=%llu) "
          "snapshot_writes=%-10llu ckpt_nvm_max_wear=%-8llu "
          "ckpt_replays_to_eol=%.4g\n",
          static_cast<unsigned long long>(s.checkpoints_taken),
          static_cast<unsigned long long>(s.checkpoint.full_checkpoints),
          static_cast<unsigned long long>(s.checkpoint.delta_checkpoints),
          static_cast<unsigned long long>(s.snapshots_published),
          static_cast<unsigned long long>(s.checkpoint.word_writes),
          static_cast<unsigned long long>(s.checkpoint.nvm.max_cell_wear),
          s.checkpoint.nvm.projected_stream_replays_to_failure);
    }
    for (size_t shard = 0; shard < s.per_shard.size(); ++shard) {
      const SketchRunReport& p = s.per_shard[shard];
      AppendFormat(
          &out,
          "    shard %-2zu items=%-10llu state_changes=%-10llu "
          "word_writes=%-10llu wall=%.6fs\n",
          shard, static_cast<unsigned long long>(p.updates),
          static_cast<unsigned long long>(p.state_changes),
          static_cast<unsigned long long>(p.word_writes), p.wall_seconds);
    }
  }
  return out;
}

std::string ShardedRunReport::ToCsv(const std::string& label) const {
  std::string out;
  for (const ShardedSketchReport& s : sketches) {
    for (size_t shard = 0; shard < s.per_shard.size(); ++shard) {
      out += SketchReportCsvRow(
          label, s.name + "[shard" + std::to_string(shard) + "]",
          s.per_shard[shard]);
      out += '\n';
    }
    out += SketchReportCsvRow(label, s.name + "[merge]", s.merge);
    out += '\n';
    if (s.checkpoints_taken > 0) {
      out += SketchReportCsvRow(label, s.name + "[checkpoint]", s.checkpoint);
      out += '\n';
    }
    out += SketchReportCsvRow(label, s.name + "[total]", s.total);
    out += '\n';
  }
  return out;
}

ShardedEngine::ShardedEngine(const ShardedEngineOptions& options)
    : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.batch_items == 0) options_.batch_items = 1;
  if (options_.max_queued_batches == 0) options_.max_queued_batches = 1;
  CheckpointPolicy& policy = options_.checkpoint_policy;
  // A trigger with a zero parameter is a degenerate schedule (kEveryItems
  // would spin forever; the others would fire every batch): treat it as
  // disabled, like the factory helpers do.
  if ((policy.trigger == CheckpointPolicy::Trigger::kEveryItems &&
       policy.every_items == 0) ||
      (policy.trigger == CheckpointPolicy::Trigger::kWriteBudget &&
       policy.write_budget == 0) ||
      (policy.trigger == CheckpointPolicy::Trigger::kDirtyWords &&
       policy.dirty_words == 0)) {
    policy.trigger = CheckpointPolicy::Trigger::kNone;
  }
  // An invalid checkpoint device is a programming error, caught at setup
  // like StreamEngine's registration aborts — not mid-run.
  if (policy.enabled()) {
    const Status valid = options_.checkpoint_nvm.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr,
                   "ShardedEngine: invalid checkpoint_nvm spec: %s\n",
                   valid.ToString().c_str());
      std::abort();
    }
  }
  // Serving publishes checkpoints; without a schedule nothing would ever
  // be published, which is a silently-empty view — a setup error.
  if (options_.serve_snapshots && !policy.enabled()) {
    std::fprintf(stderr,
                 "ShardedEngine: serve_snapshots requires an enabled "
                 "checkpoint_policy (nothing publishes without "
                 "checkpoints)\n");
    std::abort();
  }
  // Stable heap address: ServingHandles point at this array for the
  // engine's lifetime.
  shard_progress_.reset(new std::atomic<uint64_t>[options_.shards]);
  for (size_t s = 0; s < options_.shards; ++s) {
    shard_progress_[s].store(0, std::memory_order_relaxed);
  }
}

Status ShardedEngine::AddSketch(SketchFactory factory) {
  return AddSketchEntry(std::move(factory), /*has_nvm=*/false, NvmSpec());
}

Status ShardedEngine::AddSketch(SketchFactory factory,
                                const NvmSpec& nvm_spec) {
  const Status valid = nvm_spec.Validate();
  if (!valid.ok()) return valid;
  return AddSketchEntry(std::move(factory), /*has_nvm=*/true, nvm_spec);
}

Status ShardedEngine::AddSketchEntry(SketchFactory factory, bool has_nvm,
                                     const NvmSpec& nvm_spec) {
  if (IndexOf(factory.name()) != entries_.size()) {
    return Status::InvalidArgument("ShardedEngine::AddSketch: duplicate name '" +
                                   factory.name() + "'");
  }
  std::unique_ptr<Sketch> probe = factory.Make();
  if (probe == nullptr) {
    return Status::InvalidArgument(
        "ShardedEngine::AddSketch: factory for '" + factory.name() +
        "' returned null");
  }
  const bool mergeable = IsMergeable(*probe);
  if (!mergeable && options_.shards > 1) {
    return Status::FailedPrecondition(
        "ShardedEngine::AddSketch: '" + factory.name() +
        "' is not mergeable; a multi-shard engine requires MergeableSketch "
        "implementations (run it in a shards=1 engine instead)");
  }
  ShardedSketchSpec entry{std::move(factory), mergeable, has_nvm, nvm_spec};
  entries_.push_back(std::move(entry));
  // Publication slots live at a stable heap address from registration on,
  // so ServingHandles obtained before any Run stay valid for the engine's
  // lifetime.
  serving_.push_back(std::make_unique<SketchServingSlots>(options_.shards));
  return Status::OK();
}

size_t ShardedEngine::ShardOf(Item item) const {
  return options_.shards == 1
             ? 0
             : static_cast<size_t>(Mix64(item ^ options_.partition_seed) %
                                   options_.shards);
}

std::vector<std::string> ShardedEngine::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const ShardedSketchSpec& e : entries_) out.push_back(e.factory.name());
  return out;
}

size_t ShardedEngine::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].factory.name() == name) return i;
  }
  return entries_.size();
}

Sketch* ShardedEngine::Merged(const std::string& name) const {
  return Replica(0, name);
}

// Sketches registered after the last Run have no replicas yet: the
// worker returns null for their index, as for an unknown name.
Sketch* ShardedEngine::Replica(size_t shard, const std::string& name) const {
  return shard < workers_.size() ? workers_[shard]->replica(IndexOf(name))
                                 : nullptr;
}

const Sketch* ShardedEngine::Snapshot(size_t shard,
                                      const std::string& name) const {
  return shard < workers_.size() ? workers_[shard]->snapshot(IndexOf(name))
                                 : nullptr;
}

const LiveNvmSink* ShardedEngine::NvmSink(size_t shard,
                                          const std::string& name) const {
  return shard < workers_.size() ? workers_[shard]->nvm_sink(IndexOf(name))
                                 : nullptr;
}

LiveNvmSink* ShardedEngine::CheckpointSink(size_t shard,
                                           const std::string& name) const {
  return shard < workers_.size() ? workers_[shard]->ckpt_sink(IndexOf(name))
                                 : nullptr;
}

ServingHandle ShardedEngine::Serving(const std::string& name) const {
  const size_t i = IndexOf(name);
  if (i >= entries_.size()) return ServingHandle();
  // With metrics attached, bind the handle's serving telemetry: staleness
  // of every complete view acquired, and an acquire counter. Reader
  // threads feed these with relaxed atomics only.
  Histogram* staleness = nullptr;
  Counter* acquires = nullptr;
  if (options_.metrics != nullptr) {
    staleness = options_.metrics->GetHistogram("fewstate_view_staleness_items",
                                               {{"sketch", name}});
    acquires = options_.metrics->GetCounter("fewstate_view_acquires_total",
                                            {{"sketch", name}});
  }
  return ServingHandle(serving_[i].get(), shard_progress_.get(), staleness,
                       acquires);
}

ShardedRunReport ShardedEngine::Run(const Stream& stream) {
  VectorSource source(stream);
  return Run(source);
}

ShardedRunReport ShardedEngine::Run(ItemSource& source) {
  const Clock::time_point run_start = Clock::now();
  MetricsRegistry* const metrics = options_.metrics;
  TraceRecorder* const trace = options_.trace;
  TraceSpan run_span(trace, "sharded_run", "engine");

  ShardedRunReport report;
  report.shards = options_.shards;
  report.batch_items = options_.batch_items;
  report.shard_items.assign(options_.shards, 0);
  report.sketches.resize(entries_.size());

  BuildWorkers();
  Partition(source, &report);
  Consolidate(&report);

  // Source failures surface loudly in telemetry too: callers already get
  // status() — operators watching mid-run get the counter and instant.
  if (!source.status().ok()) {
    if (metrics != nullptr) {
      metrics->GetCounter("fewstate_source_errors_total")->Increment();
    }
    if (trace != nullptr) trace->Instant("source_error", "source");
  }

  report.wall_seconds = Seconds(run_start, Clock::now());
  report.items_per_second =
      report.ingest_seconds > 0.0
          ? static_cast<double>(report.items_ingested) / report.ingest_seconds
          : 0.0;
  last_report_ = report;
  return report;
}

void ShardedEngine::BuildWorkers() {
  // A new run starts from zero published state: clear every publication
  // slot and progress counter. Readers holding views from a previous run
  // keep their snapshots alive through their own shared_ptrs.
  for (size_t i = 0; i < entries_.size(); ++i) {
    for (size_t s = 0; s < options_.shards; ++s) {
      std::atomic_store(&serving_[i]->slots[s],
                        std::shared_ptr<const ShardSnapshot>());
    }
  }
  for (size_t s = 0; s < options_.shards; ++s) {
    shard_progress_[s].store(0, std::memory_order_release);
  }
  // The previous run's replicas and devices go before the new ones are
  // minted. Workers resolve their telemetry bindings here, on this
  // thread, so batch-boundary publishes touch only held pointers.
  workers_.clear();
  workers_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(
        s, entries_, options_, serving_, &shard_progress_[s]));
  }
}

void ShardedEngine::Partition(ItemSource& source, ShardedRunReport* report) {
  const size_t num_shards = options_.shards;
  MetricsRegistry* const metrics = options_.metrics;
  TraceRecorder* const trace = options_.trace;

  // One bounded queue and one thread per shard worker. Each worker is the
  // only thread touching its shard's replicas (and their accountants,
  // sinks and snapshots) between thread start and join, so state stays
  // thread-confined; the queue provides the ordering handoff for the
  // batches themselves.
  std::vector<std::unique_ptr<BatchQueue>> queues;
  queues.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    Gauge* depth = nullptr;
    Gauge* peak = nullptr;
    Counter* waits = nullptr;
    if (metrics != nullptr) {
      const MetricLabels labels{{"shard", std::to_string(s)}};
      depth = metrics->GetGauge("fewstate_shard_queue_depth", labels);
      peak = metrics->GetGauge("fewstate_shard_queue_peak_depth", labels);
      waits = metrics->GetCounter("fewstate_backpressure_waits_total", labels);
    }
    queues.push_back(std::make_unique<BatchQueue>(options_.max_queued_batches,
                                                  depth, peak, waits));
  }
  Counter* items_total =
      metrics != nullptr ? metrics->GetCounter("fewstate_items_ingested_total")
                         : nullptr;

  const Clock::time_point ingest_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    threads.emplace_back([this, s, trace, &queues] {
      if (trace != nullptr) {
        trace->SetCurrentThreadName("shard-worker-" + std::to_string(s));
      }
      Stream batch;
      while (queues[s]->Pop(&batch)) workers_[s]->Consume(batch);
    });
  }

  // Partition: pull batches straight from the source and hash-route each
  // item (on identity, so all occurrences of an item land on one shard,
  // preserving arrival order within the shard) into the bounded shard
  // queues. Nothing here depends on the stream's total length — the loop
  // runs until the source reports end-of-stream, never on `SizeHint()` —
  // and the queues' backpressure is the only buffering between a live feed
  // and the workers.
  if (trace != nullptr) trace->SetCurrentThreadName("partitioner");
  std::vector<Item> pull(options_.batch_items);
  std::vector<Stream> pending(num_shards);
  for (Stream& p : pending) p.reserve(options_.batch_items);
  report->items_ingested = ForEachBatch(
      source, pull.data(), pull.size(), [&](const Item* batch, size_t count) {
        if (items_total != nullptr) items_total->Increment(count);
        for (size_t k = 0; k < count; ++k) {
          const Item item = batch[k];
          const size_t s = ShardOf(item);
          ++report->shard_items[s];
          pending[s].push_back(item);
          if (pending[s].size() >= options_.batch_items) {
            queues[s]->Push(std::move(pending[s]));
            pending[s] = Stream();
            pending[s].reserve(options_.batch_items);
          }
        }
      });
  for (size_t s = 0; s < num_shards; ++s) {
    if (!pending[s].empty()) queues[s]->Push(std::move(pending[s]));
    queues[s]->Close();
  }
  for (std::thread& t : threads) t.join();
  for (const std::unique_ptr<ShardWorker>& worker : workers_) worker->Finish();
  report->ingest_seconds = Seconds(ingest_start, Clock::now());
}

void ShardedEngine::Consolidate(ShardedRunReport* report) {
  const size_t num_shards = options_.shards;
  const size_t num_sketches = entries_.size();
  MetricsRegistry* const metrics = options_.metrics;

  // Per-shard ingest deltas.
  for (size_t i = 0; i < num_sketches; ++i) {
    ShardedSketchReport& sk = report->sketches[i];
    sk.name = entries_[i].factory.name();
    sk.mergeable = entries_[i].mergeable;
    sk.per_shard.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      sk.per_shard[s] = workers_[s]->IngestReport(i);
      Accumulate(&sk.total, sk.per_shard[s]);
    }
  }

  // Merge: consolidate shards 1..S-1 into shard 0's replica, wear
  // accounted on the destination. `SketchFactory`'s contract is that every
  // Make() mints an identical configuration, so a failure here is a broken
  // factory (e.g. a stateful maker varying seeds across calls) — a
  // programming error, and the engine dies like StreamEngine does on
  // invalid registration rather than returning a half-merged report.
  const Clock::time_point merge_start = Clock::now();
  if (num_shards > 1) {
    for (size_t i = 0; i < num_sketches; ++i) {
      ShardedSketchReport& sk = report->sketches[i];
      MergeableSketch* merged = AsMergeable(workers_[0]->replica(i));
      const AccountantSnapshot pre =
          AccountantSnapshot::Of(merged->accountant());
      const Clock::time_point t0 = Clock::now();
      {
        TraceSpan merge_span(options_.trace, "merge:" + sk.name, "merge");
        for (size_t s = 1; s < num_shards; ++s) {
          const Status status = merged->MergeFrom(*workers_[s]->replica(i));
          if (!status.ok()) {
            std::fprintf(stderr,
                         "ShardedEngine::Run: merge of '%s' failed: %s\n",
                         sk.name.c_str(), status.ToString().c_str());
            std::abort();
          }
        }
      }
      sk.merge = pre.DeltaTo(AccountantSnapshot::Of(merged->accountant()));
      sk.merge.name = sk.name;
      sk.merge.wall_seconds = Seconds(t0, Clock::now());
      Accumulate(&sk.total, sk.merge);
      // Merge traffic is deliberately kept out of the per-shard ingest
      // counters (those reconcile exactly with per_shard report rows);
      // it gets its own per-sketch family.
      if (metrics != nullptr) {
        metrics
            ->GetCounter("fewstate_merge_word_writes_total",
                         {{"sketch", sk.name}})
            ->Increment(sk.merge.word_writes);
        metrics
            ->GetCounter("fewstate_merge_state_changes_total",
                         {{"sketch", sk.name}})
            ->Increment(sk.merge.state_changes);
      }
    }
  }
  report->merge_seconds = Seconds(merge_start, Clock::now());

  // Durability (checkpoint) traffic: fold each shard's snapshot deltas and
  // checkpoint devices into one per-sketch view, and charge it to total —
  // a deployed monitor pays for durability like it pays for updates.
  if (options_.checkpoint_policy.enabled()) {
    for (size_t i = 0; i < num_sketches; ++i) {
      ShardedSketchReport& sk = report->sketches[i];
      sk.checkpoint.name = sk.name;
      sk.last_checkpoint_items.assign(num_shards, 0);
      // Not checkpointable: no shard minted a checkpoint device.
      if (workers_[0]->ckpt_sink(i) == nullptr) continue;
      std::vector<NvmReplayReport> devices;
      devices.reserve(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        const SketchRunReport& c = workers_[s]->checkpoint_report(i);
        Accumulate(&sk.checkpoint, c);
        sk.checkpoint.full_checkpoints += c.full_checkpoints;
        sk.checkpoint.delta_checkpoints += c.delta_checkpoints;
        sk.checkpoint.snapshots_published += c.snapshots_published;
        sk.last_checkpoint_items[s] = workers_[s]->last_checkpoint_items(i);
        LiveNvmSink* sink = workers_[s]->ckpt_sink(i);
        sink->Flush();  // end-of-phase barrier (sink contract)
        devices.push_back(sink->Report());
      }
      sk.checkpoints_taken =
          sk.checkpoint.full_checkpoints + sk.checkpoint.delta_checkpoints;
      sk.snapshots_published = sk.checkpoint.snapshots_published;
      sk.checkpoint.has_nvm = true;
      sk.checkpoint.nvm = AggregateNvmReports(devices);
      Accumulate(&sk.total, sk.checkpoint);
    }
  }

  // Live NVM capture: per-shard replica device state (cumulative —
  // shard 0's device includes the merge phase's consolidation writes) and
  // the deployment-level aggregate over replica + checkpoint devices.
  for (size_t i = 0; i < num_sketches; ++i) {
    ShardedSketchReport& sk = report->sketches[i];
    std::vector<NvmReplayReport> devices;
    if (entries_[i].has_nvm) {
      devices.reserve(num_shards + 1);
      for (size_t s = 0; s < num_shards; ++s) {
        LiveNvmSink* sink = workers_[s]->nvm_sink(i);
        sink->Flush();  // end-of-phase barrier (sink contract)
        sk.per_shard[s].has_nvm = true;
        sk.per_shard[s].nvm = sink->Report();
        devices.push_back(sk.per_shard[s].nvm);
      }
    }
    if (sk.checkpoint.has_nvm) devices.push_back(sk.checkpoint.nvm);
    if (!devices.empty()) {
      sk.total.has_nvm = true;
      sk.total.nvm = AggregateNvmReports(devices);
    }
  }

  for (ShardedSketchReport& sk : report->sketches) {
    sk.total.name = sk.name;
    sk.total.peak_allocated_words = 0;
    for (const SketchRunReport& p : sk.per_shard) {
      sk.total.peak_allocated_words += p.peak_allocated_words;
    }
  }

  if (metrics != nullptr) PublishDeviceWear();
}

// End-of-run device introspection: full wear summaries (max/p99/mean over
// written cells) for every attached device, published under the same
// labels the workers' live gauges used. O(cells) per device, paid once,
// after the timed phases; every sink was flushed by Consolidate, so cache
// counts are exact.
void ShardedEngine::PublishDeviceWear() const {
  MetricsRegistry* const metrics = options_.metrics;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const std::string& name = entries_[i].factory.name();
    for (size_t s = 0; s < options_.shards; ++s) {
      const std::string shard_label = std::to_string(s);
      const std::pair<const LiveNvmSink*, const char*> devices[] = {
          {workers_[s]->nvm_sink(i), "live"},
          {workers_[s]->ckpt_sink(i), "checkpoint"}};
      for (const auto& [sink, device] : devices) {
        if (sink == nullptr) continue;
        const MetricLabels labels = {
            {"shard", shard_label}, {"sketch", name}, {"device", device}};
        PublishWearStats(metrics, labels, ComputeWearStats(sink->device()));
        if (const CacheTier* cache = sink->cache()) {
          PublishCacheStats(metrics, labels, cache->stats());
          PublishCacheReuseHistogram(metrics, labels, cache->stats());
        }
      }
    }
  }
}

}  // namespace fewstate
