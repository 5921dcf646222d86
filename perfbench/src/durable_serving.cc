// durable_serving: a two-shard ShardedEngine with delta checkpoints and
// snapshot serving, one closed-loop reader thread querying published views
// during ingest, and a crash of shard 0 rebuilt with RecoverReplica after.
// Threads: the partitioner, 2 shard workers and the reader.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/recovery.h"
#include "shard/sharded_engine.h"
#include "shard/view_query.h"

namespace perfbench {
namespace {

using fewstate::Item;
using fewstate::ShardedEngine;
using fewstate::ShardedRunReport;
using fewstate::SketchFactory;

constexpr uint64_t kItems = uint64_t{1} << 20;
constexpr size_t kShards = 2;
// Items per shard between checkpoints: short enough that the dirty share
// of CountMin and MisraGries stays under the delta threshold, so most of
// their checkpoints are deltas (SpaceSaving is not restorable and always
// writes full snapshots).
constexpr uint64_t kCheckpointEvery = uint64_t{1} << 11;
// Items a request ranks; see ReadUntil.
constexpr size_t kTopK = 3;

std::vector<SketchFactory> Roster() {
  return {CountMinFactory("count_min"), MisraGriesFactory("misra_gries"),
          SpaceSavingFactory("space_saving")};
}

fewstate::ShardedEngineOptions EngineOptions() {
  fewstate::ShardedEngineOptions options;
  options.shards = kShards;
  options.checkpoint_policy = fewstate::CheckpointPolicy::EveryItems(
      kCheckpointEvery, fewstate::CheckpointPolicy::Snapshot::kDelta);
  options.checkpoint_nvm =
      DeviceSpec(fewstate::NvmSpec::Leveling::kDirect, false);
  options.serve_snapshots = true;
  return options;
}

// A served count_min answer kept for checking against the exact count in
// the prefix of the key's shard that the view covered.
struct ServedAnswer {
  Item key = 0;
  double estimate = 0.0;
  uint64_t visible = 0;  // items of the key's shard the view covered
};

// Samples kept per series and repetition.
constexpr size_t kSamples = size_t{1} << 14;

struct ReaderLog {
  Reservoir<double> latency_us{kSamples};  // whole requests
  Reservoir<double> acquire_us{kSamples};  // AcquireAll
  Reservoir<double> topk_us{kSamples};     // TopK on the candidates view
  Reservoir<double> point_ns{kSamples};    // per count_min point query
  Reservoir<double> staleness{kSamples};   // items_behind of each cut
  Reservoir<ServedAnswer> answers{kSamples};
  uint64_t cuts = 0;          // AcquireAll calls after readiness
  uint64_t inconsistent = 0;  // of them, cuts not aligned across sketches
  uint64_t requests = 0;      // requests that got a consistent cut
  uint64_t failed = 0;        // of them, incomplete cuts, short top-k
  double active_s = 0.0;      // from first complete cut to stop
};

// The serving handles a request reads, in AcquireAll order.
struct ReaderHandles {
  fewstate::ServingHandle candidates;  // space_saving
  fewstate::ServingHandle counts;      // count_min
};

// The request of the repository's serving consumer, the live console of
// examples/network_monitoring.cpp: one consistent cut across space_saving
// and count_min, the top 3 candidates, and a count_min point query for
// each. That consumer paces its requests on a 20 ms tick and skips a tick
// whose cut is inconsistent; here the loop is closed, the next request
// sent as soon as one returns, so the reader load does not depend on the
// clock, and a request re-cuts until its cut is consistent (the retries
// are part of its latency). Requests start once every shard has published
// (the service is ready); a cut that is incomplete after that, or a short
// top-k, is a failed request.
void ReadUntil(const std::atomic<bool>& stop, const ReaderHandles& handles,
               const ShardedEngine& engine, ReaderLog* log) {
  const std::vector<fewstate::ServingHandle> cut_of = {handles.candidates,
                                                       handles.counts};
  const auto ready = [](const fewstate::ConsistentViews& cut) {
    return cut.consistent && cut.views[0].complete() &&
           cut.views[1].complete();
  };
  while (!stop.load(std::memory_order_acquire) &&
         !ready(fewstate::AcquireAll(cut_of))) {
  }
  const Clock::time_point ready_at = Clock::now();
  while (!stop.load(std::memory_order_acquire)) {
    const Clock::time_point start = Clock::now();
    fewstate::ConsistentViews cut;
    do {
      cut = fewstate::AcquireAll(cut_of);
      ++log->cuts;
      if (!cut.consistent) ++log->inconsistent;
    } while (!cut.consistent && !stop.load(std::memory_order_acquire));
    const Clock::time_point acquired = Clock::now();
    if (!cut.consistent) break;  // ingest ended mid-request
    ++log->requests;
    if (!ready(cut)) {
      ++log->failed;
      continue;
    }
    const fewstate::SnapshotView& candidates = cut.views[0];
    const fewstate::SnapshotView& counts = cut.views[1];
    const std::vector<fewstate::HeavyHitter> top =
        fewstate::TopK(candidates, kTopK);
    const Clock::time_point ranked = Clock::now();
    std::array<double, kTopK> estimates{};
    for (size_t i = 0; i < top.size(); ++i) {
      estimates[i] = counts.EstimateFrequency(top[i].item);
    }
    const Clock::time_point done = Clock::now();
    const auto us = [](Clock::time_point from, Clock::time_point to) {
      return std::chrono::duration<double>(to - from).count() * 1e6;
    };
    log->latency_us.Add(us(start, done));
    log->acquire_us.Add(us(start, acquired));
    log->topk_us.Add(us(acquired, ranked));
    if (top.size() != kTopK) {
      ++log->failed;
    } else {
      log->point_ns.Add(us(ranked, done) * 1e3 / kTopK);
    }
    for (size_t i = 0; i < top.size(); ++i) {
      const Item key = top[i].item;
      log->answers.Add(
          {key, estimates[i],
           counts.shard_snapshot(engine.ShardOf(key))->items_at_checkpoint});
    }
    log->staleness.Add(static_cast<double>(candidates.items_behind()));
  }
  log->active_s = SecondsSince(ready_at);
}

struct Rep {
  RepTimings timings;
  double query_p50_us = 0.0;
  double query_p99_us = 0.0;
  double query_kqps = 0.0;
  double source_s = 0.0;
  ShardedRunReport report;
  double recovery_s = 0.0;
  // Raw logs, dropped once summarized so memory stays flat.
  std::unique_ptr<ReaderLog> reader = std::make_unique<ReaderLog>();
  std::string trace_json;
  fewstate::MetricsSnapshot metrics;
  // Per-layer figures of a traced repetition.
  std::map<std::string, double> layer;
};

// The exact inputs of the checks, computed from the generated input.
struct Reference {
  std::vector<fewstate::Stream> shard_items;  // each shard's substream
  // The uninterrupted shard-0 replica of each roster sketch.
  std::vector<std::unique_ptr<fewstate::Sketch>> shard0;
  // Positions of a served key in its shard's substream, found on first
  // use: the keys served are the few top candidates.
  std::unordered_map<Item, std::vector<uint64_t>> positions;

  const std::vector<uint64_t>& PositionsOf(Item key) {
    const auto found = positions.find(key);
    if (found != positions.end()) return found->second;
    std::vector<uint64_t>& pos = positions[key];
    for (const fewstate::Stream& sub : shard_items) {
      for (uint64_t i = 0; i < sub.size(); ++i) {
        if (sub[i] == key) pos.push_back(i);
      }
    }
    return pos;
  }
};

Reference BuildReference(const ShardedEngine& engine, const Input& input,
                         const std::vector<SketchFactory>& roster) {
  Reference ref;
  ref.shard_items.resize(kShards);
  for (Item item : input.items) {
    ref.shard_items[engine.ShardOf(item)].push_back(item);
  }
  for (const SketchFactory& factory : roster) {
    ref.shard0.push_back(factory.Make());
    ref.shard0.back()->UpdateBatch(ref.shard_items[0].data(),
                                   ref.shard_items[0].size());
  }
  return ref;
}

std::unique_ptr<ShardedEngine> BuildEngine(
    const fewstate::ShardedEngineOptions& options,
    const std::vector<SketchFactory>& roster) {
  auto engine = std::make_unique<ShardedEngine>(options);
  for (const SketchFactory& factory : roster) {
    const fewstate::Status status = engine->AddSketch(factory);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: AddSketch: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
  return engine;
}

// Crashes shard 0 of every roster sketch and rebuilds it from its last
// checkpoint plus the shard's trace tail; checks the rebuilt replica
// answers every probe exactly as the uninterrupted one.
double RecoverShard0(const ShardedEngine& engine,
                     const std::vector<SketchFactory>& roster,
                     const Reference& ref, const Input& input,
                     fewstate::TraceRecorder* trace, Result* result) {
  double seconds = 0.0;
  for (size_t i = 0; i < roster.size(); ++i) {
    const std::string& name = roster[i].name();
    const fewstate::Sketch* snapshot = engine.Snapshot(0, name);
    const fewstate::ShardedSketchReport* row =
        engine.last_report().Find(name);
    if (snapshot == nullptr || row == nullptr) {
      result->Check(false, name + " shard 0 has a checkpoint to recover");
      continue;
    }
    const fewstate::Stream& sub = ref.shard_items[0];
    const uint64_t cut = row->last_checkpoint_items[0];
    fewstate::VectorSource tail(
        fewstate::Stream(sub.begin() + static_cast<ptrdiff_t>(cut), sub.end()));
    fewstate::RecoveryOptions options;
    options.price_replica_nvm = true;
    options.replica_nvm = DeviceSpec(fewstate::NvmSpec::Leveling::kDirect,
                                     false);
    options.checkpoint_sink = engine.CheckpointSink(0, name);
    options.trace = trace;
    fewstate::RecoveredReplica recovered;
    const Clock::time_point start = Clock::now();
    const fewstate::Status status =
        fewstate::RecoverReplica(roster[i], *snapshot, tail, options,
                                 &recovered);
    seconds += SecondsSince(start);
    if (!status.ok()) {
      result->Check(false, name + " RecoverReplica: " + status.ToString());
      continue;
    }
    size_t mismatched = 0;
    for (Item key : input.probes) {
      if (recovered.sketch->EstimateFrequency(key) !=
          ref.shard0[i]->EstimateFrequency(key)) {
        ++mismatched;
      }
    }
    result->Check(mismatched == 0,
                  name + " recovered shard 0 answers every probe exactly (" +
                      std::to_string(mismatched) + " differ)");
  }
  return seconds;
}

Rep RunRep(const std::vector<SketchFactory>& roster, const Input& input,
           const Reference& ref, bool traced, Result* result,
           std::unique_ptr<ShardedEngine>* kept) {
  Rep rep;
  rep.timings.traced = traced;
  fewstate::TraceRecorder trace;
  fewstate::MetricsRegistry metrics;
  fewstate::ShardedEngineOptions options = EngineOptions();
  if (traced) {
    options.trace = &trace;
    options.metrics = &metrics;
  }
  std::unique_ptr<ShardedEngine> engine;
  ReaderHandles handles;
  ResetHeapPeak();
  for (int i = 0; i < kSetupsPerRep; ++i) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    engine = BuildEngine(options, roster);
    handles.candidates = engine->Serving("space_saving");
    handles.counts = engine->Serving("count_min");
    rep.timings.setup_s.push_back(SecondsSince(start));
  }

  std::atomic<bool> stop{false};
  std::thread reader(
      [&] { ReadUntil(stop, handles, *engine, rep.reader.get()); });
  TimedSource source(input.items);
  {
    fewstate::TraceSpan span(traced ? &trace : nullptr, "bench_run", "bench");
    const Clock::time_point start = Clock::now();
    rep.report = traced ? engine->Run(source)
                        : engine->Run(fewstate::VectorSource(input.items));
    rep.timings.wall_s = SecondsSince(start);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  rep.source_s = traced ? source.seconds() : 0.0;
  const ReaderLog& log = *rep.reader;
  rep.query_p50_us = Quantile(log.latency_us.values(), 0.5);
  rep.query_p99_us = Quantile(log.latency_us.values(), 0.99);
  rep.query_kqps =
      static_cast<double>(log.latency_us.seen()) / log.active_s / 1e3;

  rep.recovery_s = RecoverShard0(*engine, roster, ref, input,
                                 traced ? &trace : nullptr, result);
  rep.timings.heap_mib = HeapPeakMib();
  if (traced) {
    rep.trace_json = trace.ToJson();
    rep.metrics = metrics.Snapshot();
  }
  *kept = std::move(engine);
  return rep;
}

void CheckServedAnswers(const ReaderLog& log, Reference* ref,
                        Result* result) {
  // A count_min view never underestimates the items it covers.
  uint64_t under = 0;
  for (const ServedAnswer& a : log.answers.values()) {
    const std::vector<uint64_t>& pos = ref->PositionsOf(a.key);
    const double exact = static_cast<double>(
        std::lower_bound(pos.begin(), pos.end(), a.visible) - pos.begin());
    if (a.estimate < exact) ++under;
  }
  if (log.failed + under > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu reader requests failed, %llu served "
                 "count_min answers underestimated their visible prefix\n",
                 static_cast<unsigned long long>(log.failed),
                 static_cast<unsigned long long>(under));
  }
  result->Ops(log.requests, log.failed + under);
}

double CheckMerged(const ShardedEngine& engine, const Input& input,
                   Result* result) {
  double worst = 0.0;
  for (const SketchFactory& factory : Roster()) {
    const std::string& name = factory.name();
    const fewstate::Sketch* merged = engine.Merged(name);
    if (merged == nullptr) {
      result->Check(false, "merged " + name + " exists");
      continue;
    }
    worst = std::max(worst, MaxErrorOnHeavy(*merged, input));
    if (name == "count_min") {
      CheckNeverUnderestimates(*merged, input, "merged count_min", result);
    } else if (name == "misra_gries") {
      CheckMisraGriesRecall(*merged, input, "merged misra_gries", result);
    } else {
      CheckSpaceSavingRecall(*merged, input, "merged space_saving", result);
    }
  }
  return worst;
}

// Counts that must repeat bit for bit on every repetition of one seed.
std::vector<uint64_t> ExactCounts(const ShardedRunReport& report) {
  std::vector<uint64_t> counts{report.items_ingested};
  counts.insert(counts.end(), report.shard_items.begin(),
                report.shard_items.end());
  for (const fewstate::ShardedSketchReport& s : report.sketches) {
    counts.insert(counts.end(),
                  {s.total.state_changes, s.total.word_writes,
                   s.checkpoint.word_writes, s.checkpoints_taken,
                   s.checkpoint.nvm.writes_replayed,
                   s.checkpoint.nvm.max_cell_wear});
  }
  return counts;
}

uint64_t SumCheckpointWords(const ShardedRunReport& report) {
  uint64_t words = 0;
  for (const fewstate::ShardedSketchReport& s : report.sketches) {
    words += s.checkpoint.word_writes;
  }
  return words;
}

// The per-layer figures of one traced repetition, read from its report,
// its reader log, its metrics snapshot and its trace.
std::map<std::string, double> SummarizeTracedRep(const Rep& rep) {
  const double items = static_cast<double>(kItems);
  const ShardedRunReport& r = rep.report;
  std::map<std::string, double> out;
  double busiest_shard_s = 0.0;
  for (size_t s = 0; s < kShards; ++s) {
    double shard_s = 0.0;
    for (const fewstate::ShardedSketchReport& sk : r.sketches) {
      shard_s += sk.per_shard[s].wall_seconds;
    }
    busiest_shard_s = std::max(busiest_shard_s, shard_s);
  }
  for (const fewstate::ShardedSketchReport& sk : r.sketches) {
    double wall = 0.0;
    for (const fewstate::SketchRunReport& shard : sk.per_shard) {
      wall += shard.wall_seconds;
    }
    out["baselines." + sk.name + ".ns_per_item"] = wall * 1e9 / items;
  }
  out["api.source_ns_per_item"] = rep.source_s * 1e9 / items;
  // The ingest section's time not spent pulling the source or inside the
  // busiest shard's sketch updates: partitioning, queueing, checkpoints
  // and thread hand-offs.
  out["api.drain_other_ns_per_item"] =
      (r.ingest_seconds - rep.source_s - busiest_shard_s) * 1e9 / items;
  out["shard.ingest_s"] = r.ingest_seconds;
  out["shard.merge_s"] = r.merge_seconds;
  out["obs.unattributed_frac"] =
      (rep.timings.wall_s - r.ingest_seconds - r.merge_seconds) /
      rep.timings.wall_s;
  double waits = 0.0;
  double peak = 0.0;
  for (const fewstate::CounterSample& c : rep.metrics.counters()) {
    if (c.id.name == "fewstate_backpressure_waits_total") waits += c.value;
  }
  for (const fewstate::GaugeSample& g : rep.metrics.gauges()) {
    if (g.id.name == "fewstate_shard_queue_peak_depth") {
      peak = std::max(peak, g.value);
    }
  }
  out["shard.backpressure_waits"] = waits;
  out["shard.queue_peak_depth"] = peak;
  const ReaderLog& log = *rep.reader;
  out["shard.acquire_us_p50"] = Median(log.acquire_us.values());
  out["shard.point_query_ns"] = Median(log.point_ns.values());
  out["shard.topk_us_p50"] = Median(log.topk_us.values());
  out["shard.inconsistent_cut_frac"] =
      log.cuts > 0 ? static_cast<double>(log.inconsistent) /
                         static_cast<double>(log.cuts)
                   : 0.0;
  out["recover.capture_ms_p50"] =
      Median(SpanDurationsMs(rep.trace_json, "checkpoint_capture"));
  out["recover.publish_ms_p50"] =
      Median(SpanDurationsMs(rep.trace_json, "checkpoint_publish"));
  double restore_ms = 0.0;
  double replay_ms = 0.0;
  for (double ms : SpanDurationsMs(rep.trace_json, "recovery_restore")) {
    restore_ms += ms;
  }
  for (double ms : SpanDurationsMs(rep.trace_json, "recovery_replay")) {
    replay_ms += ms;
  }
  out["recover.restore_ms"] = restore_ms;
  out["recover.replay_ms"] = replay_ms;
  return out;
}

void ReportLayers(const std::vector<Rep>& reps, Result* result) {
  const double items = static_cast<double>(kItems);
  std::map<std::string, std::vector<double>> layer;
  for (const Rep& rep : reps) {
    for (const auto& [name, value] : rep.layer) layer[name].push_back(value);
  }
  for (const auto& [name, values] : layer) {
    ReportLayer(name, Median(values), result);
  }
  result->Check(std::fabs(Median(layer["obs.unattributed_frac"])) <=
                    kReconcileTolerance,
                "stage sums reconcile with the Run wall");

  // Exact counts: identical on every repetition, so read off the first.
  const ShardedRunReport& r = reps.front().report;
  double writes = 0.0;
  double suppressed = 0.0;
  double device_writes = 0.0;
  double max_wear = 0.0;
  double delta = 0.0;
  double checkpoints = 0.0;
  for (const fewstate::ShardedSketchReport& sk : r.sketches) {
    for (const fewstate::SketchRunReport& shard : sk.per_shard) {
      writes += static_cast<double>(shard.word_writes);
      suppressed += static_cast<double>(shard.suppressed_writes);
    }
    device_writes += static_cast<double>(sk.checkpoint.nvm.writes_replayed);
    max_wear = std::max(max_wear,
                        static_cast<double>(sk.checkpoint.nvm.max_cell_wear));
    delta += static_cast<double>(sk.checkpoint.delta_checkpoints);
    checkpoints += static_cast<double>(sk.checkpoints_taken);
  }
  ReportLayer("state.word_writes_per_item", writes / items, result);
  ReportLayer("state.suppressed_frac", suppressed / (writes + suppressed),
              result);
  ReportLayer("nvm.device_writes_per_item", device_writes / items, result);
  ReportLayer("nvm.max_cell_wear", max_wear, result);
  ReportLayer("nvm.cache_hit_frac", 0.0, result);
  ReportLayer("nvm.cache_absorbed_frac", 0.0, result);
  ReportLayer("nvm.reuse_cold_frac", 0.0, result);
  ReportLayer("recover.delta_frac", checkpoints > 0 ? delta / checkpoints : 0,
              result);
  ReportLayer("recover.ckpt_words_per_item",
              static_cast<double>(SumCheckpointWords(r)) / items, result);
  double skew = 0.0;
  for (uint64_t n : r.shard_items) {
    skew = std::max(skew, static_cast<double>(n) * kShards / items);
  }
  ReportLayer("shard.item_skew", skew, result);

  ReportIdleLayers({"baselines.count_sketch.", "baselines.stable_morris.",
                    "core.", "common.", "counters.", "state.sink",
                    "nvm.direct", "nvm.hashed", "nvm.cached"},
                   result);
}

}  // namespace

void RunDurableServing(const Options& options, Result* result) {
  const Input input = MakeZipfInput(kUniverse, kSkew, kItems, options.seed);
  const std::vector<SketchFactory> roster = Roster();
  // The reference needs the engine's partition function; any engine built
  // from the same options has it.
  Reference ref = BuildReference(*BuildEngine(EngineOptions(), roster),
                                 input, roster);
  std::vector<Rep> reps;
  Reservoir<double> staleness(kSamples * 4);
  uint64_t requests = 0;
  std::string last_trace;
  double max_rel_error = 0.0;
  // Traced runs alternate untraced and traced repetitions.
  const int min_reps = options.trace ? 4 : 3;
  RepeatFor(options.seconds, min_reps, 1000, [&](int i) {
    std::unique_ptr<ShardedEngine> engine;
    reps.push_back(RunRep(roster, input, ref, options.trace && i % 2 == 1,
                          result, &engine));
    Rep& rep = reps.back();
    const ShardedRunReport& r = rep.report;
    uint64_t routed = 0;
    for (uint64_t n : r.shard_items) routed += n;
    result->Check(r.items_ingested == kItems && routed == kItems,
                  "items_ingested equals the items generated");
    CheckServedAnswers(*rep.reader, &ref, result);
    if (i == 0) {
      max_rel_error = CheckMerged(*engine, input, result);
    } else {
      result->Check(ExactCounts(r) == ExactCounts(reps[0].report),
                    "exact counts repeat across repetitions");
    }
    // Summarize and drop the raw logs, so memory stays flat however many
    // repetitions fit.
    for (double items : rep.reader->staleness.values()) staleness.Add(items);
    requests += rep.reader->latency_us.seen();
    if (rep.timings.traced) {
      rep.layer = SummarizeTracedRep(rep);
      last_trace = std::move(rep.trace_json);
    }
    rep.reader.reset();
    rep.trace_json = std::string();
  });

  std::vector<RepTimings> timings;
  std::vector<double> recovery_ms;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> kqps;
  for (const Rep& rep : reps) {
    timings.push_back(rep.timings);
    recovery_ms.push_back(rep.recovery_s * 1e3);
    p50.push_back(rep.query_p50_us);
    p99.push_back(rep.query_p99_us);
    kqps.push_back(rep.query_kqps);
  }
  const ShardedRunReport& first = reps.front().report;
  uint64_t state_changes = 0;
  for (const fewstate::ShardedSketchReport& sk : first.sketches) {
    state_changes += sk.total.state_changes;
  }
  ReportEndToEnd(timings, kItems, state_changes, max_rel_error, input,
                 result);
  result->Info("query_samples", static_cast<double>(requests));
  result->Info("ckpt_words_per_item",
               static_cast<double>(SumCheckpointWords(first)) /
                   static_cast<double>(kItems));
  result->Info("staleness_p50_items", Median(staleness.values()));
  result->Info("recovery_ms", Median(recovery_ms));
  if (options.trace) {
    ReportLayer("shard.staleness_p50_items", Median(staleness.values()),
                result);
    ReportLayer("recover.recovery_ms", Median(recovery_ms), result);
    ReportLayer("query_p50_us", Median(p50), result);
    ReportLayer("query_p99_us", Median(p99), result);
    ReportLayer("query_kqps", Median(kqps), result);
    ReportLayers(reps, result);
    if (!options.trace_out.empty()) {
      WriteTrace(options.trace_out, last_trace, result);
    }
  }
}

}  // namespace perfbench
