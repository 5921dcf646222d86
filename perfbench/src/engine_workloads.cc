// The three single-threaded StreamEngine workloads: hot_kernels,
// priced_nvm and few_state. One runner serves all three; each workload
// supplies its roster, its correctness checks and its layer probes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "api/stream_engine.h"
#include "baselines/count_sketch.h"
#include "baselines/stable_sketch.h"
#include "core/fp_estimator.h"
#include "core/sample_and_hold.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/sketch_factory.h"

namespace perfbench {
namespace {

using fewstate::Item;
using fewstate::NvmSpec;
using fewstate::RunReport;
using fewstate::Sketch;
using fewstate::SketchFactory;
using fewstate::StreamEngine;

struct Member {
  SketchFactory factory;
  std::optional<NvmSpec> device;  // live NVM attachment, if any
  std::string layer_metric;       // per-layer ns/item metric, if any
};

struct EngineWorkload {
  uint64_t items = 0;
  std::vector<Member> roster;
  // Correctness checks on a finished engine; returns the largest relative
  // error of its estimates.
  std::function<double(const StreamEngine&, const RunReport&, const Input&,
                       Result*)>
      verify;
  // Runs the probes of the layers this workload exercises.
  std::function<void(const std::vector<SketchFactory>&, const Input&,
                     const Options&, Result*)>
      probe;
  // Per-layer metric prefixes this workload does not exercise.
  std::vector<std::string> idle_layers;
};

struct Rep {
  RepTimings timings;
  double source_s = 0.0;
  RunReport report;
  std::string trace_json;
  std::unique_ptr<StreamEngine> engine;
};

const Sketch& Get(const StreamEngine& engine, const std::string& name) {
  const Sketch* sketch = engine.Find(name);
  if (sketch == nullptr) {
    std::fprintf(stderr, "perfbench: no sketch %s\n", name.c_str());
    std::abort();
  }
  return *sketch;
}

template <typename T>
const T& GetAs(const StreamEngine& engine, const std::string& name) {
  return dynamic_cast<const T&>(Get(engine, name));
}

std::unique_ptr<StreamEngine> BuildEngine(const EngineWorkload& w) {
  auto engine = std::make_unique<StreamEngine>();
  for (const Member& m : w.roster) {
    engine->Register(m.factory.name(), m.factory.Make());
    if (m.device.has_value()) {
      const fewstate::Status status =
          engine->AttachNvm(m.factory.name(), *m.device);
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: AttachNvm: %s\n",
                     status.ToString().c_str());
        std::abort();
      }
    }
  }
  return engine;
}

// Counts that must repeat bit for bit on every repetition of one seed.
std::vector<uint64_t> ExactCounts(const RunReport& report) {
  std::vector<uint64_t> counts{report.items_ingested};
  for (const fewstate::SketchRunReport& s : report.sketches) {
    counts.insert(counts.end(),
                  {s.updates, s.state_changes, s.word_writes,
                   s.suppressed_writes, s.nvm.writes_replayed,
                   s.nvm.max_cell_wear, s.nvm.cache.total_writes,
                   s.nvm.cache.hits, s.nvm.cache.absorbed_writes,
                   s.nvm.cache.writebacks});
  }
  return counts;
}

Rep RunRep(const EngineWorkload& w, const Input& input, bool traced) {
  Rep rep;
  rep.timings.traced = traced;
  std::unique_ptr<StreamEngine> engine;
  ResetHeapPeak();
  for (int i = 0; i < kSetupsPerRep; ++i) {
    engine.reset();
    const Clock::time_point start = Clock::now();
    engine = BuildEngine(w);
    rep.timings.setup_s.push_back(SecondsSince(start));
  }
  fewstate::TraceRecorder trace;
  fewstate::MetricsRegistry metrics;
  if (traced) engine->AttachMetrics(&metrics, &trace);
  TimedSource source(input.items);
  {
    fewstate::TraceSpan span(traced ? &trace : nullptr, "bench_run", "bench");
    const Clock::time_point start = Clock::now();
    rep.report = traced ? engine->Run(source)
                        : engine->Run(fewstate::VectorSource(input.items));
    rep.timings.wall_s = SecondsSince(start);
  }
  rep.timings.heap_mib = HeapPeakMib();
  rep.source_s = traced ? source.seconds() : 0.0;
  if (traced) {
    engine->AttachMetrics(nullptr, nullptr);
    rep.trace_json = trace.ToJson();
  }
  rep.engine = std::move(engine);
  return rep;
}

double SumOver(const RunReport& report,
               uint64_t (*field)(const fewstate::SketchRunReport&)) {
  double total = 0.0;
  for (const fewstate::SketchRunReport& s : report.sketches) {
    total += static_cast<double>(field(s));
  }
  return total;
}

// Per-layer numbers from the traced repetitions and the probes.
void ReportLayers(const EngineWorkload& w, const Options& options,
                  const Input& input, const std::vector<Rep>& reps,
                  Result* result) {
  const double items = static_cast<double>(w.items);
  std::vector<double> source_ns;
  std::vector<double> other_ns;
  std::vector<double> unattributed;
  std::map<std::string, std::vector<double>> sketch_ns;
  for (const Rep& rep : reps) {
    if (!rep.timings.traced) continue;
    double sketches_s = 0.0;
    for (size_t s = 0; s < rep.report.sketches.size(); ++s) {
      const double wall = rep.report.sketches[s].wall_seconds;
      sketches_s += wall;
      if (!w.roster[s].layer_metric.empty()) {
        sketch_ns[w.roster[s].layer_metric].push_back(wall * 1e9 / items);
      }
    }
    // The drain loop's own time: its wall minus the source pulls and the
    // sketch updates it dispatched. What Run spends outside the drain
    // (end-of-run flush, report assembly) is covered by no layer.
    source_ns.push_back(rep.source_s * 1e9 / items);
    other_ns.push_back(
        (rep.report.wall_seconds - rep.source_s - sketches_s) * 1e9 / items);
    unattributed.push_back((rep.timings.wall_s - rep.report.wall_seconds) /
                           rep.timings.wall_s);
  }
  ReportLayer("api.source_ns_per_item", Median(source_ns), result);
  ReportLayer("api.drain_other_ns_per_item", Median(other_ns), result);
  for (const auto& [name, values] : sketch_ns) {
    ReportLayer(name, Median(values), result);
  }
  const double unattributed_frac = Median(unattributed);
  ReportLayer("obs.unattributed_frac", unattributed_frac, result);
  result->Check(std::fabs(unattributed_frac) <= kReconcileTolerance,
                "stage sums reconcile with the Run wall");

  const RunReport& report = reps.front().report;
  const double writes = SumOver(
      report, [](const fewstate::SketchRunReport& s) { return s.word_writes; });
  const double suppressed =
      SumOver(report, [](const fewstate::SketchRunReport& s) {
        return s.suppressed_writes;
      });
  const auto frac = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  ReportLayer("state.word_writes_per_item", writes / items, result);
  ReportLayer("state.suppressed_frac", frac(suppressed, writes + suppressed),
              result);
  double device_writes = 0.0;
  double max_wear = 0.0;
  double cache_total = 0.0;
  double cache_hits = 0.0;
  double cache_absorbed = 0.0;
  double cache_accesses = 0.0;
  double cache_cold = 0.0;
  for (const fewstate::SketchRunReport& s : report.sketches) {
    if (!s.has_nvm) continue;
    device_writes += static_cast<double>(s.nvm.writes_replayed);
    max_wear = std::max(max_wear, static_cast<double>(s.nvm.max_cell_wear));
    if (!s.nvm.cache_enabled) continue;
    const fewstate::CacheStats& c = s.nvm.cache;
    cache_total += static_cast<double>(c.total_writes);
    cache_hits += static_cast<double>(c.hits);
    cache_absorbed += static_cast<double>(c.absorbed_writes);
    cache_cold += static_cast<double>(c.reuse_cold);
    cache_accesses += static_cast<double>(c.reuse_cold);
    for (uint64_t bucket : c.reuse_hist) {
      cache_accesses += static_cast<double>(bucket);
    }
  }
  ReportLayer("nvm.device_writes_per_item", device_writes / items, result);
  ReportLayer("nvm.max_cell_wear", max_wear, result);
  ReportLayer("nvm.cache_hit_frac", frac(cache_hits, cache_total), result);
  ReportLayer("nvm.cache_absorbed_frac", frac(cache_absorbed, cache_total),
              result);
  ReportLayer("nvm.reuse_cold_frac", frac(cache_cold, cache_accesses),
              result);

  std::vector<SketchFactory> roster;
  for (const Member& m : w.roster) roster.push_back(m.factory);
  w.probe(roster, input, options, result);

  std::vector<std::string> idle = w.idle_layers;
  idle.insert(idle.end(), {"shard.", "recover.", "query_"});
  ReportIdleLayers(idle, result);
}

void RunEngineWorkload(const EngineWorkload& w, const Options& options,
                       Result* result) {
  const Input input = MakeZipfInput(kUniverse, kSkew, w.items, options.seed);
  std::vector<Rep> reps;
  std::string last_trace;
  double max_rel_error = 0.0;
  // Traced runs alternate untraced and traced repetitions.
  const int min_reps = options.trace ? 4 : 3;
  RepeatFor(options.seconds, min_reps, 1000, [&](int i) {
    reps.push_back(RunRep(w, input, options.trace && i % 2 == 1));
    Rep& rep = reps.back();
    result->Check(rep.report.items_ingested == w.items,
                  "items_ingested equals the items generated");
    if (i == 0) {
      max_rel_error = w.verify(*rep.engine, rep.report, input, result);
    } else {
      result->Check(ExactCounts(rep.report) == ExactCounts(reps[0].report),
                    "exact counts repeat across repetitions");
    }
    // Keep memory flat however many repetitions fit.
    rep.engine.reset();
    if (!rep.trace_json.empty()) last_trace = std::move(rep.trace_json);
  });

  std::vector<RepTimings> timings;
  for (const Rep& rep : reps) timings.push_back(rep.timings);
  const uint64_t state_changes = static_cast<uint64_t>(SumOver(
      reps.front().report,
      [](const fewstate::SketchRunReport& s) { return s.state_changes; }));
  ReportEndToEnd(timings, w.items, state_changes, max_rel_error, input,
                 result);
  if (options.trace) {
    ReportLayers(w, options, input, reps, result);
    if (!options.trace_out.empty()) {
      WriteTrace(options.trace_out, last_trace, result);
    }
  }
}

void CheckCacheConservation(const RunReport& report, Result* result) {
  for (const fewstate::SketchRunReport& s : report.sketches) {
    if (!s.has_nvm || !s.nvm.cache_enabled) continue;
    const fewstate::CacheStats& c = s.nvm.cache;
    result->Check(c.writebacks_pending == 0 &&
                      c.absorbed_writes + c.writebacks_pending +
                              c.writebacks ==
                          c.total_writes,
                  s.name + " cache conserves absorbed + pending + "
                           "writebacks == total after flush");
    result->Check(c.total_writes == s.word_writes,
                  s.name + " cache total_writes equals accountant "
                           "word_writes");
  }
}

// --- workloads -----------------------------------------------------------

constexpr double kSampleAndHoldEps = 0.3;

EngineWorkload HotKernels() {
  EngineWorkload w;
  w.items = uint64_t{1} << 20;
  fewstate::SampleAndHoldOptions sah;
  sah.universe = kUniverse;
  sah.stream_length_hint = w.items;
  sah.p = 2.0;
  sah.eps = kSampleAndHoldEps;
  sah.seed = 13;
  w.roster = {
      {CountMinFactory("count_min"), {}, "baselines.count_min.ns_per_item"},
      {SketchFactory::Of<fewstate::CountSketch>("count_sketch", size_t{5},
                                                size_t{2048}, uint64_t{12}),
       {},
       "baselines.count_sketch.ns_per_item"},
      {MisraGriesFactory("misra_gries"), {},
       "baselines.misra_gries.ns_per_item"},
      {SpaceSavingFactory("space_saving"), {},
       "baselines.space_saving.ns_per_item"},
      {SketchFactory::Of<fewstate::SampleAndHold>("sample_and_hold", sah),
       {},
       "core.sample_and_hold.ns_per_item"},
  };
  w.verify = [](const StreamEngine& engine, const RunReport&,
                const Input& input, Result* result) {
    CheckNeverUnderestimates(Get(engine, "count_min"), input, "count_min",
                             result);
    CheckMisraGriesRecall(Get(engine, "misra_gries"), input, "misra_gries",
                          result);
    CheckSpaceSavingRecall(Get(engine, "space_saving"), input,
                           "space_saving", result);
    std::vector<Item> held;
    for (const fewstate::HeavyHitter& hh :
         GetAs<fewstate::SampleAndHold>(engine, "sample_and_hold")
             .TrackedItems()) {
      held.push_back(hh.item);
    }
    CheckRecall(held, kSampleAndHoldEps * std::sqrt(input.ExactFp(2.0)),
                input, "sample_and_hold", result);
    double worst = 0.0;
    for (const char* name : {"count_min", "count_sketch", "misra_gries",
                             "space_saving", "sample_and_hold"}) {
      worst = std::max(worst, MaxErrorOnHeavy(Get(engine, name), input));
    }
    return worst;
  };
  w.probe = [](const std::vector<SketchFactory>&, const Input& input,
               const Options&, Result* result) {
    ReportHashProbe(input.items, result);
  };
  w.idle_layers = {"baselines.stable_morris.", "core.fp_estimator.",
                   "common.pstable", "counters.", "state.sink", "nvm."};
  return w;
}

// Items of the input each roster sketch's write trace is captured from
// for the sink and device probes.
constexpr uint64_t kSinkProbeItems = uint64_t{1} << 17;

EngineWorkload PricedNvm() {
  using Leveling = NvmSpec::Leveling;
  EngineWorkload w;
  w.items = uint64_t{1} << 20;
  // CountMin thrashes the 512-word cache, and then the cache's reuse-stack
  // scan is most of its cost and swings with the neighbours' load, beyond
  // any bound a run could hold. So the timed roster caches only the working
  // set that fits (MisraGries); the thrashing CountMin's cached cost is
  // the traced replay probe's `nvm.cached_ns_per_write`.
  w.roster = {
      {CountMinFactory("count_min_direct"),
       DeviceSpec(Leveling::kDirect, false),
       "baselines.count_min.ns_per_item"},
      {CountMinFactory("count_min_hashed"),
       DeviceSpec(Leveling::kHashed, false),
       ""},
      {MisraGriesFactory("misra_gries_cached"),
       DeviceSpec(Leveling::kDirect, true),
       "baselines.misra_gries.ns_per_item"},
  };
  w.verify = [](const StreamEngine& engine, const RunReport& report,
                const Input& input, Result* result) {
    double worst = 0.0;
    for (const char* name : {"count_min_direct", "count_min_hashed"}) {
      CheckNeverUnderestimates(Get(engine, name), input, name, result);
      worst = std::max(worst, MaxErrorOnHeavy(Get(engine, name), input));
    }
    const Sketch& mg = Get(engine, "misra_gries_cached");
    CheckMisraGriesRecall(mg, input, "misra_gries_cached", result);
    worst = std::max(worst, MaxErrorOnHeavy(mg, input));
    CheckCacheConservation(report, result);
    return worst;
  };
  w.probe = [](const std::vector<SketchFactory>& roster, const Input& input,
               const Options&, Result* result) {
    const fewstate::Stream prefix(input.items.begin(),
                                  input.items.begin() + kSinkProbeItems);
    ReportSinkProbes(roster, prefix, result);
  };
  w.idle_layers = {"baselines.count_sketch.", "baselines.space_saving.",
                   "baselines.stable_morris.", "core.", "common.",
                   "counters."};
  return w;
}

constexpr size_t kStableRows = 32;
constexpr double kFpEps = 0.35;

EngineWorkload FewState() {
  using Leveling = NvmSpec::Leveling;
  EngineWorkload w;
  w.items = uint64_t{1} << 16;
  fewstate::FpEstimatorOptions fp;
  fp.universe = kUniverse;
  fp.stream_length_hint = w.items;
  fp.p = 2.0;
  fp.eps = kFpEps;
  fp.seed = 7;
  const NvmSpec direct = DeviceSpec(Leveling::kDirect, false);
  w.roster = {
      {SketchFactory::Of<fewstate::StableSketch>(
           "stable_morris", kStableP, kStableRows, uint64_t{25},
           fewstate::StableSketch::CounterMode::kMorris, kStableMorrisA),
       direct,
       "baselines.stable_morris.ns_per_item"},
      {SketchFactory::Of<fewstate::FpEstimator>("fp_estimator", fp), direct,
       "core.fp_estimator.ns_per_item"},
  };
  w.verify = [](const StreamEngine& engine, const RunReport&,
                const Input& input, Result* result) {
    const Clock::time_point start = Clock::now();
    const double fp_estimate =
        GetAs<fewstate::FpEstimator>(engine, "fp_estimator").EstimateFp();
    result->Info("fp_estimator_query_ms", SecondsSince(start) * 1e3);
    const double fp_error = RelError(fp_estimate, input.ExactFp(2.0));
    result->Check(fp_error <= kFpEps,
                  "fp_estimator F_2 within eps (error " +
                      std::to_string(fp_error) + ")");
    const double stable_error = RelError(
        GetAs<fewstate::StableSketch>(engine, "stable_morris").EstimateFp(),
        input.ExactFp(kStableP));
    return std::max(fp_error, stable_error);
  };
  w.probe = [](const std::vector<SketchFactory>&, const Input&,
               const Options& options, Result* result) {
    ReportCounterProbes(options.seed, result);
  };
  w.idle_layers = {"baselines.count_min.", "baselines.count_sketch.",
                   "baselines.misra_gries.", "baselines.space_saving.",
                   "core.sample_and_hold.", "common.hash", "state.sink",
                   "nvm.direct", "nvm.hashed", "nvm.cached"};
  return w;
}

}  // namespace

void RunHotKernels(const Options& options, Result* result) {
  RunEngineWorkload(HotKernels(), options, result);
}

void RunPricedNvm(const Options& options, Result* result) {
  RunEngineWorkload(PricedNvm(), options, result);
}

void RunFewState(const Options& options, Result* result) {
  RunEngineWorkload(FewState(), options, result);
}

}  // namespace perfbench
