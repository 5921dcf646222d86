#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "baselines/count_min.h"
#include "baselines/misra_gries.h"
#include "baselines/space_saving.h"
#include "common/random.h"
#include "stream/generators.h"

namespace perfbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double RelativeIqr(const std::vector<double>& v) {
  const double median = Median(v);
  if (median == 0.0) return 0.0;
  return (Quantile(v, 0.75) - Quantile(v, 0.25)) / median;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Result::Info(const std::string& name, double value) {
  info_[name] = value;
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Result::Ops(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

// JSON has no NaN or infinity; a non-finite value becomes null, which the
// runner rejects.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Result::Print() const {
  for (const auto& [name, info] : info_) {
    std::printf("info   %-36s %.6g\n", name.c_str(), info);
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-36s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"attempted\":" + std::to_string(attempted_) +
                     ",\"failed\":" + std::to_string(failed_) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "},\"info\":{";
  first = true;
  for (const auto& [name, info] : info_) {
    if (!first) json += ",";
    first = false;
    json += "\"" + name + "\":" + JsonNumber(info);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Input::ExactFp(double p) const {
  double total = 0.0;
  for (uint32_t f : freq) {
    if (f > 0) total += std::pow(static_cast<double>(f), p);
  }
  return total;
}

Input MakeZipfInput(uint64_t universe, double skew, uint64_t length,
                    uint64_t seed) {
  // Keys the recovered replica is checked on: heavy ones, and random ones
  // (mostly rare or absent) that exercise the miss side of each estimate.
  constexpr size_t kHeavyProbes = 1024;
  constexpr size_t kRandomProbes = 1024;
  const Clock::time_point start = Clock::now();
  Input input;
  input.universe = universe;
  input.items = fewstate::ZipfStream(universe, skew, length, seed);
  input.freq.assign(universe, 0);
  for (fewstate::Item item : input.items) ++input.freq[item];
  for (uint64_t item = 0; item < universe; ++item) {
    if (input.freq[item] > 0) input.by_freq.push_back(item);
  }
  std::stable_sort(input.by_freq.begin(), input.by_freq.end(),
                   [&input](fewstate::Item a, fewstate::Item b) {
                     return input.freq[a] > input.freq[b];
                   });
  const size_t heavy = std::min(kHeavyProbes, input.by_freq.size());
  input.probes.assign(input.by_freq.begin(), input.by_freq.begin() + heavy);
  fewstate::Rng rng(seed ^ 0x7e57ab1e5eedULL);
  for (size_t i = 0; i < kRandomProbes; ++i) {
    input.probes.push_back(rng.UniformInt(universe));
  }
  input.gen_seconds = SecondsSince(start);
  return input;
}

size_t TimedSource::NextBatch(fewstate::Item* out, size_t cap) {
  const Clock::time_point start = Clock::now();
  const size_t got = inner_.NextBatch(out, cap);
  seconds_ += SecondsSince(start);
  return got;
}

int RepeatFor(double seconds, int min_reps, int max_reps,
              const std::function<void(int)>& rep) {
  const Clock::time_point start = Clock::now();
  int reps = 0;
  while (reps < max_reps &&
         (reps < min_reps || SecondsSince(start) < seconds)) {
    rep(reps);
    ++reps;
  }
  return reps;
}

void ReportEndToEnd(const std::vector<RepTimings>& reps, uint64_t items,
                    uint64_t state_changes, double max_rel_error,
                    const Input& input, Result* result) {
  std::vector<double> throughput;
  std::vector<double> setups;
  std::vector<double> heap;
  std::vector<double> traced_tput;
  std::vector<double> untraced_tput;
  for (const RepTimings& rep : reps) {
    const double tput = static_cast<double>(items) / rep.wall_s / 1e6;
    throughput.push_back(tput);
    (rep.traced ? traced_tput : untraced_tput).push_back(tput);
    setups.insert(setups.end(), rep.setup_s.begin(), rep.setup_s.end());
    if (!rep.traced) heap.push_back(rep.heap_mib);
  }
  result->Metric("throughput_mitems_s", Median(throughput), "Mitems/s");
  result->Metric("setup_s", Median(setups), "s");
  result->Metric("peak_heap_mib", Median(heap), "MiB");
  result->Metric("state_changes_per_kitem",
                 static_cast<double>(state_changes) * 1e3 /
                     static_cast<double>(items),
                 "changes/kitem");
  ReportLayer("max_rel_error", max_rel_error, result);
  if (!traced_tput.empty()) {
    ReportLayer("obs.trace_overhead_frac",
                1.0 - Median(traced_tput) / Median(untraced_tput), result);
  }
  result->Info("repetitions", static_cast<double>(reps.size()));
  result->Info("throughput_rel_iqr", RelativeIqr(throughput));
  result->Info("input_gen_s", input.gen_seconds);
  result->Info("items", static_cast<double>(items));
}

double RelError(double estimate, double truth) {
  return std::fabs(estimate - truth) / truth;
}

double MaxErrorOnHeavy(const fewstate::Sketch& sketch, const Input& input) {
  double worst = 0.0;
  for (size_t i = 0; i < std::min(kErrorItems, input.by_freq.size()); ++i) {
    const fewstate::Item item = input.by_freq[i];
    worst = std::max(worst, RelError(sketch.EstimateFrequency(item),
                                     input.freq[item]));
  }
  return worst;
}

void CheckNeverUnderestimates(const fewstate::Sketch& sketch,
                              const Input& input, const std::string& name,
                              Result* result) {
  size_t under = 0;
  for (fewstate::Item item : input.by_freq) {
    if (sketch.EstimateFrequency(item) < input.freq[item]) ++under;
  }
  result->Check(under == 0, name + " never underestimates (" +
                                std::to_string(under) + " items under)");
}

std::vector<fewstate::Item> Candidates(
    const fewstate::CandidateEnumerable& sketch) {
  std::vector<fewstate::Item> candidates;
  sketch.AppendCandidates(&candidates);
  return candidates;
}

void CheckRecall(const std::vector<fewstate::Item>& tracked_items,
                 double threshold, const Input& input,
                 const std::string& name, Result* result) {
  const std::unordered_set<fewstate::Item> tracked(tracked_items.begin(),
                                                   tracked_items.end());
  size_t missed = 0;
  size_t heavy = 0;
  for (fewstate::Item item : input.by_freq) {
    if (input.freq[item] <= threshold) break;
    ++heavy;
    if (tracked.count(item) == 0) ++missed;
  }
  result->Check(missed == 0, name + " heavy-hitter recall (" +
                                 std::to_string(missed) + " of " +
                                 std::to_string(heavy) + " missed)");
}

namespace {

constexpr size_t kSketchDepth = 5;
constexpr size_t kSketchWidth = 2048;
constexpr size_t kMisraGriesK = 256;
constexpr size_t kSpaceSavingK = 1024;

}  // namespace

fewstate::SketchFactory CountMinFactory(const std::string& name) {
  return fewstate::SketchFactory::Of<fewstate::CountMin>(
      name, kSketchDepth, kSketchWidth, uint64_t{11});
}

fewstate::SketchFactory MisraGriesFactory(const std::string& name) {
  return fewstate::SketchFactory::Of<fewstate::MisraGries>(name,
                                                           kMisraGriesK);
}

fewstate::SketchFactory SpaceSavingFactory(const std::string& name) {
  return fewstate::SketchFactory::Of<fewstate::SpaceSaving>(name,
                                                            kSpaceSavingK);
}

void CheckMisraGriesRecall(const fewstate::Sketch& sketch, const Input& input,
                           const std::string& name, Result* result) {
  const auto& mg = dynamic_cast<const fewstate::MisraGries&>(sketch);
  CheckRecall(Candidates(mg),
              static_cast<double>(input.items.size()) /
                  static_cast<double>(mg.capacity() + 1),
              input, name, result);
}

void CheckSpaceSavingRecall(const fewstate::Sketch& sketch,
                            const Input& input, const std::string& name,
                            Result* result) {
  const auto& ss = dynamic_cast<const fewstate::SpaceSaving&>(sketch);
  CheckRecall(Candidates(ss),
              static_cast<double>(input.items.size()) /
                  static_cast<double>(ss.capacity()),
              input, name, result);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports (BENCHMARK.json lists the
// same names).
constexpr LayerMetric kLayerMetrics[] = {
    {"api.source_ns_per_item", "ns"},
    {"api.drain_other_ns_per_item", "ns"},
    {"common.hash_batch_ns_per_item", "ns"},
    {"common.pstable_ns_per_call", "ns"},
    {"baselines.count_min.ns_per_item", "ns"},
    {"baselines.count_sketch.ns_per_item", "ns"},
    {"baselines.misra_gries.ns_per_item", "ns"},
    {"baselines.space_saving.ns_per_item", "ns"},
    {"baselines.stable_morris.ns_per_item", "ns"},
    {"core.sample_and_hold.ns_per_item", "ns"},
    {"core.fp_estimator.ns_per_item", "ns"},
    {"counters.morris_add_ns_per_call", "ns"},
    {"counters.morris_change_frac", "frac"},
    {"state.sink_ns_per_write", "ns"},
    {"state.word_writes_per_item", "writes/item"},
    {"state.suppressed_frac", "frac"},
    {"nvm.direct_ns_per_write", "ns"},
    {"nvm.hashed_ns_per_write", "ns"},
    {"nvm.cached_ns_per_write", "ns"},
    {"nvm.cache_hit_frac", "frac"},
    {"nvm.cache_absorbed_frac", "frac"},
    {"nvm.reuse_cold_frac", "frac"},
    {"nvm.device_writes_per_item", "writes/item"},
    {"nvm.max_cell_wear", "writes"},
    {"shard.ingest_s", "s"},
    {"shard.merge_s", "s"},
    {"shard.backpressure_waits", "count"},
    {"shard.queue_peak_depth", "batches"},
    {"shard.item_skew", "ratio"},
    {"shard.acquire_us_p50", "us"},
    {"shard.point_query_ns", "ns"},
    {"shard.topk_us_p50", "us"},
    {"shard.inconsistent_cut_frac", "frac"},
    {"shard.staleness_p50_items", "items"},
    {"recover.capture_ms_p50", "ms"},
    {"recover.publish_ms_p50", "ms"},
    {"recover.delta_frac", "frac"},
    {"recover.ckpt_words_per_item", "words/item"},
    {"recover.restore_ms", "ms"},
    {"recover.replay_ms", "ms"},
    {"recover.recovery_ms", "ms"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.unattributed_frac", "frac"},
    {"max_rel_error", "frac"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"query_kqps", "kq/s"},
};

// Reads the value after `key` in `text` starting at `from`; npos-safe.
bool FieldAfter(const std::string& text, size_t from, size_t limit,
                const std::string& key, std::string* value) {
  const size_t at = text.find(key, from);
  if (at == std::string::npos || at >= limit) return false;
  const size_t begin = at + key.size();
  size_t end = begin;
  while (end < limit && text[end] != ',' && text[end] != '"' &&
         text[end] != '}') {
    ++end;
  }
  *value = text.substr(begin, end - begin);
  return true;
}

}  // namespace

void ReportIdleLayers(const std::vector<std::string>& prefixes,
                      Result* result) {
  for (const LayerMetric& m : kLayerMetrics) {
    for (const std::string& prefix : prefixes) {
      const bool in_layer = std::string(m.name).rfind(prefix, 0) == 0;
      if (in_layer && !result->Has(m.name)) {
        result->Metric(m.name, 0.0, m.unit);
      }
    }
  }
}

void ReportLayer(const std::string& name, double value, Result* result) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) {
      result->Metric(name, value, m.unit);
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
  std::abort();
}

void WriteTrace(const std::string& path, const std::string& json,
                Result* result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  const bool written =
      out != nullptr &&
      std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (out != nullptr && std::fclose(out) != 0) {
    result->Check(false, "trace closed: " + path);
  }
  result->Check(written, "trace written to " + path);
}

std::vector<double> SpanDurationsMs(const std::string& trace_json,
                                    const std::string& name) {
  // Events are flat objects in recording order; spans pair LIFO per
  // thread, so a per-thread stack of open begin times matches them.
  std::map<std::string, std::vector<double>> open;  // tid -> begin stack
  std::vector<double> out;
  const std::string needle = "{\"name\":\"" + name + "\",";
  for (size_t at = trace_json.find(needle); at != std::string::npos;
       at = trace_json.find(needle, at + 1)) {
    const size_t end = trace_json.find('}', at);
    std::string phase;
    std::string ts;
    std::string tid;
    if (!FieldAfter(trace_json, at, end, "\"ph\":\"", &phase) ||
        !FieldAfter(trace_json, at, end, "\"ts\":", &ts) ||
        !FieldAfter(trace_json, at, end, "\"tid\":", &tid)) {
      continue;
    }
    if (phase == "B") {
      open[tid].push_back(std::stod(ts));
    } else if (phase == "E" && !open[tid].empty()) {
      out.push_back((std::stod(ts) - open[tid].back()) / 1000.0);
      open[tid].pop_back();
    }
  }
  return out;
}

}  // namespace perfbench
