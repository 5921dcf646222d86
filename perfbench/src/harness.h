// Shared pieces of the fewstate benchmark: timing and statistics, the
// seeded input generator with its exact reference, the result record, the
// shared roster members and checks, and the layer-metric table.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/item_source.h"
#include "api/sketch.h"
#include "common/random.h"
#include "common/stream_types.h"
#include "nvm/live_sink.h"
#include "shard/sketch_factory.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Nearest-rank quantile `q` in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// Interquartile range of `v` as a share of its median (0 when empty).
double RelativeIqr(const std::vector<double>& v);

/// Starts a new heap peak window at the live heap bytes of now.
void ResetHeapPeak();

/// Peak live heap bytes since the last `ResetHeapPeak`, above the bytes
/// live at that reset, in MiB (counted in heap_counter.cc).
double HeapPeakMib();

// Every workload's input: Zipf(1.1) over 2^20 items.
constexpr uint64_t kUniverse = uint64_t{1} << 20;
constexpr double kSkew = 1.1;
// The few_state roster's stable_morris sketch: p-stable parameter and
// Morris growth. The counters and p-stable probes price the same calls.
constexpr double kStableP = 0.5;
constexpr double kStableMorrisA = 0.2;
// Engine set-ups timed per repetition; setup_s is the median of all.
constexpr int kSetupsPerRep = 16;
// Relative error is scored on the heaviest items, the ones point queries
// exist to answer.
constexpr size_t kErrorItems = 16;
// Traced runs require the per-layer stage sums to cover the Run wall to
// within this share.
constexpr double kReconcileTolerance = 0.05;

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path (traced runs only)
};

/// Everything a run reports: named metrics with units, correctness checks
/// and operation counts, and free-form facts printed for the reader.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value);
  /// Counts one checked operation; a false `ok` is a failure and prints
  /// `what` to stderr.
  void Check(bool ok, const std::string& what);
  /// Counts operations that are not checks (queries), `failed` of them
  /// failed.
  void Ops(uint64_t attempted, uint64_t failed);

  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Human-readable lines, then one JSON line (the last line printed).
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, double> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A seeded Zipf stream plus its exact frequency reference. The input is
/// built before any timing starts; engines see it only through an
/// `ItemSource`.
struct Input {
  uint64_t universe = 0;
  fewstate::Stream items;
  std::vector<uint32_t> freq;           // exact count of every item
  std::vector<fewstate::Item> by_freq;  // distinct items, count descending
  std::vector<fewstate::Item> probes;   // recovery check keys: heavy, random
  double gen_seconds = 0.0;

  /// Exact F_p = sum over items of f^p.
  double ExactFp(double p) const;
};

/// Zipf(`skew`) over [0, `universe`), `length` items, from `seed`.
Input MakeZipfInput(uint64_t universe, double skew, uint64_t length,
                    uint64_t seed);

/// Borrowing `VectorSource` that also times every `NextBatch` call — the
/// `api.source` layer of traced runs.
class TimedSource : public fewstate::ItemSource {
 public:
  explicit TimedSource(const fewstate::Stream& stream) : inner_(stream) {}
  size_t NextBatch(fewstate::Item* out, size_t cap) override;
  std::optional<uint64_t> SizeHint() const override {
    return inner_.SizeHint();
  }
  double seconds() const { return seconds_; }

 private:
  fewstate::VectorSource inner_;
  double seconds_ = 0.0;
};

/// A uniform sample of at most `capacity` values from a series of unknown
/// length (reservoir sampling), so a fast reader's logs stay a fixed size.
template <typename T>
class Reservoir {
 public:
  // Reserves up front, so adding never allocates inside a measured window.
  explicit Reservoir(size_t capacity) : capacity_(capacity), rng_(1) {
    values_.reserve(capacity);
  }

  void Add(const T& value) {
    ++seen_;
    if (values_.size() < capacity_) {
      values_.push_back(value);
    } else {
      const uint64_t slot = rng_.UniformInt(seen_);
      if (slot < capacity_) values_[slot] = value;
    }
  }

  const std::vector<T>& values() const { return values_; }
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  fewstate::Rng rng_;
  std::vector<T> values_;
  uint64_t seen_ = 0;
};

/// The user-visible timings of one repetition.
struct RepTimings {
  std::vector<double> setup_s;  // every engine set-up of the repetition
  double wall_s = 0.0;          // the Run wall
  double heap_mib = 0.0;        // the engine's peak heap, set-up included
  bool traced = false;
};

/// Reports the end-to-end metrics over all repetitions (medians; the heap
/// peak over untraced ones, since tracing buffers are not the engine's),
/// plus `obs.trace_overhead_frac` when some repetitions were traced.
/// `state_changes` is the roster's exact total over one repetition.
void ReportEndToEnd(const std::vector<RepTimings>& reps, uint64_t items,
                    uint64_t state_changes, double max_rel_error,
                    const Input& input, Result* result);

/// Relative error of `estimate` against a positive `truth`.
double RelError(double estimate, double truth);

/// Largest relative error of `sketch`'s point estimates over the
/// `kErrorItems` heaviest items.
double MaxErrorOnHeavy(const fewstate::Sketch& sketch, const Input& input);

/// Checks that `sketch` never estimates an item of the stream below its
/// exact count.
void CheckNeverUnderestimates(const fewstate::Sketch& sketch,
                              const Input& input, const std::string& name,
                              Result* result);

/// The item identities `sketch` tracks.
std::vector<fewstate::Item> Candidates(
    const fewstate::CandidateEnumerable& sketch);

/// Checks that every item counted more than `threshold` times is in
/// `tracked`.
void CheckRecall(const std::vector<fewstate::Item>& tracked,
                 double threshold, const Input& input,
                 const std::string& name, Result* result);

/// Roster members shared by the workloads, configured once:
/// CountMin(5x2048), MisraGries(256), SpaceSaving(1024).
fewstate::SketchFactory CountMinFactory(const std::string& name);
fewstate::SketchFactory MisraGriesFactory(const std::string& name);
fewstate::SketchFactory SpaceSavingFactory(const std::string& name);

/// Recall at each summary's guarantee: MisraGries(k) holds every item
/// above m/(k+1), SpaceSaving(k) every item above m/k.
void CheckMisraGriesRecall(const fewstate::Sketch& sketch, const Input& input,
                           const std::string& name, Result* result);
void CheckSpaceSavingRecall(const fewstate::Sketch& sketch,
                            const Input& input, const std::string& name,
                            Result* result);

/// Calls `rep(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_reps` ran, or `max_reps` ran. Returns the count.
int RepeatFor(double seconds, int min_reps, int max_reps,
              const std::function<void(int)>& rep);

/// The simulated device every priced sketch writes to; `cached` puts the
/// 512-word DRAM cache tier in front of it.
fewstate::NvmSpec DeviceSpec(fewstate::NvmSpec::Leveling leveling,
                             bool cached);

/// Layer probes (see probes.cc); each workload runs the ones for the
/// layers it exercises.
/// `common.hash_batch_ns_per_item`, over `items`.
void ReportHashProbe(const fewstate::Stream& items, Result* result);
/// `common.pstable_ns_per_call`, `counters.morris_add_ns_per_call` and
/// `counters.morris_change_frac`, on draws made from `seed`.
void ReportCounterProbes(uint64_t seed, Result* result);
/// `state.sink_ns_per_write` and `nvm.{direct,hashed,cached}_ns_per_write`,
/// on fresh replicas of `roster` fed `items`.
void ReportSinkProbes(const std::vector<fewstate::SketchFactory>& roster,
                      const fewstate::Stream& items, Result* result);

/// Reports per-layer metric `name` with the unit the layer table gives it
/// (aborts on a name missing from the table).
void ReportLayer(const std::string& name, double value, Result* result);

/// Reports as 0 every per-layer metric whose name starts with one of
/// `prefixes` and that the workload did not measure: the layers it
/// bypasses.
void ReportIdleLayers(const std::vector<std::string>& prefixes,
                      Result* result);

/// Writes a traced run's Chrome trace JSON to `path` (a failed write is a
/// failed check).
void WriteTrace(const std::string& path, const std::string& json,
                Result* result);

/// Durations in ms of every closed span named `name` in a Chrome trace
/// produced by `fewstate::TraceRecorder::ToJson`.
std::vector<double> SpanDurationsMs(const std::string& trace_json,
                                    const std::string& name);

/// Workload entry points. Each fills `result` and returns normally;
/// failures are recorded as failed checks.
void RunHotKernels(const Options& options, Result* result);
void RunPricedNvm(const Options& options, Result* result);
void RunDurableServing(const Options& options, Result* result);
void RunFewState(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
