// Layer probes: each times calls into one layer's public functions from
// outside, on inputs prepared before the clock starts. They run only in
// traced runs, after the workload's own repetitions, and only on the
// workload whose layer they measure.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/hashing.h"
#include "common/random.h"
#include "counters/morris_counter.h"
#include "harness.h"
#include "nvm/live_sink.h"
#include "shard/sketch_factory.h"
#include "state/state_accountant.h"
#include "state/write_sink.h"

namespace perfbench {
namespace {

constexpr int kProbePasses = 5;

// Keeps a computed value observable so the timed loop is not elided.
volatile double g_sink = 0.0;

// Median over passes of `pass()`'s wall, in ns per `units`.
template <typename Fn>
double MedianNsPer(double units, Fn&& pass) {
  std::vector<double> walls;
  for (int i = 0; i < kProbePasses; ++i) {
    const Clock::time_point start = Clock::now();
    pass();
    walls.push_back(SecondsSince(start));
  }
  return units > 0 ? Median(walls) * 1e9 / units : 0.0;
}

struct UniformPairs {
  std::vector<double> theta;
  std::vector<double> r;
};

UniformPairs DrawUniformPairs(size_t n, uint64_t seed) {
  fewstate::Rng rng(seed);
  UniformPairs pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.theta.push_back((rng.UniformDoublePositive() - 0.5) * M_PI);
    pairs.r.push_back(rng.UniformDoublePositive());
  }
  return pairs;
}

// A sink that only counts writes: the cheapest possible sink, so the
// update-wall difference it causes is the accountant's fan-out cost.
class CountingSink : public fewstate::WriteSink {
 public:
  void OnWrite(uint64_t, uint64_t) override { ++writes_; }
  uint64_t writes() const { return writes_; }

 private:
  uint64_t writes_ = 0;
};

// A sink that records every written cell, in order.
class CapturingSink : public fewstate::WriteSink {
 public:
  void OnWrite(uint64_t, uint64_t cell) override { cells_.push_back(cell); }
  const std::vector<uint64_t>& cells() const { return cells_; }

 private:
  std::vector<uint64_t> cells_;
};

struct MorrisProbe {
  double ns_per_add = 0.0;
  double change_frac = 0.0;
};

// Per-spec cost of pricing captured write traces on a live device.
struct NvmReplayProbe {
  double direct_ns = 0.0;
  double hashed_ns = 0.0;
  double cached_ns = 0.0;
};

// Update-path cost of one sketch with and without a counting sink, plus
// the write trace it produces.
struct SinkProbe {
  double extra_seconds = 0.0;  // wall with a counting sink minus without
  uint64_t writes = 0;
  std::vector<uint64_t> cells;  // captured write trace
};

double ProbeHashBatchNs(const fewstate::Stream& items) {
  const fewstate::PolynomialHash hash(2, 0x4a5b);
  std::vector<uint64_t> out(fewstate::kDefaultDrainBatchItems);
  return MedianNsPer(static_cast<double>(items.size()), [&] {
    for (size_t off = 0; off < items.size(); off += out.size()) {
      const size_t n = std::min(out.size(), items.size() - off);
      hash.HashBatch(items.data() + off, n, out.data());
      g_sink = g_sink + static_cast<double>(out[0]);
    }
  });
}

double ProbePStableNs(uint64_t seed) {
  const UniformPairs pairs = DrawUniformPairs(1 << 16, seed);
  return MedianNsPer(static_cast<double>(pairs.theta.size()), [&] {
    double total = 0.0;
    for (size_t i = 0; i < pairs.theta.size(); ++i) {
      total += fewstate::PStableFromUniform(kStableP, pairs.theta[i],
                                            pairs.r[i]);
    }
    g_sink = total;
  });
}

MorrisProbe ProbeMorris(uint64_t seed) {
  // One stable_morris-shaped bank: 32 rows, a positive and a negative
  // counter each, fed p-stable weights. Each pass starts from fresh
  // counters, so every pass sees the same growth phase.
  constexpr size_t kRows = 32;
  constexpr size_t kUpdates = 1 << 13;
  const UniformPairs pairs = DrawUniformPairs(kRows * kUpdates, seed);
  std::vector<double> weights(pairs.theta.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] =
        fewstate::PStableFromUniform(kStableP, pairs.theta[i], pairs.r[i]);
  }
  uint64_t changes = 0;
  const double ns = MedianNsPer(static_cast<double>(weights.size()), [&] {
    fewstate::StateAccountant accountant;
    fewstate::Rng rng(seed + 1);
    std::vector<fewstate::MorrisCounter> counters;
    counters.reserve(2 * kRows);
    for (size_t i = 0; i < 2 * kRows; ++i) {
      counters.emplace_back(&accountant, &rng, kStableMorrisA);
    }
    for (size_t u = 0; u < kUpdates; ++u) {
      accountant.BeginUpdate();
      for (size_t r = 0; r < kRows; ++r) {
        const double w = weights[u * kRows + r];
        if (w >= 0.0) {
          counters[2 * r].Add(w);
        } else {
          counters[2 * r + 1].Add(-w);
        }
      }
    }
    changes = 0;
    for (const fewstate::MorrisCounter& c : counters) {
      changes += c.level_changes();
    }
  });
  MorrisProbe probe;
  probe.ns_per_add = ns;
  probe.change_frac =
      static_cast<double>(changes) / static_cast<double>(weights.size());
  return probe;
}

NvmReplayProbe ProbeNvmReplay(
    const std::vector<std::vector<uint64_t>>& traces) {
  using Leveling = fewstate::NvmSpec::Leveling;
  // Each sketch's cells are its own address space, so each trace is
  // priced on its own fresh device, as the engines attach them.
  const auto replay = [&traces](const fewstate::NvmSpec& spec) {
    double writes = 0.0;
    for (const std::vector<uint64_t>& cells : traces) writes += cells.size();
    return MedianNsPer(writes, [&] {
      for (const std::vector<uint64_t>& cells : traces) {
        fewstate::LiveNvmSink sink(spec);
        for (uint64_t cell : cells) sink.OnWrite(0, cell);
        sink.Flush();
      }
    });
  };
  NvmReplayProbe probe;
  probe.direct_ns = replay(DeviceSpec(Leveling::kDirect, false));
  probe.hashed_ns = replay(DeviceSpec(Leveling::kHashed, false));
  probe.cached_ns = replay(DeviceSpec(Leveling::kDirect, true));
  return probe;
}

SinkProbe ProbeSink(const fewstate::SketchFactory& factory,
                    const fewstate::Stream& items) {
  // Feeds `items` in drain-sized batches, as the engines do.
  const auto feed = [&items](fewstate::Sketch* sketch) {
    const size_t batch = fewstate::kDefaultDrainBatchItems;
    const Clock::time_point start = Clock::now();
    for (size_t off = 0; off < items.size(); off += batch) {
      sketch->UpdateBatch(items.data() + off,
                          std::min(batch, items.size() - off));
    }
    return SecondsSince(start);
  };
  SinkProbe probe;
  std::vector<double> bare;
  std::vector<double> counted;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    bare.push_back(feed(factory.Make().get()));
    CountingSink sink;
    const std::unique_ptr<fewstate::Sketch> sketch = factory.Make();
    sketch->mutable_accountant()->set_write_sink(&sink);
    counted.push_back(feed(sketch.get()));
    sketch->mutable_accountant()->set_write_sink(nullptr);
    probe.writes = sink.writes();
  }
  probe.extra_seconds = Median(counted) - Median(bare);
  CapturingSink capture;
  const std::unique_ptr<fewstate::Sketch> sketch = factory.Make();
  sketch->mutable_accountant()->set_write_sink(&capture);
  feed(sketch.get());
  sketch->mutable_accountant()->set_write_sink(nullptr);
  probe.cells = capture.cells();
  return probe;
}

}  // namespace

fewstate::NvmSpec DeviceSpec(fewstate::NvmSpec::Leveling leveling,
                             bool cached) {
  fewstate::NvmSpec spec;
  spec.config.num_cells = 1 << 16;
  spec.config.endurance = 1000000;
  spec.leveling = leveling;
  spec.hash_seed = 5;
  if (cached) {
    // 16 sets x 4 ways x 8-word lines = 512 words, default reuse tracking.
    spec.cache.sets = 16;
    spec.cache.ways = 4;
    spec.cache.line_words = 8;
  }
  return spec;
}

void ReportHashProbe(const fewstate::Stream& items, Result* result) {
  ReportLayer("common.hash_batch_ns_per_item", ProbeHashBatchNs(items),
              result);
}

void ReportCounterProbes(uint64_t seed, Result* result) {
  ReportLayer("common.pstable_ns_per_call", ProbePStableNs(seed), result);
  const MorrisProbe morris = ProbeMorris(seed);
  ReportLayer("counters.morris_add_ns_per_call", morris.ns_per_add, result);
  ReportLayer("counters.morris_change_frac", morris.change_frac, result);
}

void ReportSinkProbes(const std::vector<fewstate::SketchFactory>& roster,
                      const fewstate::Stream& items, Result* result) {
  double extra_s = 0.0;
  double writes = 0.0;
  std::vector<std::vector<uint64_t>> traces;
  for (const fewstate::SketchFactory& factory : roster) {
    SinkProbe probe = ProbeSink(factory, items);
    extra_s += probe.extra_seconds;
    writes += static_cast<double>(probe.writes);
    traces.push_back(std::move(probe.cells));
  }
  ReportLayer("state.sink_ns_per_write",
              writes > 0 ? extra_s * 1e9 / writes : 0.0, result);
  const NvmReplayProbe replay = ProbeNvmReplay(traces);
  ReportLayer("nvm.direct_ns_per_write", replay.direct_ns, result);
  ReportLayer("nvm.hashed_ns_per_write", replay.hashed_ns, result);
  ReportLayer("nvm.cached_ns_per_write", replay.cached_ns, result);
}

}  // namespace perfbench
