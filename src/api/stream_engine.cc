#include "api/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "api/batch_drainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fewstate {

AccountantSnapshot AccountantSnapshot::Of(const StateAccountant& a) {
  AccountantSnapshot s;
  s.updates = a.updates();
  s.state_changes = a.state_changes();
  s.word_writes = a.word_writes();
  s.suppressed_writes = a.suppressed_writes();
  s.word_reads = a.word_reads();
  return s;
}

SketchRunReport AccountantSnapshot::DeltaTo(
    const AccountantSnapshot& after) const {
  SketchRunReport d;
  d.updates = after.updates - updates;
  d.state_changes = after.state_changes - state_changes;
  d.word_writes = after.word_writes - word_writes;
  d.suppressed_writes = after.suppressed_writes - suppressed_writes;
  d.word_reads = after.word_reads - word_reads;
  return d;
}

void AppendFormat(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (n > 0) {
    const size_t at = out->size();
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[at], static_cast<size_t>(n) + 1, format, args);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(args);
}

void Accumulate(SketchRunReport* into, const SketchRunReport& delta) {
  into->updates += delta.updates;
  into->state_changes += delta.state_changes;
  into->word_writes += delta.word_writes;
  into->suppressed_writes += delta.suppressed_writes;
  into->word_reads += delta.word_reads;
  into->wall_seconds += delta.wall_seconds;
}

const SketchRunReport* RunReport::Find(const std::string& name) const {
  for (const SketchRunReport& s : sketches) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string RunReport::ToString() const {
  std::string out;
  AppendFormat(&out, "items_ingested=%llu wall_seconds=%.6f\n",
               static_cast<unsigned long long>(items_ingested), wall_seconds);
  for (const SketchRunReport& s : sketches) {
    AppendFormat(
        &out,
        "  %-24s state_changes=%-10llu word_writes=%-10llu "
        "suppressed=%-8llu reads=%-10llu peak_words=%-8llu wall=%.6fs\n",
        s.name.c_str(), static_cast<unsigned long long>(s.state_changes),
        static_cast<unsigned long long>(s.word_writes),
        static_cast<unsigned long long>(s.suppressed_writes),
        static_cast<unsigned long long>(s.word_reads),
        static_cast<unsigned long long>(s.peak_allocated_words),
        s.wall_seconds);
    if (s.has_nvm) {
      AppendFormat(
          &out,
          "  %-24s   nvm: writes=%-10llu max_wear=%-8llu "
          "energy=%.3gnJ replays_to_eol=%.4g\n",
          "", static_cast<unsigned long long>(s.nvm.writes_replayed),
          static_cast<unsigned long long>(s.nvm.max_cell_wear),
          s.nvm.energy_nj, s.nvm.projected_stream_replays_to_failure);
      if (s.nvm.cache_enabled) {
        const CacheStats& c = s.nvm.cache;
        AppendFormat(
            &out,
            "  %-24s   cache: writes=%-10llu hits=%-10llu "
            "absorbed=%-10llu evict_dirty=%-8llu writebacks=%-10llu "
            "reuse_p50<=%llu\n",
            "", static_cast<unsigned long long>(c.total_writes),
            static_cast<unsigned long long>(c.hits),
            static_cast<unsigned long long>(c.absorbed_writes),
            static_cast<unsigned long long>(c.dirty_evictions),
            static_cast<unsigned long long>(c.writebacks),
            static_cast<unsigned long long>(c.ReuseP50()));
      }
    }
  }
  return out;
}

std::string RunReport::CsvHeader() {
  return "label,sketch,updates,state_changes,word_writes,suppressed_writes,"
         "word_reads,peak_words,wall_seconds,nvm_writes,nvm_max_wear,"
         "nvm_energy_nj,nvm_replays_to_eol,ckpt_full,ckpt_delta,"
         "ckpt_published,cache_hits,absorbed_writes,dirty_evictions,"
         "writebacks,cache_reuse_p50";
}

namespace {

// A caller-supplied label (or a sketch name built from one) containing a
// comma, quote or line break would shift or split every downstream CSV
// column; neuter those characters rather than emit a malformed row.
std::string CsvSanitize(const std::string& field) {
  std::string out = field;
  for (char& c : out) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

std::string SketchReportCsvRow(const std::string& label,
                               const std::string& sketch,
                               const SketchRunReport& row) {
  const bool cached = row.has_nvm && row.nvm.cache_enabled;
  std::string line = CsvSanitize(label) + ',' + CsvSanitize(sketch);
  AppendFormat(&line,
               ",%llu,%llu,%llu,%llu,%llu,%llu,%.6f,%llu,%llu,%.6g,"
               "%.6g,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
               static_cast<unsigned long long>(row.updates),
               static_cast<unsigned long long>(row.state_changes),
               static_cast<unsigned long long>(row.word_writes),
               static_cast<unsigned long long>(row.suppressed_writes),
               static_cast<unsigned long long>(row.word_reads),
               static_cast<unsigned long long>(row.peak_allocated_words),
               row.wall_seconds,
               static_cast<unsigned long long>(
                   row.has_nvm ? row.nvm.writes_replayed : 0),
               static_cast<unsigned long long>(
                   row.has_nvm ? row.nvm.max_cell_wear : 0),
               row.has_nvm ? row.nvm.energy_nj : 0.0,
               row.has_nvm ? row.nvm.projected_stream_replays_to_failure
                           : 0.0,
               static_cast<unsigned long long>(row.full_checkpoints),
               static_cast<unsigned long long>(row.delta_checkpoints),
               static_cast<unsigned long long>(row.snapshots_published),
               static_cast<unsigned long long>(cached ? row.nvm.cache.hits
                                                      : 0),
               static_cast<unsigned long long>(
                   cached ? row.nvm.cache.absorbed_writes : 0),
               static_cast<unsigned long long>(
                   cached ? row.nvm.cache.dirty_evictions : 0),
               static_cast<unsigned long long>(
                   cached ? row.nvm.cache.writebacks : 0),
               static_cast<unsigned long long>(
                   cached ? row.nvm.cache.ReuseP50() : 0));
  return line;
}

std::string RunReport::ToCsv(const std::string& label) const {
  std::string out;
  for (const SketchRunReport& s : sketches) {
    out += SketchReportCsvRow(label, s.name, s);
    out += '\n';
  }
  return out;
}

StreamEngine::~StreamEngine() {
  for (Entry& e : entries_) {
    if (e.nvm != nullptr &&
        e.sketch->mutable_accountant()->write_sink() == e.nvm.get()) {
      e.sketch->mutable_accountant()->set_write_sink(nullptr);
    }
  }
}

Sketch* StreamEngine::Register(std::string name,
                               std::unique_ptr<Sketch> sketch) {
  Sketch* raw = sketch.get();
  return RegisterEntry(std::move(name), raw, std::move(sketch));
}

Sketch* StreamEngine::RegisterBorrowed(std::string name, Sketch* sketch) {
  return RegisterEntry(std::move(name), sketch, nullptr);
}

Status StreamEngine::AttachNvm(const std::string& name, const NvmSpec& spec) {
  const Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  for (Entry& e : entries_) {
    if (e.name != name) continue;
    e.nvm = std::make_unique<LiveNvmSink>(spec);
    e.sketch->mutable_accountant()->set_write_sink(e.nvm.get());
    return Status::OK();
  }
  return Status::InvalidArgument("StreamEngine::AttachNvm: no sketch named '" +
                                 name + "'");
}

const LiveNvmSink* StreamEngine::NvmSink(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.nvm.get();
  }
  return nullptr;
}

void StreamEngine::AttachMetrics(MetricsRegistry* metrics,
                                 TraceRecorder* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

Sketch* StreamEngine::RegisterEntry(std::string name, Sketch* borrowed,
                                    std::unique_ptr<Sketch> owned) {
  if (borrowed == nullptr) {
    std::fprintf(stderr, "StreamEngine::Register: null sketch for '%s'\n",
                 name.c_str());
    std::abort();
  }
  if (Find(name) != nullptr) {
    std::fprintf(stderr, "StreamEngine::Register: duplicate name '%s'\n",
                 name.c_str());
    std::abort();
  }
  Entry entry;
  entry.name = std::move(name);
  entry.sketch = borrowed;
  entry.owned = std::move(owned);
  entries_.push_back(std::move(entry));
  return borrowed;
}

std::vector<std::string> StreamEngine::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

Sketch* StreamEngine::Find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.sketch;
  }
  return nullptr;
}

RunReport StreamEngine::Run(const Stream& stream) {
  VectorSource source(stream);
  return Run(source);
}

RunReport StreamEngine::Run(ItemSource& source) {
  using Clock = std::chrono::steady_clock;

  RunReport report;
  report.sketches.resize(entries_.size());

  std::vector<AccountantSnapshot> before(entries_.size());
  BatchDrainer drainer(metrics_, trace_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    before[i] = AccountantSnapshot::Of(entries_[i].sketch->accountant());
    drainer.Add(entries_[i].sketch, entries_[i].name);
  }
  Counter* items_counter =
      metrics_ != nullptr
          ? metrics_->GetCounter("fewstate_items_ingested_total")
          : nullptr;

  // The resident footprint stays at one batch, however long the source
  // runs.
  std::vector<Item> buffer(kDefaultDrainBatchItems);
  const Clock::time_point run_start = Clock::now();
  report.items_ingested = ForEachBatch(
      source, buffer.data(), buffer.size(),
      [&drainer, items_counter](const Item* batch, size_t count) {
        drainer.Drain(batch, count);
        if (items_counter != nullptr) items_counter->Increment(count);
      });
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();

  if (!source.status().ok()) {
    if (metrics_ != nullptr) {
      metrics_->GetCounter("fewstate_source_errors_total")->Increment();
    }
    if (trace_ != nullptr) trace_->Instant("source_error", "source");
  }

  for (size_t i = 0; i < entries_.size(); ++i) {
    const StateAccountant& a = entries_[i].sketch->accountant();
    SketchRunReport& s = report.sketches[i];
    s = before[i].DeltaTo(AccountantSnapshot::Of(a));
    s.name = entries_[i].name;
    s.peak_allocated_words = a.peak_allocated_words();
    s.wall_seconds = drainer.busy_seconds(i);
    if (entries_[i].nvm != nullptr) {
      entries_[i].nvm->Flush();
      s.has_nvm = true;
      s.nvm = entries_[i].nvm->Report();
    }
  }

  last_report_ = report;
  return report;
}

}  // namespace fewstate
