#ifndef FEWSTATE_TESTS_RECORDING_SINK_H_
#define FEWSTATE_TESTS_RECORDING_SINK_H_

// A `WriteSink` that keeps every event it receives, for tests that pin
// the accountant -> sink contract or need a sketch's raw write trace.

#include <cstdint>
#include <vector>

#include "state/write_sink.h"

namespace fewstate {

/// One changed word as a sink saw it: the stream update it belongs to
/// (0 = initialisation) and its logical cell.
struct SinkWrite {
  uint64_t epoch = 0;
  uint64_t cell = 0;

  bool operator==(const SinkWrite& other) const {
    return epoch == other.epoch && cell == other.cell;
  }
};

/// Records writes in arrival order, sums bulk reads, counts resets.
/// Batches take the default `OnWrites` loop, so each record carries the
/// epoch the batch contract assigns it.
struct RecordingSink : public WriteSink {
  std::vector<SinkWrite> writes;
  uint64_t bulk_reads = 0;
  int resets = 0;

  void OnWrite(uint64_t epoch, uint64_t cell) override {
    writes.push_back(SinkWrite{epoch, cell});
  }
  void OnBulkReads(uint64_t count) override { bulk_reads += count; }
  void Reset() override { ++resets; }

  /// The written cells alone, in order.
  std::vector<uint64_t> cells() const {
    std::vector<uint64_t> out;
    out.reserve(writes.size());
    for (const SinkWrite& w : writes) out.push_back(w.cell);
    return out;
  }
};

}  // namespace fewstate

#endif  // FEWSTATE_TESTS_RECORDING_SINK_H_
