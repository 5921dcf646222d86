#ifndef FEWSTATE_STATE_DIRTY_TRACKER_H_
#define FEWSTATE_STATE_DIRTY_TRACKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "state/write_sink.h"

namespace fewstate {

/// \brief A `WriteSink` that records *which* words were touched, not how
/// often — the dirty set behind delta checkpoints and wear-aware
/// checkpoint scheduling.
///
/// Tee one of these alongside a `LiveNvmSink` (or attach it alone) and it
/// accumulates the set of distinct cells written since the last
/// `ClearDirty()`. A delta checkpoint then needs to serialize exactly
/// those words: every cell *not* in the set is guaranteed to hold the same
/// value it held at the previous checkpoint (suppressed writes never reach
/// any sink, so set membership means the value really changed at least
/// once).
///
/// The set is a dense bitmap over cell addresses, an exact count of its
/// set bits, and a summary bitmap with one bit per bitmap word that is
/// nonzero. Memory is 1 bit per logical state word, plus 1/64 bit for the
/// summary: addresses come from `StateAccountant::AllocateCells`, so both
/// are bounded by the sketch's peak allocated words (they grow to the
/// highest cell written and never shrink). Marking a cell is a bit
/// test-and-set with no allocation. `SortedCells` is an ascending scan of
/// the summary and of the nonzero words it names, with no sort, and
/// `ClearDirty` zeroes only those words: a checkpoint costs the dirty set
/// plus 1/4096 of the bitmap, so a large write-frugal sketch still gets
/// near-free delta checkpoints.
///
/// Like every sink, a tracker belongs to one algorithm instance and is not
/// thread-safe.
class DirtyTracker : public WriteSink {
 public:
  DirtyTracker() = default;

  /// \brief Marks `cell` dirty (the epoch is irrelevant: the set answers
  /// "changed since last checkpoint", not "when").
  void OnWrite(uint64_t epoch, uint64_t cell) override {
    (void)epoch;
    Mark(cell);
  }

  /// \brief Marks every cell of the batch dirty.
  void OnWrites(uint64_t base_epoch, const CellWrite* writes,
                size_t n) override {
    (void)base_epoch;
    for (size_t i = 0; i < n; ++i) Mark(writes[i].cell);
  }

  /// \brief Reads never dirty a word; nothing to record.
  void OnBulkReads(uint64_t count) override { (void)count; }

  /// \brief A reset accountant has no pending delta.
  void Reset() override { ClearDirty(); }

  /// \brief Number of distinct words written since the last clear — the
  /// exact size of the next delta checkpoint, and the quantity the
  /// `CheckpointPolicy` dirty-set trigger watches.
  uint64_t dirty_words() const { return dirty_words_; }

  /// \brief True iff `cell` was written since the last clear.
  bool Contains(uint64_t cell) const {
    const uint64_t word = cell >> 6;
    return word < bits_.size() && ((bits_[word] >> (cell & 63)) & 1) != 0;
  }

  /// \brief The dirty set in ascending cell order — deterministic
  /// serialization order for delta checkpoints (so recorded write traces
  /// and wear are reproducible run to run).
  std::vector<uint64_t> SortedCells() const {
    std::vector<uint64_t> cells;
    cells.reserve(static_cast<size_t>(dirty_words_));
    ForEachDirtyWord([&](uint64_t word) {
      for (uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1) {
        cells.push_back(word * 64 +
                        static_cast<uint64_t>(__builtin_ctzll(bits)));
      }
    });
    return cells;
  }

  /// \brief Starts a new checkpoint interval: the set empties, membership
  /// answers "since the checkpoint that just completed".
  void ClearDirty() {
    ForEachDirtyWord([&](uint64_t word) { bits_[word] = 0; });
    std::fill(summary_.begin(), summary_.end(), uint64_t{0});
    dirty_words_ = 0;
  }

 private:
  void Mark(uint64_t cell) {
    const uint64_t word = cell >> 6;
    if (word >= bits_.size()) {
      bits_.resize(static_cast<size_t>(word) + 1, 0);
      summary_.resize(static_cast<size_t>(word >> 6) + 1, 0);
    }
    uint64_t& slot = bits_[word];
    const uint64_t bit = uint64_t{1} << (cell & 63);
    if (slot == 0) summary_[word >> 6] |= uint64_t{1} << (word & 63);
    dirty_words_ += (slot & bit) == 0 ? 1 : 0;
    slot |= bit;
  }

  // Calls `fn(word)` for every nonzero word of `bits_`, ascending.
  template <typename Fn>
  void ForEachDirtyWord(Fn fn) const {
    for (size_t s = 0; s < summary_.size(); ++s) {
      for (uint64_t live = summary_[s]; live != 0; live &= live - 1) {
        fn(static_cast<uint64_t>(s) * 64 +
           static_cast<uint64_t>(__builtin_ctzll(live)));
      }
    }
  }

  std::vector<uint64_t> bits_;     // bit (cell & 63) of word (cell >> 6)
  std::vector<uint64_t> summary_;  // bit w (same layout) set iff bits_[w] != 0
  uint64_t dirty_words_ = 0;
};

}  // namespace fewstate

#endif  // FEWSTATE_STATE_DIRTY_TRACKER_H_
