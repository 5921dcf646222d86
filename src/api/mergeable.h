#ifndef FEWSTATE_API_MERGEABLE_H_
#define FEWSTATE_API_MERGEABLE_H_

#include <string>

#include "api/sketch.h"
#include "common/status.h"

namespace fewstate {

// state/dirty_tracker.h
class DirtyTracker;

/// \brief A `Sketch` whose state can absorb another replica's state, or be
/// overwritten by it word for word — the replica contract behind sharding,
/// checkpointing and recovery.
///
/// Merging is what turns a single-threaded summary into a sharded one: a
/// stream partitioned across S identically-configured replicas is
/// equivalent (exactly, for the linear sketches; up to the usual summary
/// error, for the counter-based ones) to one replica that saw the whole
/// stream, provided the replicas can be combined afterwards. `ShardedEngine`
/// relies on this contract.
///
/// Restoring *copies* a replica instead of combining it: after a
/// successful restore the destination is bitwise-equivalent to the source
/// and continues the stream exactly as the source would — including any
/// pseudo-random cursors (a Morris counter's future coin flips are state
/// too). That equivalence is what makes kill-and-recover provable:
/// snapshot = RestoreFrom(live), crash, rebuilt = RestoreFrom(snapshot) +
/// trace tail ≡ the uninterrupted replica.
///
/// Contract:
///  * `MergeFrom(other)` folds `other`'s state into `*this`;
///    `RestoreFrom(source)` overwrites `*this` with `source`'s state. The
///    source must be the same concrete type with an identical
///    configuration (same dimensions *and* same seed, so hash functions
///    agree); anything else — the destination itself included — returns
///    `InvalidArgument` and leaves `*this` untouched.
///  * Mutations are algorithmic state changes and are routed through the
///    destination's `StateAccountant`: one merge or restore opens one
///    accounting epoch (`BeginUpdate`), so it contributes at most 1 to the
///    paper's per-update state-change metric while every touched word
///    counts toward `word_writes` — the wear a deployed device actually
///    pays to consolidate shards or persist a checkpoint.
///  * A restore writes every word with value-change suppression, so
///    restoring onto the *previous* checkpoint prices exactly the words
///    that changed since, and restoring an unchanged replica prices zero
///    writes: delta checkpoints cost O(changed), not O(state).
///  * A non-null `dirty` passed to `RestoreFrom` is the caller's promise
///    that every cell outside it is unchanged in `source` since this
///    destination last restored from it, so only dirty cells need
///    scanning. Priced writes are the same with or without it.
///  * The source is read-only; its accountant sees reads at most.
///
/// Structures whose state is neither mergeable nor exposable word for word
/// (the sample-and-hold family — their reservoirs and dyadic-age
/// maintenance are tied to one stream prefix) simply do not derive from
/// this class; `IsMergeable` reports the property statically, by type.
class MergeableSketch : public Sketch {
 public:
  ~MergeableSketch() override = default;

  /// \brief Folds `other` (same concrete type and configuration) into this
  /// sketch. On error the destination is unchanged.
  virtual Status MergeFrom(const Sketch& other) = 0;

  /// \brief Overwrites this sketch's state (words and pseudo-random
  /// cursors) with `source`'s; `dirty`, when non-null, bounds the cells
  /// that can differ. On error the destination is unchanged.
  virtual Status RestoreFrom(const Sketch& source,
                             const DirtyTracker* dirty = nullptr) = 0;
};

/// \brief Shared `MergeFrom`/`RestoreFrom` prologue: resolves `other` as a
/// `ConcreteT` configured like `self` (`ConcreteT::SameConfig`) and
/// rejects `self` as its own source. Returns nullptr with `*status` set on
/// failure, naming `op` in the error text:
///
///   Status status;
///   const auto* src = SourceAs(this, other, "CountMin::MergeFrom", &status);
///   if (src == nullptr) return status;
template <typename ConcreteT>
const ConcreteT* SourceAs(const ConcreteT* self, const Sketch& other,
                          const char* op, Status* status) {
  const auto* src = dynamic_cast<const ConcreteT*>(&other);
  const char* error = nullptr;
  if (src == nullptr) {
    error = "source is not the destination's concrete type";
  } else if (src == self) {
    error = "source is the destination itself";
  } else if (!self->SameConfig(*src)) {
    error = "incompatible configuration";
  }
  if (error != nullptr) {
    *status = Status::InvalidArgument(std::string(op) + ": " + error);
    return nullptr;
  }
  *status = Status::OK();
  return src;
}

/// \brief True iff `sketch` implements the merge/restore contract.
inline bool IsMergeable(const Sketch& sketch) {
  return dynamic_cast<const MergeableSketch*>(&sketch) != nullptr;
}

/// \brief Downcast to the merge/restore interface; nullptr for
/// non-mergeable sketches.
inline MergeableSketch* AsMergeable(Sketch* sketch) {
  return dynamic_cast<MergeableSketch*>(sketch);
}

}  // namespace fewstate

#endif  // FEWSTATE_API_MERGEABLE_H_
