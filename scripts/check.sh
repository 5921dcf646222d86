#!/usr/bin/env bash
# Local tier-1 verify: configure, build every target, run the full test
# suite. Mirrors .github/workflows/ci.yml.
set -euo pipefail

cd "$(dirname "$0")/.."

# Formatting gate (skipped with a note where clang-format is absent, e.g.
# minimal containers; CI images have it).
if command -v clang-format >/dev/null 2>&1; then
  git ls-files '*.h' '*.cc' '*.cpp' | xargs clang-format --dry-run --Werror
else
  echo "check.sh: clang-format not found; skipping format check" >&2
fi

# Ingestion-API gate: benches and examples must pull through an
# `ItemSource` (`engine.Run(source)` / `alg.Drain(source)`). A direct
# `Consume(<stream>)` call is the legacy materialized path — it caps
# stream length at RAM and must not creep back into the drivers. (Tests
# may use Consume freely; it is the VectorSource shim they exercise.)
if grep -rnE '(\.|->)Consume\(' bench examples; then
  echo "check.sh: direct Consume() in bench/ or examples/ — ingest via an ItemSource (Run/Drain) instead" >&2
  exit 1
fi

# Write-accounting gate: benches and examples must route write pricing
# through the WriteSink pipeline (`set_write_sink` with a LiveNvmSink /
# DirtyTracker / TeeSink). `set_write_log` was the log-only seam; it no
# longer exists and must not creep back as a bypass.
if grep -rnE 'set_write_log\(' bench examples; then
  echo "check.sh: set_write_log() in bench/ or examples/ — attach sinks via set_write_sink() (WriteSink pipeline) instead" >&2
  exit 1
fi

# One-pricing-path gate: wear is priced only as writes happen, by a
# `LiveNvmSink` on the one `NvmCostPath`. The recorded `WriteLog` and its
# `ReplayOnNvm` pricing were a second, bounded and lossy implementation
# of the same costing; they must not come back.
if grep -rnwE 'WriteLog|ReplayOnNvm' src bench examples; then
  echo "check.sh: WriteLog/ReplayOnNvm in src/, bench/ or examples/ — price writes through a live sink (LiveNvmSink) instead" >&2
  exit 1
fi

# Batch-drain gate: both engines drain through one loop, `BatchDrainer`
# (src/api/batch_drainer.cc), which feeds sketches through `UpdateBatch`
# (the vectorized hot path); `StreamingAlgorithm::Drain` (item_source.cc)
# is the only other drain. Neither may call the per-item `Update(` at all
# — sketches without a kernel reach it through the default `UpdateBatch`.
# The engine files themselves must not call either: a second drain loop
# there is the duplication this gate exists to stop.
batch_gate_failed=0
for drain_file in src/api/batch_drainer.cc src/api/item_source.cc; do
  if ! grep -q 'UpdateBatch(' "$drain_file"; then
    echo "check.sh: $drain_file no longer drains through UpdateBatch() — the batch hot path is gone" >&2
    batch_gate_failed=1
  fi
  if grep -nE '\bUpdate\(' "$drain_file"; then
    echo "check.sh: $drain_file calls the per-item Update() — drain through UpdateBatch() only" >&2
    batch_gate_failed=1
  fi
done
for engine_file in src/api/stream_engine.cc src/shard/sharded_engine.cc src/shard/shard_worker.cc; do
  if grep -nE 'UpdateBatch\(|->Update\(' "$engine_file"; then
    echo "check.sh: $engine_file updates sketches itself — drain through BatchDrainer instead of a second loop" >&2
    batch_gate_failed=1
  fi
done
if [ "$batch_gate_failed" -ne 0 ]; then
  exit 1
fi

# Batch-sink gate: `StateAccountant::ApplyBatch` hands a batch's write
# records to the sink in one `OnWrites(` call. A per-record `OnWrite(`
# loop there is the one-virtual-call-per-word fan-out that batch-native
# sinks (bitmap dirty set, chunked wear-leveling maps) exist to avoid.
apply_batch=$(awk '/void ApplyBatch\(/ {on = 1} on {print} on && /^  }$/ {exit}' src/state/state_accountant.h)
if ! printf '%s\n' "$apply_batch" | grep -q 'OnWrites('; then
  echo "check.sh: StateAccountant::ApplyBatch no longer hands records to the sink through OnWrites()" >&2
  exit 1
fi
if printf '%s\n' "$apply_batch" | grep -nE '\bOnWrite\('; then
  echo "check.sh: StateAccountant::ApplyBatch calls the per-record OnWrite() — hand the batch over with one OnWrites() call" >&2
  exit 1
fi

# Flat-summary gate: SpaceSaving is a Stream-Summary in flat arrays with
# no heap traffic after construction. Node-based containers in its header
# are the map-of-sets it replaced (a heap node freed and allocated on
# every increment); they must not come back.
if grep -nE '#include <(map|unordered_map|unordered_set)>' src/baselines/space_saving.h; then
  echo "check.sh: src/baselines/space_saving.h includes a node-based container — keep SpaceSaving in its flat slot/bucket/index arrays" >&2
  exit 1
fi

# Source-error gate: a `FileSource` or `SocketSource` constructed in
# examples/ must have its error channel consulted in the same file
# (`.ok()` or `.status()`). An unopenable trace — or a lossy, truncated,
# or cut network stream — must be a reported failure, never an empty or
# short workload that silently "succeeds".
source_gate_failed=0
while IFS=: read -r file line decl; do
  var=$(printf '%s' "$decl" | sed -nE 's/.*(File|Socket)Source[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*[({].*/\2/p')
  [ -n "$var" ] || continue
  if ! grep -qE "\b${var}\.(ok|status)\(" "$file"; then
    echo "check.sh: $file:$line constructs a source '$var' without checking ${var}.ok()/${var}.status() — a bad trace path or lossy stream must fail loudly" >&2
    source_gate_failed=1
  fi
done < <(grep -rnE '\b(File|Socket)Source[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({]' examples || true)
if [ "$source_gate_failed" -ne 0 ]; then
  exit 1
fi

# Cache-baseline gate: any bench or example that builds a *cached* NvmSpec
# (assigning `.cache.sets` / `.cache =`) must also run and print the
# uncached control in the same file — a cache-tier wear number without its
# uncached baseline next to it is unreviewable. Grep-level: the file must
# mention "uncached" somewhere (a label, a control row, a comment naming
# the control run).
cache_gate_failed=0
while IFS=: read -r file line _; do
  if ! grep -qi 'uncached' "$file"; then
    echo "check.sh: $file:$line configures a cached NvmSpec but the file never runs/prints an uncached control — emit the baseline alongside" >&2
    cache_gate_failed=1
  fi
done < <(grep -rnE '\.cache(\.sets[[:space:]]*=|[[:space:]]*=)' bench examples || true)
if [ "$cache_gate_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 1: every src/ subsystem directory must appear in the README
# and docs/ARCHITECTURE.md subsystem tables — a new subsystem lands with
# its documentation or not at all.
for dir in src/*/; do
  subsystem="${dir%/}"
  for doc in README.md docs/ARCHITECTURE.md; do
    if ! grep -q "$subsystem" "$doc"; then
      echo "check.sh: $subsystem missing from $doc — add it to the subsystem table" >&2
      exit 1
    fi
  done
done

# Docs gate 2: Doxygen-contract lint (no doxygen binary needed). Every
# exported class/struct in the public API headers must carry a `///`
# contract comment immediately above it (a template<> line may sit in
# between). Forward declarations (ending in ';') are exempt.
doc_lint_failed=0
for header in src/api/*.h src/state/*.h src/nvm/*.h src/shard/*.h src/recover/*.h src/obs/*.h src/net/*.h; do
  bad=$(awk '
    /^(class|struct) [A-Z]/ && $0 !~ /;[[:space:]]*$/ {
      if (p1 !~ /^\/\/\// && !(p1 ~ /^template/ && p2 ~ /^\/\/\//)) {
        print FILENAME ":" FNR ": " $0
      }
    }
    { p2 = p1; p1 = $0 }
  ' "$header")
  if [ -n "$bad" ]; then
    echo "check.sh: exported type without a /// contract comment:" >&2
    echo "$bad" >&2
    doc_lint_failed=1
  fi
done
if [ "$doc_lint_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 3: every metric name string used in src/ must have a row in
# the docs/OBSERVABILITY.md catalogue — an undocumented metric is a
# dashboard nobody can read. (Names are literal "fewstate_*" strings;
# dynamic name construction is deliberately not used in src/.)
metric_gate_failed=0
for metric in $(grep -rhoE '"fewstate_[a-z0-9_]+"' src | tr -d '"' | sort -u); do
  if ! grep -q "\`${metric}\`" docs/OBSERVABILITY.md; then
    echo "check.sh: metric ${metric} used in src/ but missing from the docs/OBSERVABILITY.md catalogue" >&2
    metric_gate_failed=1
  fi
done
if [ "$metric_gate_failed" -ne 0 ]; then
  exit 1
fi

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
