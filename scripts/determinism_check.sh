#!/usr/bin/env bash
# Determinism gate: the parallel sweep pool AND the sharded engine must be
# bit-identical to the serial path. Runs each figure binary at --jobs 1,
# --jobs N and --shards N and byte-diffs stdout plus every CSV artifact.
#
#   scripts/determinism_check.sh [build-dir]
#
# Environment overrides:
#   DCRD_DET_BINARY   single figure binary (overrides the default set)
#   DCRD_DET_BINARIES space-separated list
#                     (default "fig5_network_size fig2_full_mesh ext7_gray_failures ext8_broker_churn")
#   DCRD_DET_REPS     repetitions          (default 2)
#   DCRD_DET_SECONDS  simulated seconds    (default 120)
#   DCRD_DET_JOBS     parallel job count   (default 8)
#   DCRD_DET_SHARDS   engine shard count   (default 8)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
binaries="${DCRD_DET_BINARIES:-fig5_network_size fig2_full_mesh ext7_gray_failures ext8_broker_churn}"
if [[ -n "${DCRD_DET_BINARY:-}" ]]; then
  binaries="$DCRD_DET_BINARY"
fi
reps="${DCRD_DET_REPS:-2}"
sim_seconds="${DCRD_DET_SECONDS:-120}"
jobs="${DCRD_DET_JOBS:-8}"
shards="${DCRD_DET_SHARDS:-8}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail=0
for binary_name in $binaries; do
  binary="$build_dir/bench/$binary_name"
  if [[ ! -x "$binary" ]]; then
    echo "determinism_check: $binary not found; build first" >&2
    exit 2
  fi

  echo "=== determinism check: $binary_name --reps $reps --seconds $sim_seconds, --jobs 1 vs --jobs $jobs ==="

  serial="$workdir/$binary_name.serial"
  parallel="$workdir/$binary_name.parallel"
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
    --csv "$serial" > "$serial.out"
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs "$jobs" \
    --csv "$parallel" > "$parallel.out"

  if ! diff -u "$serial.out" "$parallel.out"; then
    echo "determinism_check: $binary_name stdout differs between --jobs 1 and --jobs $jobs" >&2
    fail=1
  fi

  # CSVs: same file set, same bytes.
  (cd "$serial" && ls -1 | LC_ALL=C sort) > "$serial.files"
  (cd "$parallel" && ls -1 | LC_ALL=C sort) > "$parallel.files"
  if ! diff -u "$serial.files" "$parallel.files"; then
    echo "determinism_check: $binary_name CSV file sets differ" >&2
    fail=1
  fi
  while IFS= read -r csv; do
    if ! cmp -s "$serial/$csv" "$parallel/$csv"; then
      echo "determinism_check: $binary_name CSV $csv differs" >&2
      diff -u "$serial/$csv" "$parallel/$csv" || true
      fail=1
    fi
  done < "$serial.files"
done

# Sharded engine: running one scenario across N engine shards with
# conservative lookahead windows (--shards N, DESIGN.md §12) must not
# change a single output byte relative to the classic single-thread
# engine. The --jobs 1 captures from the loop above are the baseline;
# --jobs 1 --shards N isolates the sharding layer from the sweep pool.
echo "=== determinism check: --shards 1 vs --shards $shards ==="
for binary_name in $binaries; do
  binary="$build_dir/bench/$binary_name"
  serial="$workdir/$binary_name.serial"
  sharded="$workdir/$binary_name.sharded"

  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
    --shards "$shards" --csv "$sharded" > "$sharded.out" 2> /dev/null

  if ! diff -u "$serial.out" "$sharded.out"; then
    echo "determinism_check: $binary_name stdout differs between --shards 1 and --shards $shards" >&2
    fail=1
  fi
  (cd "$sharded" && ls -1 | LC_ALL=C sort) > "$sharded.files"
  if ! diff -u "$serial.files" "$sharded.files"; then
    echo "determinism_check: $binary_name CSV file sets differ with --shards $shards" >&2
    fail=1
  fi
  while IFS= read -r csv; do
    if ! cmp -s "$serial/$csv" "$sharded/$csv"; then
      echo "determinism_check: $binary_name CSV $csv differs with --shards $shards" >&2
      diff -u "$serial/$csv" "$sharded/$csv" || true
      fail=1
    fi
  done < "$serial.files"
done

# Observability must be result-neutral: a traced run (full JSONL trace +
# metrics registry) must produce byte-identical stdout and CSVs to an
# untraced one. The traces themselves go to per-cell files and stderr only.
trace_binary="fig2_full_mesh"
binary="$build_dir/bench/$trace_binary"
if [[ -x "$binary" ]]; then
  echo "=== determinism check: $trace_binary untraced vs --trace_out ==="
  plain="$workdir/$trace_binary.plain"
  traced="$workdir/$trace_binary.traced"
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs "$jobs" \
    --csv "$plain" > "$plain.out"
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs "$jobs" \
    --csv "$traced" --trace_out "$workdir/trace" \
    --metrics_json "$workdir/metrics" > "$traced.out"

  if ! diff -u "$plain.out" "$traced.out"; then
    echo "determinism_check: $trace_binary stdout differs when traced" >&2
    fail=1
  fi
  (cd "$plain" && ls -1 | LC_ALL=C sort) > "$plain.files"
  while IFS= read -r csv; do
    if ! cmp -s "$plain/$csv" "$traced/$csv"; then
      echo "determinism_check: $trace_binary CSV $csv differs when traced" >&2
      diff -u "$plain/$csv" "$traced/$csv" || true
      fail=1
    fi
  done < "$plain.files"
  if ! ls "$workdir"/trace.*.jsonl > /dev/null 2>&1; then
    echo "determinism_check: traced run produced no trace files" >&2
    fail=1
  fi
else
  echo "determinism_check: $binary not found; skipping trace phase" >&2
fi

# Shard-execution observability must be result-neutral as well: the
# profiler reads wall clocks and drained exchange messages only, and the
# per-shard trace recorders stamp but never steer, so --shard_profile plus
# --trace_out must leave stdout and every CSV byte-identical to the
# unprofiled captures above — at --shards 1 and --shards N alike
# (DESIGN.md §13). The profile JSON and the .shardK.jsonl files are the
# only new artifacts.
prof_binary="fig5_network_size"
binary="$build_dir/bench/$prof_binary"
if [[ " $binaries " == *" $prof_binary "* ]]; then
  echo "=== determinism check: $prof_binary unprofiled vs --shard_profile ==="
  for pair in "s1 1 $workdir/$prof_binary.serial" \
              "sN $shards $workdir/$prof_binary.sharded"; do
    read -r tag run_shards baseline <<< "$pair"
    profiled="$workdir/$prof_binary.profiled.$tag"
    "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
      --shards "$run_shards" --csv "$profiled" \
      --shard_profile "$workdir/prof.$tag" \
      --trace_out "$workdir/ptrace.$tag" > "$profiled.out" 2> /dev/null
    if ! diff -u "$baseline.out" "$profiled.out"; then
      echo "determinism_check: $prof_binary stdout differs with --shard_profile ($tag)" >&2
      fail=1
    fi
    while IFS= read -r csv; do
      if ! cmp -s "$baseline/$csv" "$profiled/$csv"; then
        echo "determinism_check: $prof_binary CSV $csv differs with --shard_profile ($tag)" >&2
        diff -u "$baseline/$csv" "$profiled/$csv" || true
        fail=1
      fi
    done < "$workdir/$prof_binary.serial.files"
  done
  if ! ls "$workdir"/prof.sN.*.json > /dev/null 2>&1; then
    echo "determinism_check: profiled run produced no shard-profile JSON" >&2
    fail=1
  fi
  if ! ls "$workdir"/ptrace.sN.*.shard*.jsonl > /dev/null 2>&1; then
    echo "determinism_check: sharded traced run produced no per-shard trace files" >&2
    fail=1
  fi
else
  echo "determinism_check: $prof_binary not in binary set; skipping shard-profile phase" >&2
fi

# Continuous telemetry must be result-neutral too: the sampler is a
# read-only scheduler event and the metrics registry a set of passive
# counters, so --timeseries plus --metrics_json must leave stdout and every
# CSV byte-identical to the plain captures — at --shards 1 and --shards N
# alike (DESIGN.md §14). Stronger still, the sharded run's *merged*
# telemetry files must be byte-identical to the single-shard run's: kSum
# series because owner-only deltas partition the work, kReplicated series
# because the control plane replays identically on every shard.
ts_binary="fig5_network_size"
binary="$build_dir/bench/$ts_binary"
if [[ " $binaries " == *" $ts_binary "* ]]; then
  echo "=== determinism check: $ts_binary plain vs --timeseries + --metrics_json ==="
  for pair in "s1 1 $workdir/$ts_binary.serial" \
              "sN $shards $workdir/$ts_binary.sharded"; do
    read -r tag run_shards baseline <<< "$pair"
    telemetered="$workdir/$ts_binary.telemetered.$tag"
    "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
      --shards "$run_shards" --csv "$telemetered" \
      --timeseries "$workdir/ts.$tag" \
      --metrics_json "$workdir/tsmetrics.$tag" > "$telemetered.out" 2> /dev/null
    if ! diff -u "$baseline.out" "$telemetered.out"; then
      echo "determinism_check: $ts_binary stdout differs with --timeseries ($tag)" >&2
      fail=1
    fi
    while IFS= read -r csv; do
      if ! cmp -s "$baseline/$csv" "$telemetered/$csv"; then
        echo "determinism_check: $ts_binary CSV $csv differs with --timeseries ($tag)" >&2
        diff -u "$baseline/$csv" "$telemetered/$csv" || true
        fail=1
      fi
    done < "$workdir/$ts_binary.serial.files"
  done
  if ! ls "$workdir"/ts.s1.*.json > /dev/null 2>&1; then
    echo "determinism_check: telemetered run produced no time-series JSON" >&2
    fail=1
  fi
  for s1_file in "$workdir"/ts.s1.*.json "$workdir"/tsmetrics.s1.*.json; do
    sN_file="${s1_file/.s1./.sN.}"
    if ! cmp -s "$s1_file" "$sN_file"; then
      echo "determinism_check: merged telemetry $(basename "$sN_file") differs from the single-shard capture" >&2
      fail=1
    fi
  done
else
  echo "determinism_check: $ts_binary not in binary set; skipping telemetry phase" >&2
fi

# Same bar for the delay-provenance capture: --delay_audit redirects the
# trace and adds the Theorem-1 model rows, so stdout and CSVs must stay
# byte-identical to the unaudited runs above — serial and parallel alike.
echo "=== determinism check: unaudited vs --delay_audit ==="
for binary_name in $binaries; do
  binary="$build_dir/bench/$binary_name"
  audited="$workdir/$binary_name.audited"
  serial="$workdir/$binary_name.serial"
  parallel="$workdir/$binary_name.parallel"

  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
    --csv "$audited.j1" --delay_audit "$workdir/aud_j1.$binary_name" \
    > "$audited.j1.out" 2> /dev/null
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs "$jobs" \
    --csv "$audited.jN" --delay_audit "$workdir/aud_jN.$binary_name" \
    > "$audited.jN.out" 2> /dev/null

  for pair in "j1 $serial" "jN $parallel"; do
    tag="${pair%% *}"
    baseline="${pair#* }"
    if ! diff -u "$baseline.out" "$audited.$tag.out"; then
      echo "determinism_check: $binary_name stdout differs with --delay_audit ($tag)" >&2
      fail=1
    fi
    while IFS= read -r csv; do
      if ! cmp -s "$baseline/$csv" "$audited.$tag/$csv"; then
        echo "determinism_check: $binary_name CSV $csv differs with --delay_audit ($tag)" >&2
        diff -u "$baseline/$csv" "$audited.$tag/$csv" || true
        fail=1
      fi
    done < "$baseline.files"
  done

  if ! ls "$workdir/aud_jN.$binary_name".model.*.jsonl > /dev/null 2>&1; then
    echo "determinism_check: $binary_name --delay_audit produced no model rows" >&2
    fail=1
  fi
done

if [[ "$fail" != 0 ]]; then
  echo "=== determinism check FAILED ===" >&2
  exit 1
fi
echo "=== determinism check passed: output bit-identical across job and shard counts ==="
