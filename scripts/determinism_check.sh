#!/usr/bin/env bash
# Determinism gate: the parallel sweep pool must be bit-identical to the
# serial path. Runs each figure binary at --jobs 1 and --jobs N and
# byte-diffs stdout plus every CSV artifact; then checks that tracing,
# telemetry and the delay audit leave those bytes unchanged, and that the
# delay audit's trace and model files match across job counts too.
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

# Continuous telemetry must be result-neutral too: the sampler is a
# read-only scheduler event and the metrics registry a set of passive
# counters, so --timeseries plus --metrics_json must leave stdout and every
# CSV byte-identical to the plain capture (DESIGN.md §12).
ts_binary="fig5_network_size"
binary="$build_dir/bench/$ts_binary"
if [[ " $binaries " == *" $ts_binary "* ]]; then
  echo "=== determinism check: $ts_binary plain vs --timeseries + --metrics_json ==="
  baseline="$workdir/$ts_binary.serial"
  telemetered="$workdir/$ts_binary.telemetered"
  "$binary" --reps "$reps" --seconds "$sim_seconds" --jobs 1 \
    --csv "$telemetered" --timeseries "$workdir/ts" \
    --metrics_json "$workdir/tsmetrics" > "$telemetered.out" 2> /dev/null
  if ! diff -u "$baseline.out" "$telemetered.out"; then
    echo "determinism_check: $ts_binary stdout differs with --timeseries" >&2
    fail=1
  fi
  while IFS= read -r csv; do
    if ! cmp -s "$baseline/$csv" "$telemetered/$csv"; then
      echo "determinism_check: $ts_binary CSV $csv differs with --timeseries" >&2
      diff -u "$baseline/$csv" "$telemetered/$csv" || true
      fail=1
    fi
  done < "$baseline.files"
  if ! ls "$workdir"/ts.*.json > /dev/null 2>&1; then
    echo "determinism_check: telemetered run produced no time-series JSON" >&2
    fail=1
  fi
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

  # The audit's own files (per-cell traces and model rows): same file set
  # and same bytes at --jobs 1 and --jobs N. Names differ only in the
  # aud_j1/aud_jN prefix.
  for tag in j1 jN; do
    find "$workdir" -maxdepth 1 -name "aud_$tag.$binary_name.*" -printf '%f\n' |
      sed "s/^aud_$tag\.//" | LC_ALL=C sort > "$audited.$tag.files"
  done
  if ! diff -u "$audited.j1.files" "$audited.jN.files"; then
    echo "determinism_check: $binary_name --delay_audit file sets differ between --jobs 1 and --jobs $jobs" >&2
    fail=1
  fi
  while IFS= read -r name; do
    if ! cmp -s "$workdir/aud_j1.$name" "$workdir/aud_jN.$name"; then
      echo "determinism_check: $binary_name --delay_audit file $name differs between --jobs 1 and --jobs $jobs" >&2
      fail=1
    fi
  done < "$audited.j1.files"
done

if [[ "$fail" != 0 ]]; then
  echo "=== determinism check FAILED ===" >&2
  exit 1
fi
echo "=== determinism check passed: output bit-identical across job counts and observability ==="
