#!/usr/bin/env bash
# Parent-identity gate for result-neutral changes (performance work,
# refactors, deletions): every figure, trace, metrics file, time series and
# the crash-churn dcrdsim table must be byte-identical between a build of
# the parent revision and a build of the change.
#
#   scripts/parity_check.sh PARENT_BUILD [BUILD]
#
# PARENT_BUILD is the build tree of the reference revision (for example a
# Release build of `git archive HEAD`, made before committing); BUILD is the
# build tree under test (default: build). Runs, in both:
#   * fig2-fig8, ext1-ext8 and ablation_dcrd at --reps 1 --seconds 120
#     --jobs 4: stdout, and every --csv file of the ten binaries that write
#     CSVs (fig7, fig8, ext2, ext4, ext6 and ablation_dcrd write stdout
#     only and reject --csv);
#   * fig2 (all five routers) and ext8 with --trace_out, --metrics_json and
#     --timeseries: stdout and every per-cell file;
#   * fig2 with --delay_audit: stdout and every per-cell trace and model-row
#     file (DCRD's rows recompute their list values from the tables);
#   * dcrdsim --all on a 30-broker overlay with broker crashes, peer-death
#     detection, the invariant checker and subscription churn: stdout;
#   * dcrdsim --all on that overlay for 300 simulated seconds at m = 2 with
#     persistency mode, delay jitter, gray failures, link serialization,
#     crashes, peer-death detection, the invariant checker and churn:
#     stdout. Its copies get second delivered transmissions that can
#     overtake the first, retries get parked, and crashes void dedup memory
#     while packets are still in flight;
#   * dcrdsim DCRD in distributed (gossip) mode on that overlay for 60
#     simulated seconds with broker crashes, peer-death detection and the
#     invariant checker: stdout;
#   * dcrdsim DCRD in distributed mode on that overlay for 600 simulated
#     seconds without crashes: stdout. Some of its budget-constrained
#     gossips cycle for most of an epoch (DESIGN.md §3b), so this run
#     repeats the gossip's update rule more often than any other step.
# Exits 0 when everything matches, 1 naming the first file that differs
# (the outputs are kept for inspection), 2 on bad usage or a missing
# binary. A change that deliberately moves figure bytes fails this gate by
# design; it needs the claims checks instead.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/parity_check.sh PARENT_BUILD [BUILD]" >&2
  exit 2
fi
parent_build="$1"
build="${2:-build}"

figures="fig2_full_mesh fig3_degree5 fig4_connectivity fig5_network_size
         fig6_qos_requirement fig7_delay_cdf fig8_loss_retx
         ext1_node_failures ext2_persistence ext3_congestion ext4_redundancy
         ext5_churn ext6_control_plane ext7_gray_failures ext8_broker_churn
         ablation_dcrd"
csv_writers="fig2_full_mesh fig3_degree5 fig4_connectivity fig5_network_size
             fig6_qos_requirement ext1_node_failures ext3_congestion
             ext5_churn ext7_gray_failures ext8_broker_churn"
scale=(--reps 1 --seconds 120 --jobs 4)
dcrdsim_args=(--all --nodes 30 --degree 5 --pf 0.06 --seconds 120
              --broker_mtbf 30 --peer_death --check_invariants --churn 0.2
              --monitor_s 20)
dcrdsim_lossy_args=(--all --nodes 30 --degree 5 --pf 0.08 --seconds 300
                    --m 2 --persistence --jitter 0.5 --gray 0.2
                    --serialization_ms 2 --broker_mtbf 30 --peer_death
                    --check_invariants --churn 0.2 --monitor_s 20)
distributed_args=(--router DCRD --distributed --nodes 30 --degree 5 --pf 0.06
                  --seconds 60 --broker_mtbf 30 --peer_death
                  --check_invariants --monitor_s 20)
distributed_long_args=(--router DCRD --distributed --nodes 30 --degree 5
                       --pf 0.06 --seconds 600)

for dir in "$parent_build" "$build"; do
  for name in $figures; do
    if [[ ! -x "$dir/bench/$name" ]]; then
      echo "parity_check: $dir/bench/$name not found; build first" >&2
      exit 2
    fi
  done
  if [[ ! -x "$dir/examples/dcrdsim" ]]; then
    echo "parity_check: $dir/examples/dcrdsim not found; build first" >&2
    exit 2
  fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# run SIDE STEP BINARY ARGS...: runs BINARY (relative to the side's build
# tree) with stdout in SIDE/STEP.out and every file it writes under
# SIDE/STEP/; stderr goes to SIDE/STEP.err, which is not compared.
run() {
  local side="$1" step="$2" binary="$3"
  shift 3
  local root="$parent_build"
  [[ "$side" == change ]] && root="$build"
  local out="$workdir/$side"
  mkdir -p "$out/$step"
  if ! "$root/$binary" "$@" > "$out/$step.out" 2> "$out/$step.err"; then
    echo "parity_check: $root/$binary failed ($side, $step):" >&2
    tail -n 20 "$out/$step.err" >&2
    trap - EXIT
    echo "parity_check: outputs kept in $workdir" >&2
    exit 2
  fi
}

# compare STEP: the two sides' stdout and file sets must match byte for
# byte; the first difference ends the check.
compare() {
  local step="$1" name
  local files=("$step.out")
  for side in parent change; do
    (cd "$workdir/$side" && find "$step" -type f | LC_ALL=C sort) \
      > "$workdir/$side.$step.files"
  done
  if ! cmp -s "$workdir/parent.$step.files" "$workdir/change.$step.files"; then
    echo "parity_check: $step writes a different set of files:" >&2
    diff "$workdir/parent.$step.files" "$workdir/change.$step.files" >&2 || true
    fail_kept
  fi
  mapfile -t -O 1 files < "$workdir/parent.$step.files"
  for name in "${files[@]}"; do
    if ! cmp -s "$workdir/parent/$name" "$workdir/change/$name"; then
      echo "parity_check: $name differs" >&2
      diff "$workdir/parent/$name" "$workdir/change/$name" | head -n 20 >&2 || true
      fail_kept
    fi
  done
  echo "parity_check: $step identical (${#files[@]} files)"
}

fail_kept() {
  trap - EXIT
  echo "parity_check: FAILED; outputs kept in $workdir" >&2
  exit 1
}

for name in $figures; do
  for side in parent change; do
    if [[ " $(echo $csv_writers) " == *" $name "* ]]; then
      run "$side" "$name" "bench/$name" "${scale[@]}" \
        --csv "$workdir/$side/$name"
    else
      run "$side" "$name" "bench/$name" "${scale[@]}"
    fi
  done
  compare "$name"
done

for name in fig2_full_mesh ext8_broker_churn; do
  step="$name.traced"
  for side in parent change; do
    prefix="$workdir/$side/$step/obs"
    run "$side" "$step" "bench/$name" "${scale[@]}" --trace_out "$prefix" \
      --metrics_json "$prefix" --timeseries "$prefix"
  done
  compare "$step"
done

step=fig2_full_mesh.audited
for side in parent change; do
  run "$side" "$step" bench/fig2_full_mesh "${scale[@]}" \
    --delay_audit "$workdir/$side/$step/aud"
done
compare "$step"

for side in parent change; do
  run "$side" dcrdsim examples/dcrdsim "${dcrdsim_args[@]}"
done
compare dcrdsim

for side in parent change; do
  run "$side" dcrdsim.lossy examples/dcrdsim "${dcrdsim_lossy_args[@]}"
done
compare dcrdsim.lossy

for side in parent change; do
  run "$side" dcrdsim.distributed examples/dcrdsim "${distributed_args[@]}"
done
compare dcrdsim.distributed

for side in parent change; do
  run "$side" dcrdsim.distributed_600s examples/dcrdsim \
    "${distributed_long_args[@]}"
done
compare dcrdsim.distributed_600s

echo "parity_check: passed; every output is byte-identical to $parent_build"
