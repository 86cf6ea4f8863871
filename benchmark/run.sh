#!/usr/bin/env bash
# One command for people:
#
#   run.sh [--seed S] [--seconds N] [--workload NAME]   every workload (or one) end to end,
#                                                       then traced; prints every metric by
#                                                       name with its unit
#   run.sh --selfcheck [--seed S] [--seconds N]         the full set twice on one build; fails
#                                                       unless the two sets agree
#
# Exits non-zero when an output check fails, when a binary does not
# build, or on a machine with fewer than two processors (the workloads
# are sized for two).
set -uo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
seed=1
seconds=10
only=
selfcheck=0
while (($#)); do
    case $1 in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --workload) only=$2; shift 2 ;;
        --selfcheck) selfcheck=1; shift ;;
        *) echo "usage: run.sh [--selfcheck] [--seed S] [--seconds N] [--workload NAME]" >&2; exit 2 ;;
    esac
done

if (($(nproc) < 2)); then
    echo "run.sh: the workloads are sized for two processors; this machine has $(nproc)" >&2
    exit 2
fi

# bench.sh and the selfcheck build must agree on one target directory.
if [[ -n ${CARGO_TARGET_DIR:-} && $CARGO_TARGET_DIR != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi

workloads=(paper_suite validate_pool compile_corpus serve_cold serve_replay)
[[ -n $only ]] && workloads=("$only")

out=$here/out
mkdir -p "$out"
status=0

# run_set FILE: every workload with tracing off, then traced; one
# `WORKLOAD TRACE RESULT-JSON` line per run into FILE.
run_set() {
    : >"$1"
    local trace w line
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            if line=$("$here/bench.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) \
                && [[ $line == '{"correct": true,'* ]]; then
                echo "$w $trace $line" >>"$1"
            elif ((trace == 1)) && [[ -z $line ]]; then
                echo "run.sh: $w: per-layer metrics MISSING (the traced binary did not build or run)" >&2
                status=1
            else
                echo "run.sh: $w (trace $trace): output check FAILED" >&2
                status=1
            fi
        done
    done
}

run_set "$out/results-1.txt"
if ((selfcheck)); then
    run_set "$out/results-2.txt"
    ((status == 0)) || exit "$status"
    (cd "$here" && cargo run --release --offline --quiet --bin selfcheck -- \
        "$out/results-1.txt" "$out/results-2.txt") || status=1
fi
exit "$status"
