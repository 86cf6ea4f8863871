#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark package from
# source (offline), then runs one workload:
#
#   bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# --trace 0 runs the end-to-end binary (tracing off), --trace 1 the
# traced binary. The last line of stdout is the result as one JSON
# object. The two binaries are built separately, so a refactor that
# breaks only the traced one (which reaches below the crate roots)
# leaves the end-to-end numbers reporting.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

trace=0
prev=
for arg in "$@"; do
    [[ $prev == --trace ]] && trace=$arg
    prev=$arg
done
case $trace in
    0) bin=e2e ;;
    1) bin=trace ;;
    *) echo "bench.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

# A relative CARGO_TARGET_DIR is relative to where the caller stands,
# not to benchmark/, where cargo runs (for .cargo/config.toml).
if [[ -n ${CARGO_TARGET_DIR:-} && $CARGO_TARGET_DIR != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
target=${CARGO_TARGET_DIR:-$here/../target/benchmark}

# The layers read these; a value left in the environment would change
# what is measured.
unset CEDAR_JOBS CEDAR_ENGINE CEDAR_CHAOS CEDAR_CHAOS_FS CEDAR_CELL_DEADLINE \
    CEDAR_BUNDLE_DIR CEDAR_BUNDLE_CAP CEDAR_SERVE_ADDR CEDAR_SERVE_QUEUE \
    CEDAR_SERVE_STORE CEDAR_SERVE_WORKERS

# glibc raises its mmap threshold as a program frees large blocks, so
# whether a simulator's arrays come back to the system depends on the
# order two threads happened to free theirs: paper_suite peaked at 22 or
# at 30 MB from one run to the next. Setting the threshold, here to
# glibc's own starting value, switches that adjustment off.
export MALLOC_MMAP_THRESHOLD_=131072

(cd "$here" && cargo build --release --offline --quiet --bin "$bin") >&2
exec "$target/release/$bin" "$@"
