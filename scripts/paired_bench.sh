#!/usr/bin/env bash
# Paired parent/change runs of the repo's benchmark (BENCHMARK.json).
#
#   scripts/paired_bench.sh <parent-rev> <workload> <seed>...
#
# Exports <parent-rev> into a temporary directory, builds the benchmark there
# and in this checkout (the change: the working tree as it is), each side in
# a target directory of its own — one shared CARGO_TARGET_DIR builds one
# side's `munin-core` for both — and runs one pair per seed argument of the
# unmodified benchmark, `--workload <workload> --seed <seed> --seconds 9
# --trace 0`. A seed may be given more than once. The side that runs first
# alternates from pair to pair, so host drift falls on both sides alike.
#
# Prints the four end-to-end metrics of each side and pair and, per metric,
# how many pairs the change won (all four are lower-is-better; a tie counts
# for neither side). The temporary directory, with both target
# directories, is removed on exit; PAIRED_BENCH_DIR=<dir> uses <dir> instead
# and keeps it, so a second invocation reuses both builds.
set -euo pipefail
cd "$(dirname "$0")/.."

if (($# < 3)); then
    echo "usage: scripts/paired_bench.sh <parent-rev> <workload> <seed>..." >&2
    exit 2
fi
parent_rev=$1 workload=$2
shift 2
metrics=(virt_elapsed_s wire_msgs wire_bytes setup_s)
declare -A won

change_src=$(pwd)
if [[ -n ${PAIRED_BENCH_DIR:-} ]]; then
    work=$PAIRED_BENCH_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
parent_src=$work/parent
rm -rf "$parent_src"
mkdir -p "$parent_src"
git archive "$(git rev-parse --verify "$parent_rev^{commit}")" | tar -x -C "$parent_src"

# Builds side $1 from source directory $2 into target directory $3.
build() {
    echo "building $1 ..." >&2
    CARGO_TARGET_DIR=$3 cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build parent "$parent_src" "$work/target-parent"
build change "$change_src" "$work/target-change"

# Runs side $1 (source $2, target $3) at seed $4; prints its result line.
run() {
    (cd "$2" && CARGO_TARGET_DIR=$3 cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$4" --seconds 9 --trace 0 2>/dev/null | tail -n 1)
}
# The value of metric $2 in result line $1.
value() { jq -r ".metrics.$2.value" <<<"$1"; }

printf '%-5s %-6s %-6s' pair seed side
printf ' %16s' "${metrics[@]}"
printf ' %7s\n' failed
pairs=0
for seed in "$@"; do
    pairs=$((pairs + 1))
    if ((pairs % 2)); then
        parent=$(run parent "$parent_src" "$work/target-parent" "$seed")
        change=$(run change "$change_src" "$work/target-change" "$seed")
    else
        change=$(run change "$change_src" "$work/target-change" "$seed")
        parent=$(run parent "$parent_src" "$work/target-parent" "$seed")
    fi
    for side in parent change; do
        line=${!side}
        printf '%-5s %-6s %-6s' "$pairs" "$seed" "$side"
        for m in "${metrics[@]}"; do printf ' %16s' "$(value "$line" "$m")"; done
        printf ' %7s\n' "$(jq -r '.failed' <<<"$line")"
    done
    for m in "${metrics[@]}"; do
        if awk -v c="$(value "$change" "$m")" -v p="$(value "$parent" "$m")" \
            'BEGIN { exit !(c < p) }'; then
            won[$m]=$((${won[$m]:-0} + 1))
        fi
    done
done
for m in "${metrics[@]}"; do
    echo "change won ${won[$m]:-0} of $pairs pairs on $m"
done
