#!/usr/bin/env bash
# Paired parent/change runs of the repo's benchmark (BENCHMARK.json).
#
#   scripts/paired_bench.sh <parent-rev> <workload>[,<workload>...] <seed>...
#
# Exports <parent-rev> into a temporary directory, builds the benchmark there
# and in this checkout (the change: the working tree as it is), each side in
# a target directory of its own — one shared CARGO_TARGET_DIR builds one
# side's `munin-core` for both — and, for each workload of the
# comma-separated list (`matmul,sor,wshared,locks`), runs one pair per seed
# argument of the unmodified benchmark, `--workload <workload> --seed <seed>
# --seconds 9 --trace 0`. A seed may be given more than once. The side that
# runs first alternates from pair to pair, so host drift falls on both sides
# alike; one pair of builds serves the claim and the rows that must not move.
#
# Prints the four end-to-end metrics of each side and pair and then, per
# workload and metric, each side's median and quartiles, how many pairs the
# change won (all four are lower-is-better; a tie counts for neither side)
# and a verdict:
#   gain      the change won at least nine tenths of the pairs and its median
#             is better than the parent's by more than the parent's
#             interquartile range (the rule for claiming a gain);
#   WORSE     the change's median is worse than the parent's by more than the
#             metric's bound in BENCHMARK.json;
#   -         neither.
# The temporary directory, with both target directories, is removed on exit;
# PAIRED_BENCH_DIR=<dir> uses <dir> instead and keeps it, so a second
# invocation reuses both builds. Building the benchmark in this checkout
# rewrites benchmark/Cargo.lock where it names crates the workspace no longer
# has; the file is put back as it was found on exit. The parent's checkout and target directory
# are named by its commit hash: `git archive` gives the files their commit
# time, older than a kept build of another parent, which cargo would then
# take for fresh and run.
set -euo pipefail
cd "$(dirname "$0")/.."

if (($# < 3)); then
    echo "usage: scripts/paired_bench.sh <parent-rev> <workload>[,<workload>...] <seed>..." >&2
    exit 2
fi
parent_rev=$1
IFS=, read -ra workloads <<<"$2"
shift 2
metrics=(virt_elapsed_s wire_msgs wire_bytes setup_s)
declare -A won values

change_src=$(pwd)
if [[ -n ${PAIRED_BENCH_DIR:-} ]]; then
    work=$PAIRED_BENCH_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
fi
cp benchmark/Cargo.lock "$work/Cargo.lock.found"
trap 'cp "$work/Cargo.lock.found" benchmark/Cargo.lock; [[ -n ${PAIRED_BENCH_DIR:-} ]] || rm -rf "$work"' EXIT
parent_hash=$(git rev-parse --verify "$parent_rev^{commit}")
parent_src=$work/parent-$parent_hash
parent_target=$work/target-parent-$parent_hash
if [[ ! -d $parent_src ]]; then
    mkdir -p "$parent_src.tmp"
    git archive "$parent_hash" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi

# Builds side $1 from source directory $2 into target directory $3.
build() {
    echo "building $1 ..." >&2
    CARGO_TARGET_DIR=$3 cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build parent "$parent_src" "$parent_target"
build change "$change_src" "$work/target-change"

# Runs side $1 (source $2, target $3) of workload $4 at seed $5; prints its
# result line.
run() {
    (cd "$2" && CARGO_TARGET_DIR=$3 cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$4" --seed "$5" --seconds 9 --trace 0 2>/dev/null | tail -n 1)
}
# The value of metric $2 in result line $1.
value() { jq -r ".metrics.$2.value" <<<"$1"; }

printf '%-8s %-5s %-6s %-6s' workload pair seed side
printf ' %16s' "${metrics[@]}"
printf ' %7s\n' failed
pairs=0
for workload in "${workloads[@]}"; do
    pair=0
    for seed in "$@"; do
        pairs=$((pairs + 1)) pair=$((pair + 1))
        if ((pairs % 2)); then
            parent=$(run parent "$parent_src" "$parent_target" "$workload" "$seed")
            change=$(run change "$change_src" "$work/target-change" "$workload" "$seed")
        else
            change=$(run change "$change_src" "$work/target-change" "$workload" "$seed")
            parent=$(run parent "$parent_src" "$parent_target" "$workload" "$seed")
        fi
        for side in parent change; do
            line=${!side}
            printf '%-8s %-5s %-6s %-6s' "$workload" "$pair" "$seed" "$side"
            for m in "${metrics[@]}"; do
                printf ' %16s' "$(value "$line" "$m")"
                values[$side.$workload.$m]+=" $(value "$line" "$m")"
            done
            printf ' %7s\n' "$(jq -r '.failed' <<<"$line")"
        done
        for m in "${metrics[@]}"; do
            if awk -v c="$(value "$change" "$m")" -v p="$(value "$parent" "$m")" \
                'BEGIN { exit !(c < p) }'; then
                won[$workload.$m]=$((${won[$workload.$m]:-0} + 1))
            fi
        done
    done
done
# The median, first and third quartile of the numbers in $1 (linear
# interpolation between the sorted values).
quartiles() {
    tr ' ' '\n' <<<"$1" | grep . | sort -g | awk '{ v[NR - 1] = $1 }
        function q(p,  i, f) { i = int(p * (NR - 1)); f = p * (NR - 1) - i
            return v[i] + f * (v[i + 1] - v[i]) }
        END { printf "%.7g %.7g %.7g\n", q(0.5), q(0.25), q(0.75) }'
}
echo
printf '%-8s %-15s %32s %32s %6s  %s\n' workload metric 'parent median [q1, q3]' \
    'change median [q1, q3]' won verdict
for workload in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do
        read -r pm p1 p3 <<<"$(quartiles "${values[parent.$workload.$m]}")"
        read -r cm c1 c3 <<<"$(quartiles "${values[change.$workload.$m]}")"
        bound=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)
        w=${won[$workload.$m]:-0}
        verdict=$(awk -v w="$w" -v n="$#" -v pm="$pm" -v p1="$p1" -v p3="$p3" -v cm="$cm" \
            -v b="$bound" 'BEGIN {
                if (10 * w >= 9 * n && pm - cm > p3 - p1) print "gain"
                else if (cm > pm * (1 + b)) print "WORSE (bound " b ")"
                else print "-" }')
        printf '%-8s %-15s %32s %32s %6s  %s\n' "$workload" "$m" "$pm [$p1, $p3]" \
            "$cm [$c1, $c3]" "$w/$#" "$verdict"
    done
done
