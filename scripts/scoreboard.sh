#!/usr/bin/env bash
# The ROADMAP scoreboard, counted from the tree.
#
#   scripts/scoreboard.sh           print the counts
#   scripts/scoreboard.sh --check   also fail if a count exceeds its ceiling
#
# Ceilings live beside this script in scoreboard.ceilings, one "name value"
# per line. They only ever go down: lower a ceiling in the PR that lowers
# the count, so ROADMAP aim 2 ("the same numbers from the least code") cannot
# drift back up unnoticed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of a file before its first top-level `#[cfg(test)]`: the non-test code.
non_test() { awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$@"; }
non_test_lines() {
    local total=0 f
    for f in "$@"; do
        total=$((total + $(non_test "$f" | wc -l)))
    done
    echo "$total"
}
# Non-test code of a set of files, comment lines dropped.
code_of() {
    local f
    for f in "$@"; do non_test "$f"; done | grep -v '^[[:space:]]*//' || true
}

runtime=crates/core/src/runtime
mapfile -t core_files < <(find crates/core/src -name '*.rs' | sort)
mapfile -t program_files < <(find src crates -name '*.rs' -path '*/src/*' -not -path 'crates/shims/*' | sort)
mapfile -t runtime_files < <(find "$runtime" -name '*.rs' | sort)
mapfile -t handler_files < <(find "$runtime" -name '*.rs' ! -name coherence.rs | sort)
mapfile -t workspace_files < <(find src crates examples -name '*.rs' | sort)

dsmmsg_variants=$(awk '/^pub enum DsmMsg/ { on = 1; next } on && /^}/ { exit }
    on && /^    [A-Z][A-Za-z]*( \{|\(|,)/ { n++ } END { print n + 0 }' crates/core/src/msg.rs)
munin_knobs=$(code_of "${program_files[@]}" | grep -oE '"MUNIN_[A-Z_]+"' | sort -u | wc -l)
ci_named_steps=$(grep -c '^      - name:' .github/workflows/ci.yml)
server_flush_lines=$(non_test_lines "$runtime/server.rs" "$runtime/flush.rs")
core_lines=$(non_test_lines "${core_files[@]}")
instant_now_reads=$(code_of "${runtime_files[@]}" | grep -c 'Instant::now()' || true)
workspace_lines=$(non_test_lines "${workspace_files[@]}")
design_bytes=$(wc -c < DESIGN.md)
# A line that writes an entry's protocol state: rights, ownership, the dirty
# and stable-sharing bits, the copyset, the owner hint, the write set.
state_write='state\.(rights|owned|dirty|copyset_fixed|phase_voided) *\|?= *[^=]|probable_owner *= *[^=]'
state_write+='|\.copyset *= *[^=]|copyset\.(insert|remove)\(|mem::take\(&mut [a-z]*\.copyset'
state_write+='|set_entry_rights\(|mark_written\(|write_set\b'
writes_in() { code_of "$@" | grep -cE "$state_write" || true; }
dir_state_writes=$(writes_in "${handler_files[@]}")
# Each handler file that still writes any, with its count.
state_writers=$(for f in "${handler_files[@]}"; do
    n=$(writes_in "$f")
    if ((n > 0)); then printf '%s %d, ' "${f##*/}" "$n"; fi
done)
state_writers=${state_writers%, }

names=(dsmmsg_variants munin_knobs ci_named_steps server_flush_lines core_lines instant_now_reads workspace_lines design_bytes dir_state_writes)
what=(
    '`DsmMsg` variants'
    'distinct `MUNIN_*` names read by non-test code'
    'named CI steps'
    'non-test lines of server.rs + flush.rs'
    'non-test lines of crates/core/src'
    '`Instant::now()` reads in protocol code (crates/core/src/runtime)'
    'non-test lines of src, crates (shims and benches too) and examples'
    'bytes of DESIGN.md'
    "runtime lines outside coherence.rs writing entry protocol state (${state_writers:-in no file})"
)

failed=0
for i in "${!names[@]}"; do
    name=${names[$i]}
    count=${!name}
    ceiling=$(awk -v n="$name" '$1 == n { print $2 }' scripts/scoreboard.ceilings)
    printf '%-20s %6d  (ceiling %6s)  %s\n' "$name" "$count" "${ceiling:-none}" "${what[$i]}"
    if [[ ${1:-} == --check ]] && { [[ -z $ceiling ]] || ((count > ceiling)); }; then
        echo "scoreboard: $name = $count exceeds its ceiling (${ceiling:-none})" >&2
        failed=1
    fi
done
exit "$failed"
