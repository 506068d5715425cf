#!/usr/bin/env bash
# The benchmark's one command. Builds the harness from source, then:
#
#   run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload in one process (so peak_rss_mb is that
#       workload's); the last line of stdout is the result object.
#   run.sh all [--seeds "1 2 3"] [--seconds <s>] [--results <file.jsonl>]
#       every workload, untraced then traced, once per seed; one line per
#       run goes to the results file (default benches/e2e/out/results.jsonl).
#       Exits non-zero if any run failed a check.
#   run.sh calibrate <runs.jsonl> [<second-set.jsonl>]
#   run.sh compare <parent.jsonl> <change.jsonl>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Run from the repository root: BENCHMARK.json, the default output directory
# and a relative CARGO_TARGET_DIR are all named from there.
cd "$here/../.."

e2e() {
    cargo run --quiet --release --offline --manifest-path benches/e2e/Cargo.toml -- "$@"
}

if [[ "${1:-}" != "all" ]]; then
    e2e "$@"
    exit
fi
shift

seeds="1"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
results="benches/e2e/out/results.jsonl"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seeds) seeds="$2" ;;
        --seconds) seconds="$2" ;;
        --results) results="$2" ;;
        *) echo "run.sh all: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

mkdir -p "$(dirname "$results")"
: > "$results"
runs=0
failed=0
for seed in $seeds; do
    for workload in gen_local gen_ppx train_tau infer_tau; do
        for trace in 0 1; do
            runs=$((runs + 1))
            echo "== $workload seed=$seed trace=$trace" >&2
            if out="$(e2e --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")"; then
                :
            else
                failed=$((failed + 1))
            fi
            echo "$out" | sed '$d'
            line="$(echo "$out" | tail -n 1)"
            if [[ "$line" == \{* ]]; then
                printf '{"workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
                    "$workload" "$seed" "$trace" "$line" >> "$results"
            fi
        done
    done
done
printf '{"runs": %d, "failed": %d, "results": "%s", "claim": null}\n' "$runs" "$failed" "$results"
[[ "$failed" -eq 0 ]]
