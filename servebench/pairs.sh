#!/usr/bin/env bash
# Same-host parent-vs-change runs of the served-pipeline benchmark.
#
#   servebench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [SEEDS...]
#
# PARENT_DIR and CHANGE_DIR are two source trees (for example a
# `git archive` of the parent commit and the working tree). Both must hold
# the same servebench/ and BENCHMARK.json: copy the change's benchmark
# into the parent first. Each seed runs once per side, alternating which
# side goes first; stdout is appended to PARENT_DIR/servebench-results.txt
# and CHANGE_DIR/servebench-results.txt, the inputs of compare.py.
# The run length is read from BENCHMARK.json, so both sides measure alike.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [SEEDS...]" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
shift 3
seeds=("$@")
if [ "${#seeds[@]}" -eq 0 ]; then
    seeds=(1 2 3 4 5 6 7 8 9 10)
fi
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$change/BENCHMARK.json")
if ! cmp -s "$parent/BENCHMARK.json" "$change/BENCHMARK.json" \
    || ! diff -r -q -x target "$parent/servebench" "$change/servebench" >/dev/null; then
    echo "the two trees hold different benchmark code; copy the change's servebench/ and BENCHMARK.json into $parent" >&2
    exit 2
fi

run() {
    (cd "$1" && CARGO_TARGET_DIR=.bench_build cargo run --release --quiet --offline \
        --manifest-path servebench/Cargo.toml -- \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) \
        >>"$1/servebench-results.txt"
}

i=0
for seed in "${seeds[@]}"; do
    if [ $((i % 2)) -eq 0 ]; then
        run "$parent" "$seed"
        run "$change" "$seed"
    else
        run "$change" "$seed"
        run "$parent" "$seed"
    fi
    i=$((i + 1))
done
echo "python3 servebench/compare.py $parent/servebench-results.txt $change/servebench-results.txt"
