#!/usr/bin/env bash
# Reproduce everything: build, run the full test suite, run every
# experiment, and collect the outputs (plus each experiment's
# memopt.bench.v1 document, the figure data) under reproduction/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j

mkdir -p reproduction/figures
ctest --test-dir build --output-on-failure 2>&1 | tee reproduction/test_output.txt

export MEMOPT_JSON_DIR="$PWD/reproduction/figures"
for b in build/bench/*; do "$b"; done 2>&1 | tee reproduction/bench_output.txt

echo
echo "== reproduction summary =="
grep -E "tests passed" reproduction/test_output.txt || true
grep -c "SHAPE ok" reproduction/bench_output.txt | xargs -I{} echo "{} experiments with SHAPE ok"
echo "outputs in reproduction/ (figure data in reproduction/figures/)"
