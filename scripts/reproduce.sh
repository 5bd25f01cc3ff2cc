#!/usr/bin/env bash
# Reproduce every paper artifact end to end.
#
#   scripts/reproduce.sh            # default Monte-Carlo budgets (~15 min)
#   scripts/reproduce.sh --full     # paper-scale budgets (hours)
#
# Output lands in reproduction/: one text file per bench, plus the ctest
# log. Compare against EXPERIMENTS.md.

set -euo pipefail
cd "$(dirname "$0")/.."

EXTRA=("$@")
OUT=reproduction
mkdir -p "$OUT"

# No -G: a build/ tree keeps the generator it was first configured with
# (the README's tier-1 command uses CMake's default), and naming another
# one here would make CMake refuse to reconfigure it.
cmake -B build -S .
cmake --build build --parallel "$(nproc)"
ctest --test-dir build 2>&1 | tee "$OUT/ctest.txt"

for bench in build/bench/bench_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name=$(basename "$bench")
  echo "== $name =="
  if [[ "$name" == "bench_decoder_speed" ]]; then
    "$bench" 2>&1 | tee "$OUT/$name.txt"
  else
    "$bench" "${EXTRA[@]}" 2>&1 | tee "$OUT/$name.txt"
  fi
done

echo "done; results in $OUT/"
