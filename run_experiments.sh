#!/bin/bash
# Regenerates every table and figure of the paper at the given scale.
# `repro` writes a view's result files under their final names only once
# the whole run has completed; a failed run leaves the old ones in place.
set -euo pipefail
SCALE="${1:-small}"
REPEATS="${2:-3}"
OUT="results"
mkdir -p "$OUT"
# Build once so BIN_DIR is fresh (skip with PREBUILT=1 when binaries are known-good).
if [ -z "${PREBUILT:-}" ]; then cargo build --release -p mcond-bench --bins; fi
# Persistence smoke: condense → checkpoint → restore → serve must stay
# bitwise-identical before any multi-phase run that saves artifacts in one
# phase and reloads them in the next (skip with SKIP_CHECKPOINT=1).
if [ -z "${SKIP_CHECKPOINT:-}" ]; then
  echo "=== running checkpointing smoke ==="
  cargo run --release --example checkpointing | tee "$OUT/checkpointing.txt.tmp"
  mv "$OUT/checkpointing.txt.tmp" "$OUT/checkpointing.txt"
fi
echo "=== running repro (scale=$SCALE) ==="
"${BIN_DIR:-target/release}/repro" --scale "$SCALE" --repeats "$REPEATS" --out "$OUT"
