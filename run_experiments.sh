#!/bin/bash
# Regenerates every table and figure of the paper at the given scale.
# Stops at the first experiment that fails; a result file appears under its
# final name only once the binary that writes it has exited 0.
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
for exp in table1_datasets table2_accuracy fig3_cost_graph_batch fig4_cost_node_batch \
           table3_propagation table4_architectures table5_ablation \
           fig5_mapping_vis fig6_sparsification fig7_sensitivity \
           ablation_serve_mode \
           calibrate_datasets; do
  echo "=== running $exp (scale=$SCALE) ==="
  "${BIN_DIR:-target/release}/$exp" \
    --scale "$SCALE" --repeats "$REPEATS" --json "$OUT/$exp.json.tmp" \
    | tee "$OUT/$exp.txt.tmp"
  mv "$OUT/$exp.json.tmp" "$OUT/$exp.json"
  mv "$OUT/$exp.txt.tmp" "$OUT/$exp.txt"
done
