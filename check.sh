#!/bin/bash
# The standard pre-submit checks for this repository.
set -e

# Architecture semantics live in crates/gnn/src/model.rs (GnnModel::run)
# only: the cache, the base prefix and the propagators are evaluators of
# that program and must not match on an architecture, and the server that
# builds the prefix names no architecture above its test module. Prints
# the offending line and fails.
if grep -nE 'GnnKind::\w+[^;]*=>' crates/gnn/src/frozen.rs crates/gnn/src/prefix.rs \
    crates/gnn/src/propagator.rs; then exit 1; fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/server.rs | grep -n 'GnnKind::'; then exit 1; fi
# Every tape op has a finite-difference check: a `pub fn` of
# crates/autodiff/src/ops_*.rs that gradcheck.rs never calls is named here.
unchecked=0
for op in $(grep -hoE 'pub fn [a-z0-9_]+' crates/autodiff/src/ops_*.rs | cut -d' ' -f3); do
    if ! grep -q "\.$op(" crates/autodiff/tests/gradcheck.rs; then
        echo "Tape::$op has no gradcheck in crates/autodiff/tests/gradcheck.rs"
        unchecked=1
    fi
done
if [ "$unchecked" -ne 0 ]; then exit 1; fi
# The wire codec builds no document tree: above its test module
# crates/serve/src/codec.rs may not mention `Json` at all, doc comments
# included (the tree codec lives on as a test-side reference under
# crates/serve/tests/). Prints the offending line and fails.
if sed '/^#\[cfg(test)\]/,$d' crates/serve/src/codec.rs | grep -n 'Json'; then exit 1; fi
# Spans have one consumer, the event sink: a second consumer must replace
# the sink, not sit beside it. crates/obs/src/sink.rs declares the
# activation bits EVENTS and METRICS_FORCED and no other; prints any other.
if grep -nE 'const +[A-Za-z0-9_]+ *: *u32' crates/obs/src/sink.rs \
    | grep -vE 'const +(EVENTS|METRICS_FORCED) *:'; then exit 1; fi
# One attach rule: Eq. 3 is the identity mapping, not a second path.
if grep -nE "Option<Cow<'a, Csr>>|fn widened|extended_with|extended_(sym|mean)_with" \
    crates/core/src/server.rs crates/gnn/src/*.rs; then exit 1; fi
# One Eq. 11 hop: L_ind's prediction and target run mcond-gnn's extended
# operator (TapeExtension, Propagator::extended_sym), so condensation keeps
# no block decomposition, materialised extension or degree scaling of its
# own. Eq. 10 in Gram form: L_tra reads a GramTarget through
# Tape::l21_gram_dist, so no step gathers rows of the N x d embeddings or
# records M̂·H' on the tape. Prints the offending line and fails.
if grep -nE 'block_extend|fn extended_support_rows|SupportSide|SyntheticSide|inv_sqrt' \
    crates/core/src/condense.rs; then exit 1; fi
if grep -nE 'z_orig\.select_rows|tape\.matmul\((m_hat|m_rows|m_sel)\b' \
    crates/core/src/condense.rs; then exit 1; fi
# Table III measures the operator that serves: LP/EP iterate on a hop of
# Propagator::extended_sym over cached base degrees, so the views, the
# examples and mcond-propagate materialise no Eq. 3/11 graph, and
# mcond-propagate's library code normalises nothing itself (its unit tests
# may). Prints the offending line and fails.
if grep -rn 'block_extend' crates/bench/src crates/propagate/src examples; then exit 1; fi
for f in crates/propagate/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'sym_normalize'; then echo "in $f"; exit 1; fi
done
# The docs name only files that exist: every crates/…/*.rs path in
# DESIGN.md or README.md is in the tree. Prints each missing path and fails.
missing=0
for f in $(grep -ohE 'crates/[A-Za-z0-9_./-]+\.rs' DESIGN.md README.md | sort -u); do
    if [ ! -f "$f" ]; then echo "DESIGN.md/README.md name a missing file: $f"; missing=1; fi
done
if [ "$missing" -ne 0 ]; then exit 1; fi
cargo fmt --all --check 2>/dev/null || echo "note: rustfmt not enforced (formatting is hand-maintained)"
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace
MCOND_THREADS=4 cargo test --workspace
# Third pass with the SIMD tiers disabled: the scalar reference kernels
# must stay correct on their own (they are the MCOND_SIMD escape hatch and
# the baseline every lane tier is tested against).
MCOND_SIMD=0 cargo test --workspace
# The lifecycle benchmark is a workspace of its own that path-depends on
# crates/*; nothing above compiles it, so an API break there would only
# surface in the benchmark pipeline. Type-check it here.
cargo check --release --offline --manifest-path benchmark/Cargo.toml
# ...and run its smallest workload: condense → checkpoint → boot → serve,
# every wire response verified bitwise against try_serve (exits 1 on any
# wrong logit). Under 10 s; writes only under git-ignored benchmark/out/.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload online_syn --seed 0 --smoke
# online_syn's 1-node batches carry no interconnect; the 100-node graph
# batches do, and they reach both sides of spmm_sparse's sweep-or-track
# rule (the 39-wide a·M on the condensed graph, the 2600-wide identity
# mapping on the original). Same lifecycle and bitwise check, ~5 s together.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload batch_syn --seed 0 --smoke
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload batch_orig --seed 0 --smoke
# The condense workload: the same lifecycle after condense() on reddit-small,
# the ruler's training-side smoke (autodiff, GEMM, full-graph spmm/spmm_t).
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload condense --seed 0 --smoke
# Checkpoint round-trip smoke: condense → save → restore → serve, bitwise
# verified inside the example (also exercises a corrupted-file rejection).
cargo run --release --example checkpointing
# Chaos sweep: every corrupted batch gets a typed ServeError on both
# attachment targets at 1 and 4 threads; valid siblings stay bitwise identical.
# Also asserts the stage coverage of a profile folded from the event log
# (>= 90% of the serve span) and that a panicking request's serve span is
# in the log under its trace id, and leaves a JSONL trace behind for the
# trace-report smoke below.
MCOND_LOG=target/robust_serving_trace.jsonl cargo run --release --example robust_serving
# Headline speedup demo: Whole vs MCond through InductiveServer::try_serve,
# plus the FrozenBase predictor fed the server's attachment rows.
cargo run --release --example inference_acceleration
# Network serving smoke: checkpoint boot → HTTP front end on localhost →
# wire round trip asserted bitwise identical to the library call.
cargo run --release --example serving
# Hot-swap robustness in release timing: ≥100 reloads under closed-loop
# load with epoch-verified bitwise answers, corrupt-bundle storms, and
# watchdog recovery of panicked/stalled batchers; plus graceful-drain and
# deadline-budget contracts. Also: 50 reloads through the front end leave
# no retired epoch reachable (Weak handles, no RSS heuristic).
cargo test --release -p mcond-serve --test reload_chaos --test drain_deadline
# The protocol corpus (20 000-deep JSON bodies included: stack frames are
# smaller in release, the cap must hold there too) and the streaming codec
# against its tree reference, at release speed.
cargo test --release -p mcond-serve --test protocol --test codec_fuzz
# Live-graph equivalence: N incremental promotions must be bitwise
# identical to a from-scratch rebuild (adjacency, mapping, degrees), the
# live base's server must answer like a fresh one over the grown base (and
# the FrozenBase predictor built on it like one built on a copy), at 1 and
# 4 threads.
cargo test --release -p mcond-core --test delta_equivalence
# Offline trace tooling smoke: fold the robust_serving JSONL trace into a
# call-tree profile (fails if the log is missing or span-free).
cargo run --release -p mcond-bench --bin trace-report -- target/robust_serving_trace.jsonl
# Reproduction driver smoke: every view on pubmed with one seed (~11 s on
# 2 vCPUs).
# Fails if any view's .txt or .json is missing or empty, and unless an
# unknown view name is a usage error (exit 2).
rm -rf target/repro-smoke
cargo run --release -p mcond-bench --bin repro -- --datasets pubmed --repeats 1 \
    --out target/repro-smoke > /dev/null
views=$(target/release/repro --help 2>&1 | sed -n 's/^views (default: all): //p')
if [ -z "$views" ]; then echo "repro --help lists no views"; exit 1; fi
for view in $views; do
    for ext in txt json; do
        if [ ! -s "target/repro-smoke/$view.$ext" ]; then
            echo "repro smoke: $view.$ext missing or empty"; exit 1
        fi
    done
done
code=0; target/release/repro no_such_view 2>/dev/null || code=$?
if [ "$code" -ne 2 ]; then echo "repro: an unknown view exited $code, not 2"; exit 1; fi
# The paper-scale datasets need their graph: on pubmed-paper and
# flickr-paper, feature-only SGC must trail Whole (SGC, 2 hops) by a floor
# of points per dataset. The same file's tier-1 test holds the committed
# results/paper_scale/calibrate_datasets.json, reddit-paper's only
# calibration (too heavy for CI), to its floor.
cargo test --release -p mcond-bench --test calibration_gate -- --ignored
# A committed results file that is empty is an experiment that died while
# its output was being written (`repro --out` renames on success only).
empty=$(find results -type f -empty)
if [ -n "$empty" ]; then echo "empty results file(s): $empty"; exit 1; fi
echo "all checks passed"
