#!/bin/sh
# Local CI: everything must pass before merging.
# `./ci.sh nightly` additionally runs the time-budgeted stress-fuzz
# walk (see the end of this file).
set -eux

# Panic-free policy for the library crates and the facade's fuzz
# contract: no `.unwrap(` or `panic!(` in non-test code (everything
# before the first `#[cfg(test)]` block). Failures must flow through
# the `AllocError` taxonomy instead. `.expect("documented invariant")`
# remains allowed.
for f in crates/core/src/*.rs crates/igraph/src/*.rs \
         crates/analysis/src/*.rs crates/ir/src/*.rs \
         crates/serve/src/*.rs crates/sim/src/*.rs \
         crates/cli/src/*.rs crates/workloads/src/*.rs \
         crates/workloads/src/kernels/*.rs crates/eval/src/*.rs \
         src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(|panic!\(/{print FILENAME": "FNR": "$0; bad=1} END{exit bad}' "$f" || {
        echo "panic-free gate: forbidden .unwrap()/panic! in library code ($f)" >&2
        exit 1
    }
done

cargo build --release --workspace
# Every example must run to a zero exit. `quickstart`,
# `producer_consumer` and `chip_pipeline` assert that their allocated
# code reproduces the virtual-register run; the others stop on any
# allocation failure.
cargo build --release --examples
for f in examples/*.rs; do
    "./target/release/examples/$(basename "$f" .rs)"
done
cargo test -q
# The benchmark's contract test: every workload at smoke size (a few
# seconds). It builds against the library crates' public API, so
# removing an item the benchmark calls fails here.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc must be warning-free, so a renamed item cannot leave an
# intra-doc link dangling. `--lib` keeps the facade's `regbal` library
# and the CLI's `regbal` binary from colliding on one output file.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

# The adversarial degradation corpus: 200+ seeded hostile programs must
# never panic the pipeline — every allocation either succeeds (possibly
# via recorded ladder degradations) or fails with a structured error,
# and degraded code stays semantics-preserving and sanitizer-clean.
cargo test -q --test degradation

# The evaluation harness must produce a report that passes its own
# structural validation (coverage, checksums, the paper's headline).
# The committed BENCH_EVAL.json is the full sweep (`regbal eval`);
# CI re-derives a smoke report next to it in target/ and checks both.
./target/release/regbal eval --smoke --out target/BENCH_EVAL_SMOKE.json
./target/release/regbal eval --validate target/BENCH_EVAL_SMOKE.json
./target/release/regbal eval --validate BENCH_EVAL.json

# Full-sweep oracle: the code must still reproduce the committed
# BENCH_EVAL.json. Only the wall-clock members (`elapsed_ms`, `wall_ms`)
# and the machine's worker and thread counts may differ; the cells'
# `"threads": [` arrays stay in the comparison.
./target/release/regbal eval --out target/BENCH_EVAL_FULL.json
wallclock='"elapsed_ms"\|"wall_ms"\|"workers": [0-9]\|"threads": [0-9]'
grep -v "$wallclock" BENCH_EVAL.json > target/BENCH_EVAL.filtered
grep -v "$wallclock" target/BENCH_EVAL_FULL.json > target/BENCH_EVAL_FULL.filtered
cmp target/BENCH_EVAL.filtered target/BENCH_EVAL_FULL.filtered

# The smoke documents must cover all five strategies — in particular
# the scratchpad tier (`balanced-scratch`), whose cells `--validate`
# holds to the scratch-accounting rules (scratch_spills <= spills, and
# only scratch-capable strategies may use the spad).
grep -q '"balanced-scratch"' target/BENCH_EVAL_SMOKE.json
grep -q '"scratch_spills"' target/BENCH_EVAL_SMOKE.json

# The same smoke sweep under the register-clobber sanitizer: every
# shipped strategy — the scratchpad tier included — must run with zero
# sanitizer reports (the command exits non-zero on any violation or
# warning; spad slot clobbers are violations), and the instrumented
# document must still validate.
./target/release/regbal eval --smoke --sanitize --out target/BENCH_EVAL_SANITIZE.json
./target/release/regbal eval --validate target/BENCH_EVAL_SANITIZE.json
grep -q '"balanced-scratch"' target/BENCH_EVAL_SANITIZE.json

# Deterministic merge: the sharded, compile-cached sweep must emit the
# same bytes as the serial one — same config and seed, any worker
# count. Smoke reports carry no timing member, so `cmp` is exact.
./target/release/regbal eval --smoke --workers 1 --out target/BENCH_EVAL_W1.json
./target/release/regbal eval --smoke --workers 4 --out target/BENCH_EVAL_W4.json
cmp target/BENCH_EVAL_W1.json target/BENCH_EVAL_W4.json

# Device gate: the full device family — 4, 16 and 64 worker PUs
# (command processor + ring workers) — under both chip cores, the
# reference slice loop and the event core, with the clobber sanitizer
# on the Ladder-compiled runs. The command exits non-zero on any report
# divergence between the cores, any digest mismatch, any stalled PU or
# any sanitizer finding. It takes about a second.
./target/release/regbal device --sanitize --out target/device_full.json

# Serve gate: the resident server must answer a replayed 100-request
# seeded trace with (a) a second pass served entirely from the
# cross-request cache, (b) responses byte-identical to one-shot
# `regbal alloc --json`, (c) zero sanitizer violations when the served
# allocations run on the simulator, and (d) the same response bytes at
# any worker count — over both the replay harness and a real stdio
# pipe. Both send every request at once, so the worker pool answers
# multi-request waves. `--verify` fails on any served/one-shot
# divergence; `replay` itself fails if any warm pass misses. The stdio
# sessions end with a `stats` request, so the `cmp` also pins the
# deterministic counters (hits, misses, trajectories, descents) across
# worker counts.
./target/release/regbal serve --gen-trace target/serve_trace.json \
    --requests 100 --lines target/serve_requests.txt
./target/release/regbal serve --replay target/serve_trace.json \
    --passes 2 --workers 1 --verify --sanitize \
    --responses target/serve_responses_w1.txt
./target/release/regbal serve --replay target/serve_trace.json \
    --passes 2 --workers 4 \
    --responses target/serve_responses_w4.txt
cmp target/serve_responses_w1.txt target/serve_responses_w4.txt
echo '{"id":"stats","kind":"stats"}' > target/serve_stats_request.txt
cat target/serve_requests.txt target/serve_requests.txt target/serve_stats_request.txt \
    | ./target/release/regbal serve --stdio --workers 1 > target/serve_stdio_w1.txt
cat target/serve_requests.txt target/serve_requests.txt target/serve_stats_request.txt \
    | ./target/release/regbal serve --stdio --workers 4 > target/serve_stdio_w4.txt
cmp target/serve_stdio_w1.txt target/serve_stdio_w4.txt

# Concurrent-connection gate: the trace's kernels are partitioned
# across 3 TCP clients with disjoint content hashes, served at once by
# one shared server; each client's transcript must be byte-identical to
# serving its script alone (the command exits non-zero on the first
# divergent response). The populated --cache-dir then proves the
# restart-warm contract: a second server over the same directory must
# answer its first repeated request with `"cached": true`.
rm -rf target/serve_cache
./target/release/regbal serve --check-concurrent target/serve_trace.json \
    --clients 3 --workers 2 --cache-dir target/serve_cache --metrics

# Chaos gate: the same trace replayed under three distinct seeded fault
# plans — failed/short/unrenamed disk writes, corrupt frames on read,
# reader stalls and mid-line client disconnects. Each run must answer
# every admitted request with the fault-free baseline document, answer
# every torn half-line with an in-band `bad-json` error, and then pass
# both a fault-free healing pass over the surviving cache directory and
# `--verify` against one-shot `regbal alloc --json` (the command exits
# non-zero on any lost request, divergence, panic or deadlock).
n=0
for spec in \
    "seed=101,write_fail=250,write_short=150,read_corrupt=250,disconnect=200" \
    "seed=202,rename_fail=300,read_corrupt=300,disconnect=300" \
    "seed=303,write_fail=400,write_short=200,disconnect=150,reader_stall=100"; do
    n=$((n + 1))
    rm -rf "target/serve_chaos_$n"
    ./target/release/regbal serve --replay target/serve_trace.json \
        --faults "$spec" --cache-dir "target/serve_chaos_$n" --verify
done

# GC gate: the trace replayed twice over a byte-capped on-disk cache.
# The warm pass must still be answered entirely from the resident
# tiers (replay itself fails on any warm miss), and after the run the
# CLI re-counts the directory from the filesystem: it must sit at or
# under the cap, or the command exits non-zero.
rm -rf target/serve_gc
./target/release/regbal serve --replay target/serve_trace.json \
    --passes 2 --cache-dir target/serve_gc --cache-dir-cap 32768

# Nightly: the time-budgeted stress-fuzz walk. Seeded adversarial
# bundles stream through the full ladder contract (no panics, confined
# validated rewrites, preserved semantics, sanitizer-clean, no hangs);
# any failing case is minimized (fewer threads, smaller file, simpler
# class — while the failure still reproduces) and appended to the
# committed regression corpus, which `cargo test` replays forever
# after. The closing --minimize pass keeps the whole corpus minimal:
# on a healthy corpus it is the identity. Then the full-corpus
# properties of the spill trajectory: the scratchpad tier replayed from
# the plain spill loop's picks must equal the scratch-aware reference
# loop on every stress bundle of seeds 0-23 at Nreg 1-40, and one
# trajectory asked Nreg 1-140 in any order must answer each size (its
# balanced and hybrid verdicts, and at even sizes its ladder walk) as a
# fresh one does, on the 11 kernels and stress seeds 0-3 (about 3.5 and
# 6 minutes in release).
if [ "${1:-}" = "nightly" ]; then
    ./target/release/regbal fuzz --seconds "${FUZZ_SECONDS:-300}" \
        --archive tests/fuzz_regressions.txt
    ./target/release/regbal fuzz --minimize tests/fuzz_regressions.txt
    cargo test --release -p regbal-core -- --ignored
fi

# Size report, printed and not gated: the non-test Rust lines, counted
# up to the first `#[cfg(test)]` of each `.rs` file under crates/ and
# src/, `tests/` directories excluded.
find crates src -name '*.rs' -not -path '*/tests/*' | sort \
    | xargs awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t{n++} END{print "non-test Rust lines: " n}'
