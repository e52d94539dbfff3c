#!/usr/bin/env bash
# Offline CI gate for the PerfDojo reproduction workspace.
#
#   1. perfdojo-util must compile warning-free (it is the dependency-free
#      substrate everything else trusts).
#   2. Tier-1 verify (ROADMAP.md): release build + full test suite, fully
#      offline (zero registry dependencies by policy, see DESIGN.md). The
#      root manifest's `default-members` make the plain `cargo test` run
#      every workspace crate, so no separate `--workspace` run is needed.
#   3. Heavy tests: the `#[ignore]`d tests too slow for a debug suite (the
#      full Fig. 1b run) must pass in release, and `figures` with no
#      arguments must run every registered experiment in release and exit
#      0 (it exits 1 when any experiment reports `error: …`).
#   4. The schedule-library pipeline must work end to end: build a
#      mini-library with perfdojo-lib, dispatch an exact-shape query and a
#      never-tuned-shape query against it, and report non-empty stats;
#      `build` into a copy of that library whose header names another
#      format version must fail and leave the copy byte-identical; and
#      `build` with a misspelled flag (`--seeed`), a repeated flag
#      (`--seed 1 --seed 2`) or a bare word must fail and write no
#      library; and a `query` for a convolution whose 3x3 filter is
#      larger than its 1x3 image must exit 1 naming the shape (not
#      panic with exit 101).
#   5. Differential fuzz smoke: a fixed-seed run over random programs ×
#      random transformation walks must find zero counterexamples, finish
#      quickly, and produce a byte-identical report when repeated — the
#      fuzzer itself must be deterministic or its findings are worthless;
#      a repeated flag (`--iters 1 --iters 2`) must be refused; and the
#      resolve-once interpreter must agree bit for bit with the
#      tree-walking oracle (`tests/interp_oracle.rs`) under the release
#      optimizer.
#   6. Search-engine smoke: the A/B determinism suite must hold (incremental
#      engine bit-identical to naive), the naive, greedy and heuristic
#      passes and the manual softmax process must play the moves and
#      reach the costs pinned in `crates/search/tests/golden/passes.txt`
#      under the release optimizer too, and a fixed-seed `--exp
#      searchperf` run must show an effective cost cache and emit a
#      report whose non-timing content is byte-identical across two runs.
#   7. Checkpoint/resume smoke: a fixed-seed checkpointed `perfdojo-lib
#      build` paused at a step limit (exit code 4) and resumed must produce
#      a library and event trace byte-identical to an uninterrupted build's
#      (modulo the cache_hit field — a resumed process starts cache-cold);
#      a build into that finished checkpoint directory under another
#      strategy, or over another kernel, must save what the same build
#      without `--checkpoint-dir` saves (a job's id names its kernel,
#      shape, target, strategy and seed, so it shares no job with the
#      first build); plain and checkpointed builds run one job runner,
#      so the plain `anneal:40` and `anneal:0` libraries must `cmp` equal
#      to their checkpointed builds; and a zero-budget anneal is a no-op
#      on every path — no record, no evaluation beyond the dojo's own —
#      and must stay NaN-free.
#   8. Serving-tier smoke: a fixed-seed `--exp serve` load test must be
#      byte-identical across two runs and to the committed BENCH_serve.json,
#      a CLI `perfdojo-lib serve` run on two copies of the same library must
#      produce identical reports AND identical hot-swapped libraries,
#      a zero-budget anneal serve (every job fails) must skip the 8 known
#      failures its later rounds re-queue, publish the base library and
#      report identically twice,
#      `serve --batch 0` must fail (a batch of none would answer nothing),
#      `serve --zipf-s nan` must exit 1 (an argument error, not a panic) and
#      leave the library untouched, a step-limited serve must pause with
#      exit 4 and converge on resume to the uninterrupted library, a serve
#      paused under `anneal:40` and rerun under `perfllm:2` must exit 0
#      and publish what a fresh `perfllm:2` serve publishes, and the
#      reader/hot-swap stress test must pass under --release.
#   9. Graph-tier smoke: a fixed-seed `--exp graph` run (block-level vs
#      per-node dispatch over the pipeline suite) must be byte-identical
#      across two runs and to the committed BENCH_graph.json and show block
#      cost at or below per-node cost, the graph CLI must round-trip build →
#      exact block hit, seeded random pipelines must pass the differential
#      oracle (graph executor vs composed interpreter reference),
#      `graph-build` into a library copy with another format version's
#      header must fail and leave the copy byte-identical, and `graph-check`
#      on a seed range past u64::MAX must fail.
#  10. Fleet smoke: a fixed-seed `perfdojo-lib fleet` build at 2 and at 4
#      workers must merge `cmp`-identical libraries; a fleet with one
#      injected worker kill (`--kill-after`) plus a resume must merge the
#      same bytes again; two `--exp fleet` runs must emit a
#      `BENCH_fleet.json` byte-identical to each other and to the committed
#      one, whose model scaling is >= 1.7x from 1 to 4 workers; job-lock
#      liveness must be deterministic — the release dead-worker test must
#      pass 20 of 20 isolated runs; a real `kill -9` of a `fleet work`
#      process once its job's first checkpoint slice landed must leave the
#      job pending (neither running nor done) with the checkpoint in place,
#      and the next worker must resume it (fewer steps than an uninterrupted
#      worker) and merge `cmp`-identical to an uninterrupted fleet; the
#      `--kill-after` run must kill exactly one worker, w0; a worker must
#      count the steps its checkpoint slices ran, not their size — `fleet
#      run --workers 1` on four one-step heuristic jobs must print `4
#      steps`, and `fleet work --step-limit 10` on a fresh copy must drain
#      them (exit 0, not a pause); `--step-limit N` means N steps and a
#      worker pauses only while a job is left — on a fresh copy, `fleet
#      work --step-limit 4` must print `Drained — 4 jobs done, 4 steps` and
#      exit 0, and on a fresh one-job `anneal:40` fleet `--step-limit 10`
#      must print `0 jobs done, 10 steps` and exit 4; `fleet run` on
#      a `jobs.list` with a garbled block must fail, and on one with a line
#      `fleet init` never writes (`owner w3 beat 0`) must exit 1 quoting
#      it; and `fleet status` on a path that holds no fleet must fail and
#      create nothing there.
#  11. Arena/cache-keying smoke: the incremental-vs-naive A/B suite must
#      also hold under the release optimizer (arena traversals and fp128
#      cache keys at full speed), and so must the find ≡ apply conformance
#      tests (the arena finders offer exactly the locations `apply` accepts:
#      `finders` on the kernel suite, `tests/applicability.rs` on seeded
#      fuzz walks), and so must the streaming printer behind every library
#      key (byte-identical to the old printer, `tests/printer_oracle.rs`);
#      a fresh double `--exp searchperf` run must agree on
#      every non-timing field, and the fresh run must not regress the
#      committed BENCH_searchperf.json on cache quality: every kernel keeps
#      `identical_results: true` and no kernel's cache_hit_rate drops below
#      the committed value.
#  12. Transfer smoke: a fixed-seed `--exp transfer` run must emit a
#      `BENCH_transfer.json` byte-identical across two runs and to the
#      committed one, transfer-warmed anneal must beat tuned-from-scratch at
#      equal budget on >= 3 held-out shapes and never be worse, the
#      parameterized dispatch tier must fire on >= 3 of them, and the three
#      dispatch bugfix regressions (nearest tie-breaking, NaN-cost guard,
#      zero-step record accounting) must hold under --release.
#  13. Clippy: `cargo clippy` over every workspace target must exit 0
#      (its deny-by-default lints are errors; warnings are allowed).
#
# Usage: ./ci.sh

set -euo pipefail
cd "$(dirname "$0")"

# refuses_v2_out LIB CMD...: CMD must fail when its --out, which it names
# as "$PDLIB_DIR/v2.pdl", is a copy of LIB whose header names format v2;
# the error must name the file, and the copy's bytes must not change
refuses_v2_out() {
    { echo "perfdojo-library v2"; tail -n +2 "$1"; } > "$PDLIB_DIR/v2.pdl"
    cp "$PDLIB_DIR/v2.pdl" "$PDLIB_DIR/v2-orig.pdl"
    shift
    if "$@" 2> "$PDLIB_DIR/v2.err"; then
        echo "ci.sh: $2 saved over an --out it could not load" >&2
        exit 1
    fi
    grep -q "v2.pdl" "$PDLIB_DIR/v2.err"
    cmp "$PDLIB_DIR/v2.pdl" "$PDLIB_DIR/v2-orig.pdl"
}

echo "== 1/13 perfdojo-util: warning-free build (-D warnings) =="
RUSTFLAGS="-D warnings" cargo build -q -p perfdojo-util --offline
RUSTFLAGS="-D warnings" cargo test -q -p perfdojo-util --offline

echo "== 2/13 tier-1 verify: release build + tests =="
cargo build --release --workspace --offline
cargo test -q --offline

PDLIB_DIR=$(mktemp -d)
trap 'rm -rf "$PDLIB_DIR"' EXIT

echo "== 3/13 heavy tests: the ignored ones + every registered experiment, in release =="
cargo test -q --release -p perfdojo-bench --offline --lib -- --ignored \
    gh200_speedups_exceed_one_geomean
# the registry is the one list of the paper's evaluation: every experiment
# in it must run, and an experiment that reports an error fails the run
mkdir "$PDLIB_DIR/all"
(cd "$PDLIB_DIR/all" && "$OLDPWD/target/release/figures" > figures.txt)

echo "== 4/13 schedule-library pipeline: build, dispatch, stats =="
PDLIB="$PDLIB_DIR/ci.pdl"
./target/release/perfdojo-lib build --out "$PDLIB" \
    --kernels softmax,matmul --targets x86 --strategy heuristic --seed 7
# exact hit: the shape the library was tuned at (tune_suite softmax = 64x64)
./target/release/perfdojo-lib query --lib "$PDLIB" --target x86 \
    --kernel softmax --shape 64x64 | tee "$PDLIB_DIR/q1.txt"
grep -q "disposition: exact-hit" "$PDLIB_DIR/q1.txt"
# fallback: a shape the library has never seen must replay a tuned neighbor
./target/release/perfdojo-lib query --lib "$PDLIB" --target x86 \
    --kernel softmax --shape 96x64 | tee "$PDLIB_DIR/q2.txt"
grep -q "disposition: fallback-replay" "$PDLIB_DIR/q2.txt"
# stats must report the two tuned entries
./target/release/perfdojo-lib stats --lib "$PDLIB" | tee "$PDLIB_DIR/stats.txt"
grep -q "entries:         2" "$PDLIB_DIR/stats.txt"
# an --out that does not load is never saved over
refuses_v2_out "$PDLIB" ./target/release/perfdojo-lib build --out "$PDLIB_DIR/v2.pdl" \
    --kernels relu --targets x86 --strategy heuristic
# build_refused WHAT ARGS...: `build --out typo.pdl ARGS` must fail and
# write no --out
build_refused() {
    local what=$1
    shift
    if ./target/release/perfdojo-lib build --out "$PDLIB_DIR/typo.pdl" "$@" 2> /dev/null; then
        echo "ci.sh: build accepted $what" >&2
        exit 1
    fi
    if [ -e "$PDLIB_DIR/typo.pdl" ]; then
        echo "ci.sh: build with $what wrote its --out" >&2
        exit 1
    fi
}
# a misspelled flag is an error, not a build at the flag's default; so is
# a repeated flag (not a build at its first value) and a bare word (not
# silently dropped)
build_refused "the unknown flag --seeed" \
    --kernels relu --targets x86 --strategy heuristic --seeed 5
build_refused "a repeated --seed" \
    --kernels relu --targets x86 --strategy heuristic --seed 1 --seed 2
build_refused "the bare word relu" relu --kernels relu
# a shape the operator cannot take is a usage error, not a panic
status=0
./target/release/perfdojo-lib query --lib "$PDLIB" --target x86 \
    --kernel conv --shape 1x1x1x1x3x3 2> "$PDLIB_DIR/conv.err" || status=$?
if [ "$status" -ne 1 ]; then
    echo "ci.sh: query for a conv image smaller than its filter exited $status" >&2
    exit 1
fi
grep -q 'no kernel "conv" at shape' "$PDLIB_DIR/conv.err"

echo "== 5/13 differential fuzz smoke: fixed seed, deterministic, clean =="
./target/release/fuzz --seed 0xC0FFEE --iters 200 > "$PDLIB_DIR/fuzz1.txt"
./target/release/fuzz --seed 0xC0FFEE --iters 200 > "$PDLIB_DIR/fuzz2.txt"
# the report must be byte-identical across runs — no timestamps, no
# thread-order dependence, nothing outside the seed
cmp "$PDLIB_DIR/fuzz1.txt" "$PDLIB_DIR/fuzz2.txt"
grep -q "findings 0" "$PDLIB_DIR/fuzz1.txt"
# the sabotage harness must still catch a deliberately broken transform
if ./target/release/fuzz --seed 0xC0FFEE --iters 60 --sabotage truncate-split \
    > "$PDLIB_DIR/fuzz3.txt"; then
    echo "ci.sh: sabotaged fuzz run reported no findings" >&2
    exit 1
fi
grep -q "FINDING" "$PDLIB_DIR/fuzz3.txt"
# a repeated flag is a usage error, not a run at its last value
if ./target/release/fuzz --iters 1 --iters 2 > /dev/null 2>&1; then
    echo "ci.sh: fuzz accepted a repeated --iters" >&2
    exit 1
fi
# the interpreter every differential trusts: resolve-once execution must
# match the tree-walking oracle bit for bit, at full optimization
cargo test -q --release --offline --test interp_oracle

echo "== 6/13 search-engine smoke: A/B determinism + searchperf report =="
# the incremental engine must be bit-identical to the naive one on every
# tune-suite kernel and strategy
cargo test -q -p perfdojo-search --offline --test incremental_ab
# the passes' moves and costs, pinned on disk, hold in release as in debug
cargo test -q --release -p perfdojo-search --offline --test golden_passes
# fixed-seed searchperf: run twice from scratch; everything except wall-time
# fields must be byte-identical, the cache must actually fire, and both
# engines must have agreed on every result
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp searchperf > sp1.txt)
mv "$PDLIB_DIR/BENCH_searchperf.json" "$PDLIB_DIR/sp1.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp searchperf > sp2.txt)
mv "$PDLIB_DIR/BENCH_searchperf.json" "$PDLIB_DIR/sp2.json"
strip_timing() { grep -v 'wall_s\|evals_per_sec\|speedup_target_met' "$1"; }
diff <(strip_timing "$PDLIB_DIR/sp1.json") <(strip_timing "$PDLIB_DIR/sp2.json")
grep -q '"all_identical": true' "$PDLIB_DIR/sp1.json"
grep -q '"cache_effective": true' "$PDLIB_DIR/sp1.json"
if grep -q '"identical_results": false' "$PDLIB_DIR/sp1.json"; then
    echo "ci.sh: searchperf engines diverged" >&2
    exit 1
fi
# cache hit rate must be > 0 on every row (no zero-hit caches)
if grep -q '"cache_hits": 0,' "$PDLIB_DIR/sp1.json"; then
    echo "ci.sh: searchperf cache never fired" >&2
    exit 1
fi

echo "== 7/13 checkpoint/resume smoke: pause at step limit, resume, compare =="
CKPT_ARGS=(--kernels softmax,matmul --targets x86 --strategy anneal:40 --seed 7)
# reference: one uninterrupted checkpointed build
./target/release/perfdojo-lib build --out "$PDLIB_DIR/full.pdl" \
    "${CKPT_ARGS[@]}" --checkpoint-dir "$PDLIB_DIR/ck-full"
# step-limited build: the first run must pause with exit code 4, and
# rerunning the identical command must eventually finish (bounded retries)
rc=4
for _ in 1 2 3 4 5 6 7 8 9 10; do
    set +e
    ./target/release/perfdojo-lib build --out "$PDLIB_DIR/sliced.pdl" \
        "${CKPT_ARGS[@]}" --checkpoint-dir "$PDLIB_DIR/ck-sliced" --step-limit 25
    rc=$?
    set -e
    [ "$rc" -eq 0 ] && break
    if [ "$rc" -ne 4 ]; then
        echo "ci.sh: checkpointed build should pause with exit 4, got $rc" >&2
        exit 1
    fi
done
if [ "$rc" -ne 0 ]; then
    echo "ci.sh: checkpointed build never finished within retry budget" >&2
    exit 1
fi
# a paused run must not have written the output library prematurely; the
# finished libraries and traces must be byte-identical (cache_hit is the
# one lawfully different field: a resumed process starts cache-cold)
cmp "$PDLIB_DIR/full.pdl" "$PDLIB_DIR/sliced.pdl"
strip_cache_hit() { sed 's/,"cache_hit":[a-z]*//g' "$1"; }
diff <(strip_cache_hit "$PDLIB_DIR/ck-full/trace.jsonl") \
     <(strip_cache_hit "$PDLIB_DIR/ck-sliced/trace.jsonl")
grep -q '"ev":"tuned"' "$PDLIB_DIR/ck-full/trace.jsonl"
# the finished directory answers no other build: another strategy or
# another kernel is another job id, so each build runs its own jobs and
# saves what it saves without --checkpoint-dir
reuse_ck() {
    ./target/release/perfdojo-lib build --out "$PDLIB_DIR/reuse-ck.pdl" "$@" \
        --checkpoint-dir "$PDLIB_DIR/ck-full" > /dev/null
    ./target/release/perfdojo-lib build --out "$PDLIB_DIR/reuse-plain.pdl" "$@" > /dev/null
    cmp "$PDLIB_DIR/reuse-ck.pdl" "$PDLIB_DIR/reuse-plain.pdl"
    rm "$PDLIB_DIR/reuse-ck.pdl" "$PDLIB_DIR/reuse-plain.pdl"
}
reuse_ck --kernels softmax,matmul --targets x86 --strategy heuristic --seed 7
reuse_ck --kernels relu --targets x86 --strategy anneal:40 --seed 7
# the plain build runs the same job runner: same bytes as the checkpointed
./target/release/perfdojo-lib build --out "$PDLIB_DIR/plain.pdl" "${CKPT_ARGS[@]}"
cmp "$PDLIB_DIR/full.pdl" "$PDLIB_DIR/plain.pdl"
# zero-budget anneal is a defined no-op on every path: must finish
# cleanly, NaN-free, and plain and checkpointed builds must agree
ZERO_ARGS=(--kernels softmax --targets x86 --strategy anneal:0 --seed 7)
./target/release/perfdojo-lib build --out "$PDLIB_DIR/zero.pdl" "${ZERO_ARGS[@]}" \
    > "$PDLIB_DIR/zero.txt"
./target/release/perfdojo-lib build --out "$PDLIB_DIR/zero-ck.pdl" "${ZERO_ARGS[@]}" \
    --checkpoint-dir "$PDLIB_DIR/ck-zero" > "$PDLIB_DIR/zero-ck.txt"
cmp "$PDLIB_DIR/zero.pdl" "$PDLIB_DIR/zero-ck.pdl"
# no record, and no evaluation beyond the dojo's own (one per job)
for out in zero.txt zero-ck.txt; do
    grep -q "1 jobs, 1 evaluations; .* 0 entries total" "$PDLIB_DIR/$out"
done
if grep -qi "nan" "$PDLIB_DIR/zero.txt" "$PDLIB_DIR/zero.pdl" "$PDLIB_DIR/zero-ck.txt"; then
    echo "ci.sh: zero-budget anneal produced NaN" >&2
    exit 1
fi
# and the unit pin for the cooling-schedule division guard
cargo test -q -p perfdojo-search --offline zero_budget

echo "== 8/13 serving-tier smoke: deterministic load gen, hot swap, pause =="
# fixed-seed load-test experiment: two runs must emit byte-identical
# reports (no wall-clock fields inside — plain cmp, no stripping)
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp serve > serve1.txt)
mv "$PDLIB_DIR/BENCH_serve.json" "$PDLIB_DIR/serve1.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp serve > serve2.txt)
mv "$PDLIB_DIR/BENCH_serve.json" "$PDLIB_DIR/serve2.json"
cmp "$PDLIB_DIR/serve1.json" "$PDLIB_DIR/serve2.json"
# and the committed report: a change that moves it commits the new file
cmp BENCH_serve.json "$PDLIB_DIR/serve1.json"
grep -q '"miss_then_tuned"' "$PDLIB_DIR/serve1.json"
# CLI serve determinism: same seed over two copies of the same base
# library must serve the same report and hot-swap to the same library
./target/release/perfdojo-lib build --out "$PDLIB_DIR/srv-base.pdl" \
    --kernels softmax,matmul --targets x86 --strategy heuristic --seed 3
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-a.pdl"
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-b.pdl"
SERVE_ARGS=(--target x86 --rounds 3 --requests 64 --seed 11 --strategy heuristic)
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-a.pdl" \
    "${SERVE_ARGS[@]}" --report "$PDLIB_DIR/srv-a.json" > /dev/null
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-b.pdl" \
    "${SERVE_ARGS[@]}" --report "$PDLIB_DIR/srv-b.json" > /dev/null
cmp "$PDLIB_DIR/srv-a.json" "$PDLIB_DIR/srv-b.json"
cmp "$PDLIB_DIR/srv-a.pdl" "$PDLIB_DIR/srv-b.pdl"
# known failures are not re-run: under a zero-budget anneal every tune job
# fails, each drain forgets the failed keys so the next round queues the
# same 4 jobs again, and the drains of rounds 1-2 skip those 8 jobs. The
# published library stays the base, and the report is reproducible
FAIL_ARGS=(--target x86 --rounds 3 --requests 64 --seed 11 --strategy anneal:0)
for run in a b; do
    cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-fail-$run.pdl"
    ./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-fail-$run.pdl" \
        "${FAIL_ARGS[@]}" --report "$PDLIB_DIR/srv-fail-$run.json" > /dev/null
    cmp "$PDLIB_DIR/srv-fail-$run.pdl" "$PDLIB_DIR/srv-base.pdl"
done
cmp "$PDLIB_DIR/srv-fail-a.json" "$PDLIB_DIR/srv-fail-b.json"
if ! grep -q '"tune_skipped": 8,' "$PDLIB_DIR/srv-fail-a.json"; then
    echo "ci.sh: anneal:0 serve should skip 8 known failures" >&2
    grep '"tune' "$PDLIB_DIR/srv-fail-a.json" >&2
    exit 1
fi
# serve refuses a batch size of 0
if ./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-a.pdl" \
    "${SERVE_ARGS[@]}" --batch 0 > /dev/null 2>&1; then
    echo "ci.sh: serve accepted --batch 0" >&2
    exit 1
fi
# a Zipf exponent that is not finite is an argument error (exit 1), not a
# panic (exit 101), and the library is left as it was
cp "$PDLIB_DIR/srv-a.pdl" "$PDLIB_DIR/srv-a-orig.pdl"
set +e
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-a.pdl" \
    "${SERVE_ARGS[@]}" --zipf-s nan > /dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "ci.sh: serve --zipf-s nan should exit 1, got $rc" >&2
    exit 1
fi
cmp "$PDLIB_DIR/srv-a.pdl" "$PDLIB_DIR/srv-a-orig.pdl"
# step-limited serve: background tuning must pause with exit 4 (leaving
# the on-disk library untouched), and resuming the identical command must
# converge to the same library an uninterrupted serve produces
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-full.pdl"
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-sliced.pdl"
PAUSE_ARGS=(--target x86 --rounds 2 --requests 48 --seed 11 --strategy anneal:40)
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-full.pdl" \
    "${PAUSE_ARGS[@]}" --checkpoint-dir "$PDLIB_DIR/ck-srv-full" > /dev/null
# first run must pause, and a pause before the first swap must leave the
# on-disk library byte-identical to the base
set +e
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-sliced.pdl" \
    "${PAUSE_ARGS[@]}" --checkpoint-dir "$PDLIB_DIR/ck-srv-sliced" \
    --step-limit 25 > /dev/null
rc=$?
set -e
if [ "$rc" -ne 4 ]; then
    echo "ci.sh: step-limited serve should pause with exit 4, got $rc" >&2
    exit 1
fi
cmp "$PDLIB_DIR/srv-sliced.pdl" "$PDLIB_DIR/srv-base.pdl"
# rerunning the identical command resumes; bounded retries until it finishes
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15; do
    set +e
    ./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-sliced.pdl" \
        "${PAUSE_ARGS[@]}" --checkpoint-dir "$PDLIB_DIR/ck-srv-sliced" \
        --step-limit 25 > /dev/null
    rc=$?
    set -e
    [ "$rc" -eq 0 ] && break
    if [ "$rc" -ne 4 ]; then
        echo "ci.sh: step-limited serve should pause with exit 4, got $rc" >&2
        exit 1
    fi
done
if [ "$rc" -ne 0 ]; then
    echo "ci.sh: step-limited serve never finished within retry budget" >&2
    exit 1
fi
cmp "$PDLIB_DIR/srv-full.pdl" "$PDLIB_DIR/srv-sliced.pdl"
# a drain paused under anneal keeps its state under ids that name anneal,
# so the rerun under PerfLLM tunes its jobs from nothing: it must exit 0
# and publish what a fresh PerfLLM serve publishes
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-switch.pdl"
cp "$PDLIB_DIR/srv-base.pdl" "$PDLIB_DIR/srv-llm.pdl"
SWITCH_ARGS=(--target x86 --rounds 2 --requests 48 --seed 11)
set +e
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-switch.pdl" "${SWITCH_ARGS[@]}" \
    --strategy anneal:40 --checkpoint-dir "$PDLIB_DIR/ck-srv-switch" --step-limit 25 > /dev/null
rc=$?
set -e
if [ "$rc" -ne 4 ]; then
    echo "ci.sh: step-limited anneal serve should pause with exit 4, got $rc" >&2
    exit 1
fi
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-switch.pdl" "${SWITCH_ARGS[@]}" \
    --strategy perfllm:2 --checkpoint-dir "$PDLIB_DIR/ck-srv-switch" > /dev/null
./target/release/perfdojo-lib serve --lib "$PDLIB_DIR/srv-llm.pdl" "${SWITCH_ARGS[@]}" \
    --strategy perfllm:2 > /dev/null
cmp "$PDLIB_DIR/srv-switch.pdl" "$PDLIB_DIR/srv-llm.pdl"
# readers racing hot swaps must match the sequential oracle under the
# release scheduler, not just the debug one
cargo test -q --release -p perfdojo-library --offline --test serve_stress

echo "== 9/13 graph-tier smoke: block dispatch, determinism, random oracle =="
# fixed-seed graph experiment: byte-identical across two runs, and the
# headline claim holds — block dispatch never loses to per-node dispatch
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp graph > graph1.txt)
mv "$PDLIB_DIR/BENCH_graph.json" "$PDLIB_DIR/graph1.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp graph > graph2.txt)
mv "$PDLIB_DIR/BENCH_graph.json" "$PDLIB_DIR/graph2.json"
cmp "$PDLIB_DIR/graph1.json" "$PDLIB_DIR/graph2.json"
cmp BENCH_graph.json "$PDLIB_DIR/graph1.json"
grep -q 'block dispatch ≤ per-node dispatch on 3/3 pipelines' "$PDLIB_DIR/graph1.txt"
if grep -q '"block_recorded": false' "$PDLIB_DIR/graph1.json"; then
    echo "ci.sh: a suite pipeline failed to tune into a block record" >&2
    exit 1
fi
# graph CLI round trip: build blocks into a fresh library (inheriting the
# per-node schedules tuned by a plain build first), then the same graph
# must answer as a one-shot exact subgraph hit
./target/release/perfdojo-lib build --out "$PDLIB_DIR/graph.pdl" \
    --kernels softmax,matmul,relu --targets x86 --strategy heuristic --seed 7
./target/release/perfdojo-lib graph-build --out "$PDLIB_DIR/graph.pdl" \
    --target x86 --graphs ffn,attention --strategy heuristic --seed 7 \
    | tee "$PDLIB_DIR/gb.txt"
grep -q "2 graphs" "$PDLIB_DIR/gb.txt"
./target/release/perfdojo-lib graph-query --lib "$PDLIB_DIR/graph.pdl" \
    --target x86 --graph ffn | tee "$PDLIB_DIR/gq1.txt"
grep -q "block hit (exact-hit)" "$PDLIB_DIR/gq1.txt"
# a graph that was never block-tuned must fall back to per-node dispatch
./target/release/perfdojo-lib graph-query --lib "$PDLIB_DIR/graph.pdl" \
    --target x86 --graph mlp_block | tee "$PDLIB_DIR/gq2.txt"
grep -q "per-node fallback" "$PDLIB_DIR/gq2.txt"
# seeded random pipelines through the full differential oracle (the same
# seeds crates/graph/tests/exec_determinism.rs pins)
./target/release/perfdojo-lib graph-check --seed 0 --count 12 \
    | tee "$PDLIB_DIR/gc.txt"
grep -q "12 random graphs passed the differential oracle" "$PDLIB_DIR/gc.txt"
# graph-build never saves over an --out that does not load either
refuses_v2_out "$PDLIB_DIR/graph.pdl" ./target/release/perfdojo-lib graph-build \
    --out "$PDLIB_DIR/v2.pdl" --target x86 --graphs ffn
# a seed range past u64::MAX is an error, not a report on graphs never
# checked
if ./target/release/perfdojo-lib graph-check --seed 18446744073709551615 --count 3 \
    > "$PDLIB_DIR/gc-overflow.txt" 2>&1; then
    echo "ci.sh: graph-check accepted a seed range past u64::MAX" >&2
    exit 1
fi

echo "== 10/13 fleet smoke: worker-count invariance, injected kill, reproducible report =="
FLEET_ARGS=(--kernels softmax,matmul,relu,reducemean --strategy anneal:12 --seed 5)
# same job grid at 2 and at 4 workers must merge byte-identical libraries
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farm2" "${FLEET_ARGS[@]}"
./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farm2" --workers 2 > /dev/null
./target/release/perfdojo-lib fleet merge --dir "$PDLIB_DIR/farm2" \
    --out "$PDLIB_DIR/farm2.pdl" > /dev/null
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farm4" "${FLEET_ARGS[@]}"
./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farm4" --workers 4 > /dev/null
./target/release/perfdojo-lib fleet merge --dir "$PDLIB_DIR/farm4" \
    --out "$PDLIB_DIR/farm4.pdl" > /dev/null
cmp "$PDLIB_DIR/farm2.pdl" "$PDLIB_DIR/farm4.pdl"
# injected kill: worker w0 dies mid-run (exit 0 if the survivors drained,
# exit 4 if the fleet still has work); rerunning the same command resumes
# the dead worker's checkpoint, and the merge converges to the same bytes
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farmk" "${FLEET_ARGS[@]}"
set +e
./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farmk" --workers 2 \
    --kill-after 8 > "$PDLIB_DIR/farmk.txt"
rc=$?
set -e
if [ "$rc" -ne 0 ] && [ "$rc" -ne 4 ]; then
    echo "ci.sh: killed fleet run should exit 0 or 4, got $rc" >&2
    exit 1
fi
# the kill is a fault plan entry for w0 alone: exactly one worker dies,
# and it is w0
if [ "$(grep -c "Killed" "$PDLIB_DIR/farmk.txt")" -ne 1 ] \
    || ! grep -q "^  w0: Killed" "$PDLIB_DIR/farmk.txt"; then
    echo "ci.sh: --kill-after must kill exactly worker w0" >&2
    cat "$PDLIB_DIR/farmk.txt" >&2
    exit 1
fi
if [ "$rc" -eq 4 ]; then
    ./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farmk" --workers 2 > /dev/null
fi
./target/release/perfdojo-lib fleet merge --dir "$PDLIB_DIR/farmk" \
    --out "$PDLIB_DIR/farmk.pdl" > /dev/null
cmp "$PDLIB_DIR/farm2.pdl" "$PDLIB_DIR/farmk.pdl"
# the fleet experiment: double-run byte-identity of BENCH_fleet.json, the
# merge-invariance flags asserted inside it, and the scaling claim
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp fleet > fleet1.txt)
mv "$PDLIB_DIR/BENCH_fleet.json" "$PDLIB_DIR/fleet1.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp fleet > fleet2.txt)
mv "$PDLIB_DIR/BENCH_fleet.json" "$PDLIB_DIR/fleet2.json"
cmp "$PDLIB_DIR/fleet1.json" "$PDLIB_DIR/fleet2.json"
cmp BENCH_fleet.json "$PDLIB_DIR/fleet1.json"
grep -q '"merged_identical_across_worker_counts": true' "$PDLIB_DIR/fleet1.json"
grep -q '"kill_resume_identical": true' "$PDLIB_DIR/fleet1.json"
awk -F': ' '/"speedup_1_to_4"/ { gsub(/,/, "", $2); exit !($2 >= 1.7) }' \
    "$PDLIB_DIR/fleet1.json"
# liveness is the job's OS lock, not a deadline, so the dead-worker
# test has no timing to lose: every isolated release run passes
cargo test -q --release -p perfdojo-library --offline --test fleet_crash --no-run
for run in $(seq 20); do
    if ! cargo test -q --release -p perfdojo-library --offline --test fleet_crash -- \
        --exact dead_workers_job_is_retuned_exactly_once > /dev/null 2>&1; then
        echo "ci.sh: dead-worker test failed on isolated run $run of 20" >&2
        exit 1
    fi
done
# a real kill -9 after the job's first checkpoint slice landed: the
# kernel drops the dead worker's job lock, so the job is pending again,
# and the next worker resumes the checkpoint (fewer steps than an
# uninterrupted worker runs) to the bytes of an uninterrupted fleet
KILL_ARGS=(--kernels softmax --strategy anneal:3000 --seed 5)
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farm9" "${KILL_ARGS[@]}" > /dev/null
./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farm9" --worker w0 > /dev/null &
worker=$!
farm9_ckpt() { compgen -G "$PDLIB_DIR/farm9/ckpt/*/inflight.ckpt" > /dev/null; }
for _ in $(seq 400); do
    farm9_ckpt && break
    sleep 0.025
done
kill -9 "$worker"
wait "$worker" 2> /dev/null || true
if ! farm9_ckpt; then
    echo "ci.sh: the killed fleet worker left no in-flight checkpoint" >&2
    exit 1
fi
./target/release/perfdojo-lib fleet status --dir "$PDLIB_DIR/farm9" \
    | tee "$PDLIB_DIR/farm9-status.txt"
grep -q "^running: 0$" "$PDLIB_DIR/farm9-status.txt"
grep -q "^done: *0$" "$PDLIB_DIR/farm9-status.txt"
./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farm9" --worker w1 \
    | tee "$PDLIB_DIR/farm9.txt"
grep -q "Drained — 1 jobs done" "$PDLIB_DIR/farm9.txt"
./target/release/perfdojo-lib fleet merge --dir "$PDLIB_DIR/farm9" \
    --out "$PDLIB_DIR/farm9.pdl" > /dev/null
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farm1" "${KILL_ARGS[@]}" > /dev/null
./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farm1" --worker w0 \
    | tee "$PDLIB_DIR/farm1.txt"
./target/release/perfdojo-lib fleet merge --dir "$PDLIB_DIR/farm1" \
    --out "$PDLIB_DIR/farm1.pdl" > /dev/null
cmp "$PDLIB_DIR/farm1.pdl" "$PDLIB_DIR/farm9.pdl"
drained_steps() { sed -n 's/.*Drained — 1 jobs done, \([0-9]*\) steps.*/\1/p' "$1"; }
resumed=$(drained_steps "$PDLIB_DIR/farm9.txt")
whole=$(drained_steps "$PDLIB_DIR/farm1.txt")
if [ -z "$resumed" ] || [ -z "$whole" ] || [ "$resumed" -ge "$whole" ]; then
    echo "ci.sh: the resumed worker ran ${resumed:-?} steps, an uninterrupted one" \
        "${whole:-?}: the kill -9 resumed no checkpoint" >&2
    exit 1
fi
# a worker counts the steps its checkpoint slices ran, not their size:
# four one-step heuristic jobs are 4 steps, and a 10-step limit drains them
STEP_ARGS=(--kernels softmax,relu,matmul,add --targets x86 --strategy heuristic --seed 3)
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farms" "${STEP_ARGS[@]}" > /dev/null
./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farms" --workers 1 \
    > "$PDLIB_DIR/farms.txt"
if ! grep -q "^  w0: Drained — 4 jobs done, 4 steps," "$PDLIB_DIR/farms.txt"; then
    echo "ci.sh: fleet run must charge 4 one-step heuristic jobs 4 steps:" >&2
    cat "$PDLIB_DIR/farms.txt" >&2
    exit 1
fi
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farml" "${STEP_ARGS[@]}" > /dev/null
if ! ./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farml" --worker w0 \
    --step-limit 10 > "$PDLIB_DIR/farml.txt"; then
    echo "ci.sh: a 10-step limit must drain 4 one-step heuristic jobs:" >&2
    cat "$PDLIB_DIR/farml.txt" >&2
    exit 1
fi
# --step-limit N means N steps, and a worker pauses only while a job is
# left: a limit the last job reaches drains (exit 0), and a 10-step limit
# pauses a 22-step anneal job after exactly 10 steps (exit 4)
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farm4s" "${STEP_ARGS[@]}" > /dev/null
if ! ./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farm4s" --worker w0 \
    --step-limit 4 > "$PDLIB_DIR/farm4s.txt" \
    || ! grep -q "Drained — 4 jobs done, 4 steps$" "$PDLIB_DIR/farm4s.txt"; then
    echo "ci.sh: a 4-step limit must drain 4 one-step heuristic jobs:" >&2
    cat "$PDLIB_DIR/farm4s.txt" >&2
    exit 1
fi
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farma" \
    --kernels softmax --targets x86 --strategy anneal:40 --seed 5 > /dev/null
set +e
./target/release/perfdojo-lib fleet work --dir "$PDLIB_DIR/farma" --worker w0 \
    --step-limit 10 > "$PDLIB_DIR/farma.txt"
rc=$?
set -e
if [ "$rc" -ne 4 ] || ! grep -q "Paused — 0 jobs done, 10 steps$" "$PDLIB_DIR/farma.txt"; then
    echo "ci.sh: a 10-step limit must pause an anneal:40 job after 10 steps, exit 4 (got $rc):" >&2
    cat "$PDLIB_DIR/farma.txt" >&2
    exit 1
fi
# jobs.list is the only list of jobs: one garbled block must fail the
# fleet rather than silently drop that job
./target/release/perfdojo-lib fleet init --dir "$PDLIB_DIR/farmg" \
    --kernels softmax,relu --strategy heuristic --seed 3 > /dev/null
sed -i 's/^dims 64x64$/dims 1x?x64x64/' "$PDLIB_DIR/farmg/jobs.list"
if ./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farmg" > /dev/null 2>&1; then
    echo "ci.sh: fleet run accepted a garbled jobs.list" >&2
    exit 1
fi
# a job block holds exactly the lines `fleet init` writes: on a copy of
# the drained 2-worker fleet whose jobs.list has an owner line after one
# block's header, `fleet run` must exit 1, quoting the line
cp -r "$PDLIB_DIR/farm2" "$PDLIB_DIR/farmo"
sed -i '0,/^perfdojo-fleet-job v1$/s//perfdojo-fleet-job v1\nowner w3 beat 0/' \
    "$PDLIB_DIR/farmo/jobs.list"
grep -q "^owner w3 beat 0$" "$PDLIB_DIR/farmo/jobs.list"
set +e
./target/release/perfdojo-lib fleet run --dir "$PDLIB_DIR/farmo" > /dev/null \
    2> "$PDLIB_DIR/farmo.err"
rc=$?
set -e
if [ "$rc" -ne 1 ] || ! grep -qF '"owner w3 beat 0"' "$PDLIB_DIR/farmo.err"; then
    echo "ci.sh: fleet run on a jobs.list with an owner line exited $rc:" >&2
    cat "$PDLIB_DIR/farmo.err" >&2
    exit 1
fi
# only init makes a fleet directory: a mistyped --dir is an error that
# leaves no fleet skeleton behind
if ./target/release/perfdojo-lib fleet status --dir "$PDLIB_DIR/farm-typo" > /dev/null 2>&1; then
    echo "ci.sh: fleet status accepted a directory that holds no fleet" >&2
    exit 1
fi
if [ -e "$PDLIB_DIR/farm-typo" ]; then
    echo "ci.sh: fleet status created a fleet skeleton under a mistyped --dir" >&2
    exit 1
fi

echo "== 11/13 arena/cache-keying smoke: release A/B + cache-quality regression =="
# the incremental engine must stay bit-identical to the naive one under the
# release optimizer too — arena traversals and fp128 cache keying only run
# at full speed there, and an optimizer-dependent divergence would slip
# straight past the debug-mode run in gate 6
cargo test -q --release -p perfdojo-search --offline --test incremental_ab
# the arena finders are the only enumeration of the action space: at full
# optimization they must still offer exactly the locations apply accepts
cargo test -q --release -p perfdojo-transform --offline --lib finders
cargo test -q --release --offline --test applicability
# every library key is FNV-1a over the printer's structure view: the
# streaming printer must match the old line-vector printer byte for byte
# at full optimization
cargo test -q --release --offline --test printer_oracle
# fresh fixed-seed double run: every non-timing field must agree between
# the two runs (same strip as gate 6, independent artifacts)
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp searchperf > sp11a.txt)
mv "$PDLIB_DIR/BENCH_searchperf.json" "$PDLIB_DIR/sp11a.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp searchperf > sp11b.txt)
mv "$PDLIB_DIR/BENCH_searchperf.json" "$PDLIB_DIR/sp11b.json"
diff <(strip_timing "$PDLIB_DIR/sp11a.json") <(strip_timing "$PDLIB_DIR/sp11b.json")
# cache-quality regression vs the committed report: the fresh run must
# cover the same kernel rows, keep identical_results true on every one,
# and must not drop any kernel's cache_hit_rate below the committed value
# (improvements are fine — only a drop fails)
diff <(grep '"kernel":' BENCH_searchperf.json) \
     <(grep '"kernel":' "$PDLIB_DIR/sp11a.json")
if grep -q '"identical_results": false' "$PDLIB_DIR/sp11a.json"; then
    echo "ci.sh: fresh searchperf run lost naive/incremental identity" >&2
    exit 1
fi
paste <(grep '"cache_hit_rate"' BENCH_searchperf.json) \
      <(grep '"cache_hit_rate"' "$PDLIB_DIR/sp11a.json") \
    | awk -F'[:,]' '{
        committed = $2 + 0; fresh = $4 + 0
        if (fresh + 1e-9 < committed) {
            printf "ci.sh: cache_hit_rate regressed: committed %s, fresh %s\n", \
                committed, fresh > "/dev/stderr"
            exit 1
        }
    }'

echo "== 12/13 transfer smoke: reproducible report, warm-start wins, bugfix pins =="
# fixed-seed transfer experiment: two runs must emit byte-identical
# reports (no wall-clock fields inside — plain cmp, no stripping)
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp transfer > tr1.txt)
mv "$PDLIB_DIR/BENCH_transfer.json" "$PDLIB_DIR/tr1.json"
(cd "$PDLIB_DIR" && "$OLDPWD/target/release/figures" --exp transfer > tr2.txt)
mv "$PDLIB_DIR/BENCH_transfer.json" "$PDLIB_DIR/tr2.json"
cmp "$PDLIB_DIR/tr1.json" "$PDLIB_DIR/tr2.json"
cmp BENCH_transfer.json "$PDLIB_DIR/tr1.json"
# the headline claims: transfer-warmed search beats cold at equal budget
# on >= 3 held-out shapes and is never worse; the parameterized tier
# resolves >= 3 of the held-out queries
awk -F': ' '/"warm_wins"/ { gsub(/,/, "", $2); exit !($2 >= 3) }' \
    "$PDLIB_DIR/tr1.json"
grep -q '"warm_never_worse": true' "$PDLIB_DIR/tr1.json"
awk -F': ' '/"parameterized_hits"/ { gsub(/,/, "", $2); exit !($2 >= 3) }' \
    "$PDLIB_DIR/tr1.json"
# the three dispatch bugfix regressions must hold under the release
# optimizer: nearest-neighbor ties resolve by pinned key order, a poisoned
# (NaN-cost) machine model degrades to naive instead of serving NaN, and
# zero-step nearest records are skipped *and* counted
cargo test -q --release -p perfdojo-library --offline \
    nearest_equidistant_candidates_resolve_by_key_in_any_insertion_order
cargo test -q --release -p perfdojo-library --offline \
    poisoned_machine_model_serves_naive
cargo test -q --release -p perfdojo-library --offline \
    zero_step_nearest_record_is_counted_in_stats

echo "== 13/13 clippy: every workspace target, deny-by-default lints =="
cargo clippy --workspace --all-targets --offline

echo "ci.sh: all gates passed"
