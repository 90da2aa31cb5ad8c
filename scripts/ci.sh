#!/usr/bin/env bash
# Offline CI gate: build, tests (including the lemma-corpus audit),
# formatting, and lints. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The tier-1 commands as ROADMAP.md states them: `default-members` in the
# root manifest makes them cover every crate, not the root package alone.
echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> release-only checks (the debug run above skips every timing assert and GPT at parallelism 16)"
cargo test --release -q --test ematch_perf --test moe_perf --test num_perf --test parallelism16

echo "==> benchmark package smoke (stand-alone build against the public API, one round)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null \
  || { echo "benchmark smoke FAILED (a public-API change broke benchmark/?)"; exit 1; }
echo "    benchmark/ builds and every workload judges correct"
# A crates/*/Cargo.toml edit that would make cargo rewrite benchmark/Cargo.lock
# fails here, not as a dirtied benchmark path at run time.
cargo metadata --format-version 1 --locked --offline --manifest-path benchmark/Cargo.toml >/dev/null \
  || { echo "benchmark/Cargo.lock is stale (a crate manifest changed its dependencies?)"; exit 1; }
# The telemetry boundary (DESIGN.md): engines return reports, only `entangle`
# and `entangle-cli` record them. One `_with_metrics` twin here erodes it.
if grep -rnE 'entangle_metrics|entangle_trace::Tracer' crates/{egraph,cert,iso,rules,par,num,shard}/src; then
  echo "an engine crate touches the metrics registry or the tracer (return a report instead)"; exit 1
fi
# One timing source (DESIGN.md, *Metrics and run ledger*): durations live in
# the span stream and the registry keeps counts, so no histogram kind grows
# back; and the check path analyses every certificate afresh, with no
# process-global numeric memo in front of it.
if grep -rnE 'Histogram|\.histogram\(' crates/*/src; then
  echo "a histogram is back in crates/ (durations belong to the trace spans)"; exit 1
fi
if grep -rn 'analyze_certificate_cached' crates/core/src; then
  echo "the check path reads the process-global numeric memo again (call analyze_certificate)"; exit 1
fi
# One replay path (DESIGN.md, *Structural template analysis*): every repeated
# operator replays through the concrete memo in `run_op`. The checker neither
# reads the `entangle-iso` partition nor keys, instantiates or retargets a
# template, and the three template fields of `ParStats` stay 0.
# `CheckOptions` carries only knobs some caller sets.
replay=$(for f in crates/core/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E 'entangle_iso|template_key|TemplateKey|retarget_' || true)
if [ -n "$replay" ]; then
  echo "$replay"
  echo "the checker grew a template path beside the concrete memo again (one replay path)"; exit 1
fi
template_writes=$(grep -rnE '\btemplate_(hits|instantiated|fallbacks) *(\+=|-=|=[^=]|:)' \
    crates src tests examples --include='*.rs' \
  | grep -vE '^crates/core/src/checker\.rs:[0-9]+: *pub template_(hits|instantiated|fallbacks): u64,$' || true)
if [ -n "$template_writes" ]; then
  echo "$template_writes"
  echo "a ParStats template field is written (they are always 0: count memo replays in cache_hits)"; exit 1
fi
# One thread (DESIGN.md, *The map stage*): the map stage is Listing 1's
# in-order loop. No thread, lock or atomic grows back in its non-test code,
# and `CheckOptions::jobs` stays a field nothing reads, so no worker count
# can creep back in through it.
threaded=$(for f in crates/core/src/*.rs crates/par/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E 'std::thread|thread::scope|Mutex|Condvar|mpsc|Atomic' || true)
if [ -n "$threaded" ]; then
  echo "$threaded"
  echo "the map stage grew a thread, lock or atomic again (it is one in-order loop)"; exit 1
fi
jobs_uses=$(grep -rnE '\.jobs\b|\bjobs *:' crates src tests examples --include='*.rs' \
  | grep -vE '^crates/core/src/checker\.rs:[0-9]+: *(pub jobs: usize|jobs: 1),$' || true)
if [ -n "$jobs_uses" ]; then
  echo "$jobs_uses"
  echo "CheckOptions::jobs is used beyond its declaration and Default (it is a no-op)"; exit 1
fi
check_fields=$(awk '/^pub struct CheckOptions \{/{on=1; next} on && /^\}/{on=0} on && /^    pub /' \
  crates/core/src/checker.rs | wc -l)
if [ "$check_fields" -gt 11 ]; then
  echo "CheckOptions has $check_fields pub fields (at most 11: a knob no caller sets is a constant)"; exit 1
fi

# One operator evaluator: `entangle_runtime::kernels::eval_op_in`, which the
# f64 oracle and the symbolic model both run. An arm that reads an operator's
# attribute is an evaluator's (the capacity hint in crates/num names every
# operator too, as `Op::Softmax { .. }`): a second one must not grow back.
evaluators=$(grep -rn 'Op::Softmax { dim }' crates/runtime/src crates/num/src --include='*.rs' \
  | grep -v 'tests.rs' | wc -l)
if [ "$evaluators" -ne 1 ]; then
  echo "expected one operator evaluator under crates/runtime and crates/num, found $evaluators"; exit 1
fi

# One matmul element: a `Node::Dot`, built by `Arena::dot` and shared by
# interning. The memo that used to stand beside the multiply-add chains must
# not come back as a second path beside the node.
if grep -rnE 'dot_memo|bypass_dot_memo|dot_hits' crates/ tests/ benchmark/src; then
  echo "the dot-product memo is back (interning a Dot node is the memo)"; exit 1
fi
# The differential oracle stays the algorithm the classifier replaced: it
# unfolds a `Dot` into one product per pair and never writes a run of them as
# a `Sum`, so the tests keep holding the `Sum` path to product-by-product
# unfolding (DESIGN.md, *Classification*).
if grep -n 'Node::Sum' crates/num/src/sym/oracle.rs; then
  echo "the numeric oracle builds a Sum (it unfolds a Dot one product per pair)"; exit 1
fi

# What depends only on the rule corpus is cheap, not cached, and built once
# per check: the schedule derivation keeps no process-global memo, and the
# runner compiles a matcher only in `Runner::run`, the wrapper for callers
# with a single run (`run_with` takes the check's).
if grep -nE 'static CACHE|OnceLock' crates/rules/src/lib.rs; then
  echo "crates/rules memoizes again (backoff_schedule is a bucketed pass: keep it cheap instead)"; exit 1
fi
compiles=$(grep -c 'CompiledMatcher::compile(' crates/egraph/src/runner.rs)
if [ "$compiles" -ne 1 ]; then
  echo "expected CompiledMatcher::compile once in runner.rs (the Runner::run wrapper), found $compiles"; exit 1
fi

# Saturation searches through the compiled matcher alone, into flat reused
# buffers (DESIGN.md, *Compiled e-matching*): the recursive matcher is only
# the reference the oracle tests hold it to, one apply loop remains, and a
# lemma reads its parents through a borrow, not a cloned list.
if grep -nE 'search_with_stats\(' crates/egraph/src/{machine,runner}.rs; then
  echo "the runner reaches the recursive matcher again (compile the pattern instead)"; exit 1
fi
if grep -n 'fn apply(' crates/egraph/src/rewrite.rs; then
  echo "a second apply loop is back in rewrite.rs (apply_deduped is the one)"; exit 1
fi
if grep -rn 'parent_nodes(' crates src tests benchmark/src --include='*.rs' \
    | grep -v '^crates/egraph/src/tests\.rs:'; then
  echo "parent_nodes is back (borrow through TermStore::parents)"; exit 1
fi

# One term store in the trusted kernel (DESIGN.md, *Certificates and the
# trusted kernel*): lemma conditions and dynamic appliers run on the
# certificate's term table through `TermStore`; no e-graph, e-graph search or
# e-graph apply path grows back beside it.
if grep -nE 'EGraph|search_eclass|apply_match|union_count|register_leaf' \
    crates/cert/src/{kernel,table}.rs; then
  echo "the kernel reaches into the saturation engine again (run lemma code on its Store)"; exit 1
fi
# The kernel-proper line count DESIGN's TCB paragraph states is this count,
# within 50 lines.
kernel_lines=$(cat crates/cert/src/{kernel,table}.rs | wc -l)
stated=$(grep -oE 'kernel proper \(`kernel.rs` \+ `table.rs`\) is [0-9 ]+ lines' DESIGN.md \
  | grep -oE '[0-9][0-9 ]*[0-9]' | tr -d ' ' || true)
if [ -z "$stated" ] || [ $((kernel_lines - stated)) -gt 50 ] || [ $((stated - kernel_lines)) -gt 50 ]; then
  echo "DESIGN.md states a kernel proper of ${stated:-no} lines; kernel.rs + table.rs are $kernel_lines"; exit 1
fi

# One certificate format: version 2, written compactly straight from the term
# table. Neither the pretty-printer nor a version-1 branch may come back.
if grep -nE 'to_string_pretty|Json::Int\(1\)' crates/cert/src/json.rs; then
  echo "crates/cert/src/json.rs pretty-prints or reads version 1 again (one format: v2, compact)"; exit 1
fi
# The reader copies each term-table entry out once, in its per-entry memo,
# and every position naming the entry shares that storage: a second
# `materialise(` call is a second copy path beside the memo.
materialises=$(grep -c 'materialise(' crates/cert/src/json.rs || true)
if [ "$materialises" -gt 1 ]; then
  echo "crates/cert/src/json.rs calls materialise( $materialises times (one: the reader's per-entry memo)"; exit 1
fi

# One term semantics (DESIGN.md, *Term language*): the shape rule of an
# application is `entangle_lemmas::infer_application`, the `~ones[…]` leaf
# grammar `mint_ones_leaf`/`parse_ones_leaf` beside it, the ground f64
# evaluator `entangle_lint::eval_ground`. Who still needs the `Op` itself
# decodes it: the rule, num's `apply_op`, the ground evaluator, and
# `append_expr` — a fifth `decode_op(` is a hand-copied term walker growing back
# (crates/ir's `decode_op` is the JSON reader's, another function).
if grep -rnE 'fn parse_ones|strip_prefix\("ones' crates tests src examples benchmark/src \
    --include='*.rs' | grep -v '^crates/lemmas/'; then
  echo "a synthetic-leaf parser outside crates/lemmas (call entangle_lemmas::parse_ones_leaf)"; exit 1
fi
decoders=$(grep -rn 'decode_op(' crates --include='*.rs' \
  | grep -v -e '/tests\.rs:' -e '^crates/ir/' -e 'pub fn decode_op(' | cut -d: -f1 | sort | tr '\n' ' ')
if [ "$decoders" != "crates/core/src/expect.rs crates/lemmas/src/term.rs crates/lint/src/audit.rs crates/num/src/eval.rs " ]; then
  echo "decode_op is called from: $decoders(expected once each in expect.rs, term.rs, audit.rs, num's eval.rs)"; exit 1
fi
if grep -rn 'fn eval_expr' tests crates/*/src/tests.rs; then
  echo "a test grew its own term evaluator (call entangle_lint::eval_ground)"; exit 1
fi

echo "==> model-zoo shard sweep (entangle shard over exported strategies)"
cargo run --release -q -p entangle-bench --bin export_zoo -- examples/graphs
for gd in examples/graphs/*.gd.json; do
  base="${gd%.gd.json}"
  ./target/release/entangle shard "$gd" --gs "$base.gs.json" --maps "$base.maps" >/dev/null \
    || { echo "shard sweep FAILED on $base"; exit 1; }
done
echo "    7 workloads clean"

echo "==> model-zoo check sweep"
for gd in examples/graphs/*.gd.json; do
  base="${gd%.gd.json}"
  ./target/release/entangle check "$base.gs.json" "$gd" --maps "$base.maps" >/dev/null \
    || { echo "check FAILED on $base"; exit 1; }
done
echo "    7 workloads clean"

echo "==> model-zoo certify sweep (emit certificates, re-check with the trusted kernel)"
certdir=$(mktemp -d)
trap 'rm -rf "$certdir"' EXIT
for gd in examples/graphs/*.gd.json; do
  base="${gd%.gd.json}"
  cert="$certdir/$(basename "$base").cert.json"
  ./target/release/entangle certify "$base.gs.json" "$gd" --maps "$base.maps" --emit "$cert" >/dev/null \
    || { echo "certify (emit) FAILED on $base"; exit 1; }
  ./target/release/entangle certify "$base.gs.json" "$gd" --check "$cert" >/dev/null \
    || { echo "certify (re-check) FAILED on $base"; exit 1; }
done
echo "    7 certificates emitted and kernel-accepted"
# A count, not a time: sharing keeps a certificate near the size of its
# distinct terms (32 214 B before the term table). The deep twin of this guard
# — gpt_workload(8, 2) within 400 000 B and 2 200 table entries — is
# `certificate_sizes_stay_within_their_count_guards` in crates/cert, which the
# workspace test run above executed.
tp2_bytes=$(wc -c < "$certdir/gpt_tp2.cert.json")
[ "$tp2_bytes" -le 12000 ] \
  || { echo "gpt_tp2's certificate is $tp2_bytes B (> 12000: is every term still written once?)"; exit 1; }
echo "    gpt_tp2 certificate: $tp2_bytes B"

echo "==> model-zoo trace sweep (--trace on every subcommand, validate with trace --check)"
tracedir=$(mktemp -d)
trap 'rm -rf "$certdir" "$tracedir"' EXIT
for gd in examples/graphs/*.gd.json; do
  base="${gd%.gd.json}"
  name=$(basename "$base")
  ./target/release/entangle --trace "$tracedir/$name.check.jsonl" \
    check "$base.gs.json" "$gd" --maps "$base.maps" >/dev/null \
    || { echo "traced check FAILED on $base"; exit 1; }
  ./target/release/entangle --trace "$tracedir/$name.shard.jsonl" \
    shard "$gd" --gs "$base.gs.json" --maps "$base.maps" >/dev/null \
    || { echo "traced shard FAILED on $base"; exit 1; }
  ./target/release/entangle --trace "$tracedir/$name.info.jsonl" \
    info "$gd" >/dev/null \
    || { echo "traced info FAILED on $base"; exit 1; }
  for t in "$tracedir/$name".*.jsonl; do
    ./target/release/entangle trace --check "$t" >/dev/null \
      || { echo "trace validation FAILED on $t"; exit 1; }
  done
done
echo "    21 traces emitted, parsed, and balanced"

echo "==> model-zoo iso sweep (entangle iso, clean template partitions)"
for gd in examples/graphs/*.gd.json; do
  ./target/release/entangle iso "$gd" --json >/dev/null \
    || { echo "iso sweep FAILED on $gd"; exit 1; }
done
echo "    7 graphs partitioned, no IS errors; goldens pinned by tests/iso_golden.rs"

echo "==> deep-model certify round-trip (16-layer Llama-3 tp8, emit + kernel re-check)"
cargo run --release -q -p entangle-bench --bin export_zoo -- "$certdir" --deep-llama 16
deep="$certdir/llama3_l16"
./target/release/entangle certify "$deep.gs.json" "$deep.gd.json" --maps "$deep.maps" \
  --emit "$deep.cert.json" >/dev/null \
  || { echo "deep certify (emit) FAILED"; exit 1; }
./target/release/entangle certify "$deep.gs.json" "$deep.gd.json" --check "$deep.cert.json" >/dev/null \
  || { echo "deep certify (re-check) FAILED"; exit 1; }
echo "    16-layer certificate emitted and kernel-accepted"

echo "==> rule-corpus static analysis (entangle rules, clean corpus gate)"
./target/release/entangle rules --json > /dev/null \
  || { echo "entangle rules found error-severity RL diagnostics"; exit 1; }
rules_summary=$(./target/release/entangle rules)
echo "    ${rules_summary%%$'\n'*}"
echo "    corpus clean (no RL errors); golden output pinned by tests/rules_golden.rs"

echo "==> numeric-soundness corpus gate (entangle num, clean corpus)"
./target/release/entangle num --json > /dev/null \
  || { echo "entangle num found error-severity NU diagnostics"; exit 1; }
num_summary=$(./target/release/entangle num)
echo "    ${num_summary%%$'\n'*}"
echo "    corpus numerically clean (no NU errors); goldens pinned by tests/num_golden.rs"

echo "==> certificate numeric-verdict sweep (derived tolerances embedded, none value-changing)"
ncerts=0
for cert in "$certdir"/*.cert.json; do
  grep -q '"numeric"' "$cert" \
    || { echo "certificate $cert lacks embedded numeric verdicts"; exit 1; }
  if grep -q '"value-changing"' "$cert"; then
    echo "certificate $cert carries a value-changing output verdict"; exit 1
  fi
  ncerts=$((ncerts + 1))
done
echo "    $ncerts certificates carry sound embedded numeric verdicts"

echo "==> trace profile smoke (entangle trace gpt-tp2)"
./target/release/entangle trace gpt-tp2 >/dev/null \
  || { echo "entangle trace gpt-tp2 FAILED"; exit 1; }

echo "==> run-ledger + regression-report smoke (two clean runs, then forced regressions)"
ledgerdir=$(mktemp -d)
trap 'rm -rf "$certdir" "$tracedir" "$ledgerdir"' EXIT
ledger="$ledgerdir/ledger.jsonl"
base=examples/graphs/gpt_tp2
for run in 1 2; do
  ./target/release/entangle --ledger "$ledger" check "$base.gs.json" "$base.gd.json" \
    --maps "$base.maps" >/dev/null \
    || { echo "ledgered check (run $run) FAILED"; exit 1; }
done
[ "$(wc -l < "$ledger")" -eq 2 ] || { echo "ledger did not collect 2 records"; exit 1; }
./target/release/entangle --ledger "$ledger" report >/dev/null \
  || { echo "entangle report flagged identical back-to-back runs"; exit 1; }
# Forced slowdown: rewrite the latest record's wall_ms far past the noise
# band (>1.5x median and >+5ms); report must exit 8.
awk 'NR==2 { if (match($0, /"wall_ms":[0-9.]+/)) {
       pre=substr($0,1,RSTART-1); mid=substr($0,RSTART,RLENGTH);
       post=substr($0,RSTART+RLENGTH); split(mid,a,":");
       $0=pre "\"wall_ms\":" a[2]*10+50 post } } {print}' \
  "$ledger" > "$ledgerdir/slow.jsonl"
rc=0; ./target/release/entangle --ledger "$ledgerdir/slow.jsonl" report >/dev/null || rc=$?
[ "$rc" -eq 8 ] || { echo "report missed an injected 10x slowdown (exit $rc)"; exit 1; }
# Forced verdict flip: any flip is a regression; report must exit 8.
sed '2s/"verdict":"verified"/"verdict":"failed:cert-rejected"/' \
  "$ledger" > "$ledgerdir/flip.jsonl"
rc=0; ./target/release/entangle --ledger "$ledgerdir/flip.jsonl" report >/dev/null || rc=$?
[ "$rc" -eq 8 ] || { echo "report missed an injected verdict flip (exit $rc)"; exit 1; }
echo "    clean report on identical runs; injected slowdown and verdict flip both exit 8"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (-D warnings + pedantic subset)"
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::uninlined_format_args \
  -W clippy::explicit_iter_loop \
  -W clippy::manual_let_else \
  -W clippy::semicolon_if_nothing_returned

echo "CI OK"
