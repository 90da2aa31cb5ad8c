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

echo "==> release-only checks (the debug run above skips every timing assert)"
cargo test --release -q --test ematch_perf --test moe_perf --test num_perf --test parallelism16

echo "==> the paper's evaluation (reproduce: every section, exact counts in results/reproduce.tsv)"
cargo run --release -q -p entangle-bench --bin reproduce >/dev/null
git diff --exit-code results/reproduce.tsv \
  || { echo "results/reproduce.tsv is stale: commit what reproduce wrote (tests/reproduce.rs checks the claims against it)"; exit 1; }
echo "    results/reproduce.tsv regenerated, identical to the tracked file"
# One evaluation command (EXPERIMENTS.md): `reproduce` replaced seven
# per-figure bins, and neither the bins nor a doc naming them grows back.
old_bins='fig3_verification_time|fig4_scalability|fig5_lemma_effort|fig6_lemma_heatmap|table3_bugs|beyond_paper'
if ls crates/bench/src/bin | grep -E "^($old_bins|ablations)\.rs$" \
  || grep -nE "\b($old_bins)\b|--bin +ablations\b|bin/ablations\b|\`ablations\` bin" \
    crates/bench/src/bin/*.rs README.md DESIGN.md EXPERIMENTS.md; then
  echo "a per-figure bin is back (run the section in reproduce)"; exit 1
fi

echo "==> benchmark package smoke (stand-alone build against the public API, one round)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null \
  || { echo "benchmark smoke FAILED (a public-API change broke benchmark/?)"; exit 1; }
echo "    benchmark/ builds and every workload judges correct"
# A crates/*/Cargo.toml edit that would make cargo rewrite benchmark/Cargo.lock
# fails here, not as a dirtied benchmark path at run time.
cargo metadata --format-version 1 --locked --offline --manifest-path benchmark/Cargo.toml >/dev/null \
  || { echo "benchmark/Cargo.lock is stale (a crate manifest changed its dependencies?)"; exit 1; }
# The telemetry boundary (DESIGN.md): engines return reports, `entangle`
# folds them into one snapshot per check and `entangle-cli` writes it. One
# `_with_metrics` twin here erodes it.
if grep -rnE 'entangle_metrics|entangle_trace::Tracer' crates/{egraph,cert,iso,rules,par,num,shard}/src; then
  echo "an engine crate touches entangle-metrics or the tracer (return a report: core folds it, the CLI writes it, nothing records)"; exit 1
fi
# One count source (DESIGN.md, *Metrics and run ledger*): a check's snapshot
# is built once from the tallies the check keeps, so no live instrument,
# lock or name-keyed handle grows back in crates/metrics, and no second copy
# of the per-lemma counts grows back beside `SaturationSummary`.
recorder=$(for f in crates/metrics/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E 'Mutex|Atomic|Registry|Counter|Gauge' || true)
if [ -n "$recorder" ]; then
  echo "$recorder"
  echo "crates/metrics records live again (build the Snapshot from the check's tallies)"; exit 1
fi
if grep -rnwE 'LemmaStats|lemma_stats' crates src tests examples; then
  echo "a second per-lemma count is back (read SaturationSummary::lemma_count/lemma_total/lemma_counts)"; exit 1
fi
# One timing source (DESIGN.md, *Metrics and run ledger*): durations live in
# the span stream and the snapshot keeps counts, so no histogram kind grows
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
if [ "$check_fields" -gt 9 ]; then
  echo "CheckOptions has $check_fields pub fields (at most 9: a knob no caller sets is a constant)"; exit 1
fi
# One backoff rule (DESIGN.md, *The backoff scheduler*): every rewrite is
# budgeted alike, so the check path reads nothing of the rule-corpus
# analysis, and no per-rule throttle set or switch for it grows back.
rules_reads=$(for f in crates/core/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E 'entangle_rules' || true)
if [ -n "$rules_reads" ]; then
  echo "$rules_reads"
  echo "the checker reads entangle_rules again (the rule-corpus analysis is lint only)"; exit 1
fi
if grep -rnwE 'BackoffSchedule|with_backoff|rule_backoff' crates src tests examples; then
  echo "a per-rule backoff schedule is back (every rule has the one match budget)"; exit 1
fi

# One operator evaluator: `entangle_runtime::kernels::eval_op_in`, which the
# f64 oracle and the symbolic model both run. An arm that reads an operator's
# attribute is an evaluator's: a second one must not grow back.
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
# The numeric stage classifies rule instances over opaque `G_d` atoms
# (DESIGN.md, *Numeric-soundness analysis*): no pass evaluates `G_d` itself,
# nor sizes an arena from it, ahead of the proof steps.
if grep -rnE 'graph_tensors_sym|graph_nodes_hint|gd_pre' crates/ tests/; then
  echo "G_d pre-evaluation is back in the numeric stage (classify rule instances over opaque atoms)"; exit 1
fi
# One certificate walk (DESIGN.md, *Numeric-soundness analysis*): the numeric
# stage reads the kernel's resolved certificate (`entangle_cert::Resolved`),
# so no second term identity, shape rule or structural term comparison grows
# back in non-test code. A file is read up to its inline `#[cfg(test)] mod`,
# not its first `#[cfg(test)]`: `num/src/sym.rs` gates a module at line 22
# and `cert/src/table.rs` a counter before `Store`.
second_walk=$(find crates -path '*/src/*' -name '*.rs' ! -name tests.rs | sort | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]$/{t=1; next} t && /^mod [a-z_]+ *\{/{exit} {t=0; print f ":" FNR ": " $0}' "$f"
done | grep -wE 'node_meta|term_metas|term_hashes|exprs_eq|term_eq' || true)
if [ -n "$second_walk" ]; then
  echo "$second_walk"
  echo "a second term identity or shape rule is back beside the kernel's resolution (read entangle_cert::Resolved)"; exit 1
fi
# One lemma-instance classifier (DESIGN.md, *Classification*): the registry
# sweep writes each palette binding as two terms and classifies them through
# `eval::Classifier`, as the certificate walk does, one classifier per lemma.
# Its pattern evaluator, binding enum and per-binding arena stay gone, and in
# non-test crates/num/src a term reaches the arena only through
# `TermTable::eval` (`eval_node` is the one caller of `eval_op_sym`;
# `eval_op_in` runs at the arena in `eval_op_sym` and at the hash algebra in
# `hash_term`), so no second recursive evaluator grows back.
if grep -nE '\beval_pattern\b|\benum Binding\b|Arena::(new|default)\(' crates/num/src/corpus.rs; then
  echo "the registry sweep evaluates patterns on its own again (classify each binding through eval::Classifier)"; exit 1
fi
arena_evals=$(find crates/num/src -name '*.rs' ! -name tests.rs | sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]$/{t=1; next} t && /^mod [a-z_]+ *\{/{exit} {t=0}
    /^ *(pub(\(crate\))? )?fn [a-z_]+/ {match($0, /fn [a-z_]+/); fn=substr($0, RSTART + 3, RLENGTH - 3)}
    /^ *pub fn eval_op_sym\(/ {next}
    match($0, /eval_op_(sym|in)\(/) {print fn "->" substr($0, RSTART, RLENGTH - 1)}' "$f"
done | sort | tr '\n' ' ')
if [ "$arena_evals" != "eval_node->eval_op_sym eval_op_sym->eval_op_in hash_term->eval_op_in " ]; then
  echo "crates/num/src evaluates operators from: $arena_evals(expected eval_node->eval_op_sym, eval_op_sym->eval_op_in, hash_term->eval_op_in)"; exit 1
fi
# Every table the CLI prints goes through its own writer (`crates/cli/src/out.rs`):
# a closed stdout exits 141 quietly instead of panicking, so neither the CLI
# nor `entangle-bench`'s `format_table`, which it prints, writes with
# `print!`/`println!` directly.
direct_prints=$(for f in crates/bench/src/lib.rs crates/cli/src/*.rs; do
  case "$(basename "$f")" in tests.rs|out.rs) continue ;; esac
  awk -v f="$f" '/^#\[cfg\(test\)\]$/{t=1; next} t && /^mod [a-z_]+ *\{/{exit} {t=0; print f ":" FNR ": " $0}' "$f"
done | grep -vE '^[^:]+:[0-9]+: *//' | grep -E '\be?print(ln)?!\(' || true)
if [ -n "$direct_prints" ]; then
  echo "$direct_prints"
  echo "a direct print! is back on the CLI's path (format a String; the CLI prints it with out!/outln!)"; exit 1
fi
# The differential oracle stays the algorithm the classifier replaced: it
# unfolds a `Dot` into one product per pair and never writes a run of them as
# a `Sum`, so the tests keep holding the `Sum` path to product-by-product
# unfolding (DESIGN.md, *Classification*).
if grep -n 'Node::Sum' crates/num/src/sym/oracle.rs; then
  echo "the numeric oracle builds a Sum (it unfolds a Dot one product per pair)"; exit 1
fi

# What depends only on the rule corpus is cheap, not cached, and built once
# per check: the rule analysis keeps no process-global memo, and the
# runner compiles a matcher only in `Runner::run`, the wrapper for callers
# with a single run (`run_with` takes the check's).
if grep -nE 'static CACHE|OnceLock' crates/rules/src/lib.rs; then
  echo "crates/rules memoizes again (the driver derivation is a bucketed pass: keep it cheap instead)"; exit 1
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
# One JSON mechanism (DESIGN.md, *Certificates and the trusted kernel*):
# graphs and certificates are read once, through the pull `Reader` in
# crates/ir/src/json.rs; no whole-document value tree, or a `parse` that
# builds one, grows back beside it outside the tests.
tree=$(for f in crates/{ir,cert}/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E '\benum Json\b|\bJson::|\bfn parse\(|json::parse\b|\bparse as\b' || true)
if [ -n "$tree" ]; then
  echo "$tree"
  echo "crates/{ir,cert}/src defines or calls a whole-document JSON tree parse again (read through json::Reader)"; exit 1
fi
# The certificate term table's memo is keyed by nodes read from a file, so
# it keeps std's keyed hasher: FxHash is faster but has no collision
# resistance against a hostile file.
if grep -nE 'FxHash' crates/cert/src/table.rs; then
  echo "crates/cert/src/table.rs uses FxHash (the file-keyed memo keeps std's keyed hasher)"; exit 1
fi
# `from_json` copies each term-table entry out once, in its per-entry memo,
# and every position naming the entry shares that storage: a second
# `materialise(` call is a second copy path beside the memo.
materialises=$(grep -c 'materialise(' crates/cert/src/json.rs || true)
if [ "$materialises" -gt 1 ]; then
  echo "crates/cert/src/json.rs calls materialise( $materialises times (one: from_json's per-entry memo)"; exit 1
fi
# A re-check runs on the reader's own term table (DESIGN.md, *What a re-check
# reads*): `certify --check` reads with `read_json` and checks with
# `verify_file`, so it copies no term out of the table. The counting twin of
# `from_json` it used to call stays gone, and the CLI outside its tests never
# materialises a certificate.
if grep -rnw 'from_json_counting' crates src tests examples; then
  echo "from_json_counting is back (a re-check reads with read_json and checks with verify_file)"; exit 1
fi
recheck_copies=$(for f in crates/cli/src/*.rs; do
  [ "$(basename "$f")" = tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -E 'entangle_cert::(\{[^}]*)?\bfrom_json\b' || true)
if [ -n "$recheck_copies" ]; then
  echo "$recheck_copies"
  echo "crates/cli/src calls entangle_cert::from_json (re-check with read_json + verify_file: no term is copied out)"; exit 1
fi

# One term semantics (DESIGN.md, *Term language*): the shape rule of an
# application is `entangle_lemmas::infer_application`, the `~ones[…]` leaf
# grammar `mint_ones_leaf`/`parse_ones_leaf` beside it, the ground f64
# evaluator `entangle_lint::eval_ground`. Who still needs the `Op` itself
# decodes it: the rule, num's `TermTable`, the ground evaluator, and
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
# One operator table (DESIGN.md, *Term language*): an operator's term head,
# graph-format tag, arity and attribute order are one `row(..)` of `OPS` in
# crates/ir/src/op.rs, which the graph codec and `decode_op` read. A quoted
# tag (`"ScalarMul"`) or a term head as a match arm (`"scalar_mul" =>`) in
# non-test code anywhere else is a hand-copied vocabulary growing back.
ops_table=crates/ir/src/op.rs
tags=$(awk -F'"' '/^ *row\(Op::/ {print $4}' "$ops_table" | paste -sd'|')
heads=$(awk -F'"' '/^ *row\(Op::/ {print $2}' "$ops_table" | paste -sd'|')
case "|$tags|" in *'|ScalarMul|'*'|ReduceScatter|'*) ;; *)
  echo "could not read the operator tags from the rows of $ops_table"; exit 1 ;;
esac
vocab_copies=$(find crates src examples -name '*.rs' -not -path "$ops_table" \
    -not -name tests.rs -not -path '*/tests/*' | sort | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done | grep -vE '^[^:]+:[0-9]+: *//' \
  | grep -E "\"($tags)\"|\"($heads)\" *(=>|\|([^|]|$))" || true)
if [ -n "$vocab_copies" ]; then
  echo "$vocab_copies"
  echo "an operator tag or term-head match arm outside $ops_table (read entangle_ir::OPS)"; exit 1
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
