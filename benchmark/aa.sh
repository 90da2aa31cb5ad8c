#!/usr/bin/env bash
# A/A check: run the full benchmark twice on the same build and fail if any
# end-to-end metric's two values differ by more than that metric's own bound
# in BENCHMARK.json. Prints both values, and each run's per-round quartiles,
# so the bound can be re-derived. Arguments are passed to both runs
# (e.g. `benchmark/aa.sh --workload bugs18`).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
}

first=$(run "$@")
second=$(run "$@")

FIRST="$first" SECOND="$second" python3 - <<'PY'
import json, os, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def parse(text):
    """workload -> (metrics of its JSON line, its annotation lines)"""
    out, name, notes = {}, None, []
    for line in text.splitlines():
        if line.startswith("== "):
            name, notes = line.split()[1], []
        elif line.startswith("  "):
            notes.append(line)
        elif line.startswith("{"):
            out[name] = (json.loads(line)["metrics"], notes)
    return out

first, second = parse(os.environ["FIRST"]), parse(os.environ["SECOND"])
bad = 0
for workload, (m1, notes1) in first.items():
    m2, notes2 = second[workload]
    print(f"== {workload} ==")
    for name, bound in bounds.items():
        a, b = m1[name]["value"], m2[name]["value"]
        diff = abs(a - b) / min(a, b)
        verdict = "ok" if diff <= bound else "DIFFERS"
        bad += diff > bound
        print(f"{name:<14} {a:>14.4f} {b:>14.4f} {m1[name]['unit']:<3} "
              f"differ {diff:7.2%}  bound {bound:.0%}  {verdict}")
    for label, notes in (("first", notes1), ("second", notes2)):
        for note in notes:
            print(f"  {label}:{note}")
if bad:
    sys.exit(f"{bad} metric(s) differ by more than their bound between two runs of the same build")
print("every end-to-end metric of every workload agrees within its bound")
PY
