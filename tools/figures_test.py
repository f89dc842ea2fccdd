#!/usr/bin/env python3
"""Gate-semantics test for figures.py.

Each headline-claim gate must fire on an artifact doctored to break just
that claim (a gate that never fires proves nothing), and the committed
artifacts must render every table and pass every gate.

Usage: figures_test.py path/to/figures.py BENCH_fig_main.json [more.json ...]
"""

import json
import os
import subprocess
import sys
import tempfile

FIGURES, MAIN, OTHERS = sys.argv[1], sys.argv[2], sys.argv[3:]


def run(*args):
    return subprocess.run([sys.executable, FIGURES, *args],
                          capture_output=True, text=True)


def expect(cond, r, what):
    if not cond:
        print(f"FAIL: {what}\nstdout:\n{r.stdout}\nstderr:\n{r.stderr}")
        sys.exit(1)


r = run(MAIN, *OTHERS)
expect(r.returncode == 0 and "skipped" not in r.stdout, r,
       "the committed artifacts should render every table")
r = run("--check", MAIN)
expect(r.returncode == 0, r, "the committed artifact should pass every gate")

with open(MAIN) as f:
    pristine = f.read()


def summary(doc, run_id):
    run = next(r for r in doc["runs"] if r["id"] == run_id)
    return run["result"]["summary"]


def copy_field(doc, src, dsts, field):
    for dst in dsts:
        summary(doc, dst)[field] = summary(doc, src)[field]


# (what breaks, the output line that must name it, the doctoring)
CASES = [
    ("metadata 17 B", "FAIL metadata",
     lambda d: summary(d, "faastcc/z1.25").update(metadata_p99=17)),
    ("two storage rounds", "FAIL rounds",
     lambda d: summary(d, "faastcc/z1.50").update(rounds_p99=2)),
    ("p99 tied with HydroCache-Dynamic", "FAIL p99",
     lambda d: copy_field(d, "hc-dynamic/z1.00", ["faastcc/z1.00"],
                          "latency_p99_ms")),
    ("flat HydroCache-Static aborts", "FAIL aborts",
     lambda d: copy_field(d, "hc-static/z1.00",
                          ["hc-static/z1.25", "hc-static/z1.50"],
                          "abort_rate")),
    ("no HydroCache-Static aborts at Zipf 1.0", "FAIL aborts",
     lambda d: summary(d, "hc-static/z1.00").update(abort_rate=0)),
    ("a run missing", "missing",
     lambda d: d.update(runs=[r for r in d["runs"]
                              if r["id"] != "faastcc/z1.00"])),
]

with tempfile.TemporaryDirectory() as tmp:
    for name, message, break_claim in CASES:
        doc = json.loads(pristine)
        break_claim(doc)
        path = os.path.join(tmp, "doctored.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        r = run("--check", path)
        expect(r.returncode == 1 and message in r.stdout, r,
               f"{name}: expected exit 1 with '{message}'")

print(f"figures_test: ok ({len(CASES)} doctored artifacts rejected)")
