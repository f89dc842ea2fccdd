#!/usr/bin/env python3
"""Print the paper's §6 figures from the figure sweep artifacts, and gate
the headline claims.

    python3 tools/figures.py                  # every table, committed artifacts
    python3 tools/figures.py --check          # the headline-claim gates
    python3 tools/figures.py fresh_main.json  # only what these runs cover

The artifacts are `tcc_sweep` outputs of plans/fig_*.json (default: the
committed BENCH_fig_*.json).  Runs are read by id from `runs`, never from
`cells`, whose key averages distinct figure points together
(docs/sweeps.md).

Gates (--check prints each; exit 1 when one fails, 2 on unreadable input):
  metadata  FaaSTCC's function-to-function metadata is exactly 16 B
  rounds    FaaSTCC's storage rounds per consistent read have p99 = 1
  p99       FaaSTCC's p99 latency is below HydroCache-Dynamic's at every skew
  aborts    HydroCache-Static aborts are nonzero and rise with skew
"""

import glob
import json
import os
import sys

ZIPFS = ["1.00", "1.25", "1.50"]
HCS = ("hc-static", "HydroCache-Static")
HCD = ("hc-dynamic", "HydroCache-Dynamic")
FT = ("faastcc", "FaaSTCC")
TCC = [HCS, HCD, FT]
CACHE_CAPS = [(0, "0%"), (1000, "1%"), (10000, "10%"), (50000, "50%")]
DAG_SIZES = [3, 6, 9, 12, 15]

# Paper reference values (Middleware'21, §6): per variant, one entry per
# ZIPFS point (Fig. 9: per CACHE_CAPS point, None where unlabelled).
PAPER = {
    "3": {"mech-none": 1.00, "mech-promise": 0.71,
          "mech-promise-interval": 0.48},
    "4a": {"hc-static": [(9.7, 18.7), (11.4, 24.5), (13.4, 28.8)],
           "hc-dynamic": [(51.4, 86.1), (25.6, 51.7), (17.7, 37.6)],
           "faastcc": [(10.2, 14.8), (12.0, 16.4), (12.4, 16.8)]},
    "4b": {"hc-static": [(1649.5,), (1403.5,), (1194.0,)],
           "hc-dynamic": [(311.3,), (625.0,), (904.0,)],
           "faastcc": [(1568.6,), (1333.3,), (1290.3,)]},
    "5": {"hc-dynamic": [(72288.9, 131984.0), (33867.2, 57696.0),
                         (13625.6, 22128.0)],
          "faastcc": [(16.0, 16.0)] * 3},
    "6": {"hc-dynamic": [(1.7, 6.0), (2.1, 12.0), (2.7, 23.0)],
          "faastcc": [(1.0, 1.0)] * 3},
    "7": {"hc-dynamic": [(3436.0, 15048.0), (3853.4, 16368.0),
                         (4016.4, 17756.6)],
          "faastcc": [(18.3, 32.0), (20.7, 32.0), (22.1, 32.0)]},
    "9": {"hc-static": [(36.5, 99.1), (28.2, 61.6), (16.5, 41.5), None],
          "hc-dynamic": [(56.5, 118.1), (53.3, 104.7), (51.7, 99.8), None],
          "faastcc": [(22.4, 25.6), (16.2, 19.2), (14.1, 19.0),
                      (10.2, 16.9)]},
    "11": {"hc-static": [(1.2, 2.0), (1.7, 3.2), (2.1, 4.0)],
           "hc-dynamic": [(6.3, 9.3), (3.7, 6.7), (2.7, 5.2)],
           "faastcc": [(1.3, 1.6), (1.7, 2.1), (1.9, 2.3)]},
}


def f(v, digits=1):
    return f"{v:.{digits}f}"


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != "faastcc.sweep.v1":
            raise ValueError(f"{path}: not a faastcc.sweep.v1 artifact")
        for run in doc["runs"]:
            if run["id"] in runs:
                raise ValueError(f"{path}: run id {run['id']} seen twice")
            runs[run["id"]] = run["result"]
    return runs


class Figures:
    def __init__(self, runs):
        self.runs = runs

    def s(self, run_id):
        """The run's summary plus its throughput."""
        run = self.runs[run_id]
        return dict(run["summary"], throughput=run["throughput"])

    def by_skew(self, variants, cells, paper, digits, extra=lambda s: []):
        """Rows of [system, zipf, *cells(s), *paper values, *extra(s)]."""
        return [[name, z] + cells(self.s(f"{var}/z{z}")) +
                [f(v, digits) for v in PAPER[paper][var][i]] +
                extra(self.s(f"{var}/z{z}"))
                for var, name in variants for i, z in enumerate(ZIPFS)]

    def fig3(self):
        base = self.s("mech-none")["latency_med_ms"]
        rows = []
        for knob, name in [("mech-none", "No-promise / Fixed-snapshot"),
                           ("mech-promise", "Promise / Fixed-snapshot"),
                           ("mech-promise-interval",
                            "Promise / Snapshot-interval")]:
            med = self.s(knob)["latency_med_ms"]
            rows.append([name, f(med, 2), f(med / base, 2),
                         f(PAPER["3"][knob], 2)])
        return ("Fig. 3: promises and snapshot intervals (FaaSTCC, Zipf 1.0)",
                ["configuration", "median ms", "normalized",
                 "paper normalized"], rows)

    def fig4a(self):
        return ("Fig. 4a: latency (ms)",
                ["system", "zipf", "median", "p99", "paper median",
                 "paper p99", "abort %"],
                self.by_skew(TCC, lambda s: [f(s["latency_med_ms"]),
                                             f(s["latency_p99_ms"])],
                             "4a", 1, lambda s: [f(100 * s["abort_rate"])]))

    def fig4b(self):
        return ("Fig. 4b: throughput (DAGs/s)",
                ["system", "zipf", "throughput", "paper throughput"],
                self.by_skew(TCC, lambda s: [f(s["throughput"])], "4b", 1))

    def per_read(self, key, digits, paper, extra=lambda s: []):
        """HydroCache-Dynamic and FaaSTCC rows of a median/p99 metric."""
        return self.by_skew([HCD, FT], lambda s: [f(s[key + "_med"], digits),
                                                  f(s[key + "_p99"], digits)],
                            paper, digits, extra)

    def fig5(self):
        return ("Fig. 5: metadata between functions (bytes)",
                ["system", "zipf", "median B", "p99 B", "paper median B",
                 "paper p99 B", "ratio vs 16 B"],
                self.per_read("metadata", 0, "5", lambda s: [
                    f(s["metadata_med"] / 16, 0) + "x"]))

    def fig6(self):
        return ("Fig. 6: storage rounds per consistent read",
                ["system", "zipf", "median", "p99", "paper median",
                 "paper p99"], self.per_read("rounds", 1, "6"))

    def fig7(self):
        return ("Fig. 7: bytes per consistent storage read",
                ["system", "zipf", "median B", "p99 B", "paper median B",
                 "paper p99 B"], self.per_read("read_bytes", 0, "7"))

    def fig8(self):
        rows = []
        for z in ZIPFS:
            hc, ft = self.s(f"hc-dynamic/z{z}"), self.s(f"faastcc/z{z}")
            rows.append([z, f(hc["cache_bytes"] / 1048576),
                         f(ft["cache_bytes"] / 1048576),
                         f(ft["cache_bytes"] / hc["cache_bytes"], 2),
                         f(hc["cache_entries"], 0), f(ft["cache_entries"], 0)])
        return ("Fig. 8: cache consumption, normalized to HydroCache",
                ["zipf", "HydroCache MiB", "FaaSTCC MiB",
                 "FaaSTCC normalized", "HC keys", "FaaSTCC keys"], rows,
                "Paper: bars without numeric labels.")

    def fig9(self):
        rows = []
        for var, name in TCC:
            for (cap, label), ref in zip(CACHE_CAPS, PAPER["9"][var]):
                s = self.s(f"{var}/cap{cap}")
                rows.append([name, label, f(s["latency_med_ms"]),
                             f(s["latency_p99_ms"])] +
                            ([f(ref[0]), f(ref[1])] if ref else ["-", "-"]))
        return ("Fig. 9: latency under bounded caches (ms, Zipf 1.0)",
                ["system", "cache size", "median", "p99", "paper median",
                 "paper p99"], rows,
                "Cache sizes are entries per node cache: 0/1000/10000/50000 "
                "of the 100,000 an unbounded cache holds.")

    def fig10(self, z):
        rows = []
        for var, name in TCC:
            per_fn = [self.s(f"{var}/z{z}/d{n}")["latency_med_ms"] / n
                      for n in DAG_SIZES]
            rows.append([name] + [f(v, 2) for v in per_fn] +
                        [f(per_fn[-1] / per_fn[0]) + "x"])
        return (f"Fig. 10: median per-function latency (ms) vs DAG size, "
                f"Zipf {z}", ["system"] + [f"dag={n}" for n in DAG_SIZES] +
                ["growth 3->15"], rows)

    def fig11(self):
        rows = []
        for i, z in enumerate(ZIPFS):
            base = self.s(f"cloudburst/z{z}")
            for var, name in TCC:
                s = self.s(f"{var}/z{z}")
                rows.append([name, z,
                             f(s["latency_med_ms"] / base["latency_med_ms"]),
                             f(s["latency_p99_ms"] / base["latency_p99_ms"])] +
                            [f(v) for v in PAPER["11"][var][i]])
        return ("Fig. 11: latency overhead vs eventual consistency "
                "(Cloudburst)", ["system", "zipf", "median ratio",
                                 "p99 ratio", "paper median", "paper p99"],
                rows)

    def text63(self):
        rows = [[z, f(100 * self.s(f"hc-static/z{z}")["abort_rate"]),
                 f(100 * self.s(f"hc-dynamic/z{z}")["hit_rate"]),
                 f(100 * self.s(f"faastcc/z{z}")["hit_rate"])] for z in ZIPFS]
        return ("§6.3 text: aborts and cache-served reads",
                ["zipf", "HC-Static abort %", "HC-Dynamic hit %",
                 "FaaSTCC hit %"], rows,
                "Paper: ~9 % HC-Static aborts; 70 % (HydroCache) and 60 % "
                "(FaaSTCC) of reads served by the cache at Zipf 1.0.")

    def refresh(self):
        rows = []
        for ms in [10, 25, 50, 100, 200]:
            s = self.s(f"refresh-{ms}ms")
            rows.append([f"{ms} ms", f(s["latency_med_ms"], 2),
                         f(s["latency_p99_ms"], 2), f(100 * s["hit_rate"]),
                         f(s["rounds_med"])])
        return ("Ablation: cache refresh (push) period (FaaSTCC, Zipf 1.0)",
                ["refresh period", "median ms", "p99 ms", "hit %",
                 "rounds median"], rows)

    def gossip(self):
        rows = []
        for ms in [1, 5, 20, 50]:
            s = self.s(f"gossip-{ms}ms")
            rows.append([f"{ms:.1f} ms", f(s["latency_med_ms"], 2),
                         f(s["latency_p99_ms"], 2), f(100 * s["hit_rate"]),
                         f(s["rounds_p99"]), f(100 * s["abort_rate"], 2)])
        return ("Ablation: stabilization gossip period (FaaSTCC, Zipf 1.0)",
                ["gossip period", "median ms", "p99 ms", "hit %",
                 "rounds p99", "abort %"], rows)

    def render(self):
        tables = [self.fig3, self.fig4a, self.fig4b, self.fig5, self.fig6,
                  self.fig7, self.fig8, self.fig9] + [
                      lambda z=z: self.fig10(z) for z in ZIPFS] + [
                      self.fig11, self.text63, self.refresh, self.gossip]
        for table in tables:
            try:
                title, header, rows, *note = table()
            except KeyError as e:
                print(f"(a table skipped: run {e} not in the artifacts)\n")
                continue
            print(f"### {title}\n")
            for row in [header, ["---"] * len(header)] + rows:
                print("| " + " | ".join(row) + " |")
            print("".join(f"\n{n}\n" for n in note))

    def gates(self):
        """Yields (gate, holds, measured values) per claim and skew."""
        for z in ZIPFS:
            ft, hc = self.s(f"faastcc/z{z}"), self.s(f"hc-dynamic/z{z}")
            yield ("metadata", ft["metadata_med"] == ft["metadata_p99"] == 16,
                   f"FaaSTCC metadata median/p99 {ft['metadata_med']}/"
                   f"{ft['metadata_p99']} B at Zipf {z}")
            yield ("rounds", ft["rounds_p99"] == 1,
                   f"FaaSTCC storage rounds p99 {ft['rounds_p99']} at Zipf {z}")
            yield ("p99", ft["latency_p99_ms"] < hc["latency_p99_ms"],
                   f"p99 FaaSTCC {f(ft['latency_p99_ms'])} ms vs "
                   f"HydroCache-Dynamic {f(hc['latency_p99_ms'])} ms at "
                   f"Zipf {z}")
        aborts = [self.s(f"hc-static/z{z}")["abort_rate"] for z in ZIPFS]
        yield ("aborts", 0 < aborts[0] < aborts[1] < aborts[2],
               "HydroCache-Static aborts " +
               "/".join(f(100 * a, 2) for a in aborts) +
               " % at Zipf " + "/".join(ZIPFS))


def main(argv):
    paths = [a for a in argv if a != "--check"]
    if any(p.startswith("-") for p in paths):
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        figures = Figures(load(paths or sorted(
            glob.glob(os.path.join(root, "BENCH_fig_*.json")))))
    except (OSError, ValueError, KeyError) as e:
        print(f"figures: {e}", file=sys.stderr)
        return 2
    if "--check" not in argv:
        figures.render()
        return 0
    try:
        results = list(figures.gates())
    except KeyError as e:
        print(f"FAIL: run {e} missing from the artifacts")
        return 1
    for gate, holds, what in results:
        print(f"{'ok' if holds else 'FAIL'} {gate}: {what}")
    return 0 if all(holds for _, holds, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
