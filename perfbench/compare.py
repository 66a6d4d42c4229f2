#!/usr/bin/env python3
"""Compares two sets of benchmark results, for example a parent commit and
a change, each a `results.jsonl` written by `perfbench` runs.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For every workload and metric it prints each side's median and quartiles,
the change's median as a ratio of the base's, how many same-seed pairs the
change won, and a verdict against the bound in BENCHMARK.json. Results are
only compared when every host fingerprint matches (the commit aside):
otherwise it refuses with exit code 2. Exit code 1 flags a regression
beyond a bound, or a run that failed its correctness gate.
"""

import json
import os
import statistics
import sys

FINGERPRINT_KEYS = ("nproc", "simd", "cpu", "rustc", "profile")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host(row):
    fp = row["fingerprint"]
    return tuple(fp[k] for k in FINGERPRINT_KEYS)


def bounds():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def series(rows, workload, trace, metric):
    """Seed -> value for one workload, trace mode and metric."""
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in rows
        if r["workload"] == workload
        and r["trace"] == trace
        and metric in r["result"]["metrics"]
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, change = load(argv[1]), load(argv[2])
    hosts = {host(r) for r in base + change}
    if len(hosts) != 1:
        print("refused: the results come from different hosts or builds:")
        for h in sorted(hosts):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(FINGERPRINT_KEYS, h)))
        return 2
    known = bounds()
    status = 0
    bad = [r for r in base + change if not r["result"]["correct"]]
    for r in bad:
        print(f"INCORRECT: {r['workload']} seed {r['seed']} failed its correctness gate")
        status = 1
    print(f"{'workload':12} {'metric':34} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>6}  verdict")
    workloads = sorted({r["workload"] for r in base})
    for workload in workloads:
        for trace in (0, 1):
            names = sorted({m for r in base if r["workload"] == workload and r["trace"] == trace
                            for m in r["result"]["metrics"]})
            for name in names:
                b = series(base, workload, trace, name)
                c = series(change, workload, trace, name)
                if not b or not c:
                    continue
                better, bound = known.get(name, ("lower", None))
                bm, cm = statistics.median(b.values()), statistics.median(c.values())
                bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
                ratio = cm / bm if bm else float("nan")
                sign = 1 if better == "higher" else -1
                pairs = [s for s in b if s in c]
                won = sum(1 for s in pairs if sign * (c[s] - b[s]) > 0)
                spread = (bq[1] - bq[0]) / abs(bm) if bm else 0.0
                verdict = ""
                if bound is not None:
                    worse = sign * (bm - cm) / abs(bm) if bm else 0.0
                    if spread > bound:
                        verdict = f"unresolved (base spread {spread:.3f} > bound {bound})"
                    elif worse > bound:
                        verdict = f"REGRESSION (worse by {worse:.3f} > bound {bound})"
                        status = 1
                    else:
                        verdict = "within bound"
                print(f"{workload:12} {name:34} {bm:12.5g} [{bq[0]:9.5g}, {bq[1]:9.5g}] "
                      f"{cm:12.5g} [{cq[0]:9.5g}, {cq[1]:9.5g}] {ratio:7.3f} "
                      f"{won:>2}/{len(pairs):<3}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
