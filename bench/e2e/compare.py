#!/usr/bin/env python3
"""Compare two sets of e2e_<workload>.json reports under the bounds in
BENCHMARK.json.

    python3 bench/e2e/compare.py SET_A/**/e2e_*.json -- SET_B/**/e2e_*.json

For every (workload, end-to-end metric) it prints each set's median and
quartiles and a verdict for B against A:
  agree       B's median is no worse than A's by more than the bound;
  regress     B's median is worse by more than the bound, or (failed_share)
              any B run failed more than every A run;
  unresolved  a set's quartile spread is wider than the bound, so the
              medians cannot be told apart, unless every B run reads better
              than every A run.
Exit status is 1 when any pair regresses.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    """{workload: {metric: [values]}} over the reports in `paths`."""
    sets = defaultdict(lambda: defaultdict(list))
    for p in paths:
        report = json.loads(Path(p).read_text())
        for name, m in report["metrics"].items():
            if m["kind"] == "e2e" and m["value"] is not None:
                sets[report["workload"]][name].append(m["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Verdict of set b against set a (lists of values)."""
    sign = 1 if better == "lower" else -1
    qa, qb = quartiles(a), quartiles(b)
    worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0.0,
                 (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not all_better:
        return worse, "unresolved"
    return worse, "regress" if worse > bound else "agree"


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    a, b = load(argv[:cut]), load(argv[cut + 1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]

    def fmt(v):
        q1, q2, q3 = quartiles(v)
        return f"{q2:10.4g} [{q1:.4g}, {q3:.4g}] n={len(v)}"

    print(f"{'workload':12} {'metric':13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'worse':>7} {'bound':>6}  verdict")
    regress = False
    for w in sorted(set(a) | set(b)):
        for name, better, bound in rules:
            va, vb = a[w].get(name), b[w].get(name)
            if not va or not vb:
                print(f"{w:12} {name:13} missing in one set")
                continue
            worse, v = verdict(va, vb, better, bound)
            regress |= v == "regress"
            print(f"{w:12} {name:13} {fmt(va):>30} {fmt(vb):>30} "
                  f"{worse:+7.1%} {bound:6.0%}  {v}")
        fa, fb = a[w].get("failed_share", [0]), b[w].get("failed_share", [0])
        v = "regress" if max(fb) > max(fa) else "agree"
        regress |= v == "regress"
        print(f"{w:12} {'failed_share':13} {max(fa):>30.4g} {max(fb):>30.4g}"
              f" {'':>7} {'any':>6}  {v}")
    return 1 if regress else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
