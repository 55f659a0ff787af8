"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py <parent-out> <change-out>

Each argument is a directory that run.py wrote through --out, holding
`<workload>-seed<n>-trace<t>/result.json`.  Run both sides with the same
seeds and --seconds, alternating which side runs first.

For each workload and end-to-end metric it prints the median and
quartiles of each side, the fraction of same-seed pairs the change wins
(ties count for neither side), and a verdict:

  improved      the change wins at least 9 in 10 pairs and the medians
                differ by more than the parent's quartile spread
  worse         the change's median is worse by more than the metric's bound
  unresolved    the parent's own spread is wider than the bound, and not
                every change run beats every parent run
  within bound  otherwise

It then prints every per-layer count that differs between the sides on the
same seed, and every task whose report digest differs.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(root):
    """{(workload, trace): {seed: result}} for every result under root."""
    results = {}
    for path in sorted(Path(root).glob("*/result.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        results.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, pairs, lower_is_better, bound):
    """The verdict and the change's pair win fraction."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(better(c, p) for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    if better(cm, pm) and win_share >= WIN_SHARE and abs(cm - pm) > p3 - p1:
        return "improved", win_share
    all_better = all(better(c, p) for c in change for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", win_share
    if worse_by > bound:
        return "worse", win_share
    return "within bound", win_share


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])

    print(f"{'workload':<10} {'metric':<12} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'wins':>5}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = parent.get((workload, 0), {})
        c_runs = change.get((workload, 0), {})
        if not p_runs or not c_runs:
            print(f"{workload:<10} no untraced results on both sides")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))]
            word, win_share = verdict(pv, cv, pairs, m["better"] == "lower", m["bound"])
            show = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"{workload:<10} {name:<12} {show(pv):>32} {show(cv):>32} "
                  f"{win_share:>5.2f}  {word}")

    print("\nper-layer counts that differ (same workload and seed):")
    differ = 0
    for key in sorted(set(parent) & set(change)):
        if key[1] != 1:
            continue
        for seed in sorted(set(parent[key]) & set(change[key])):
            pm, cm = parent[key][seed]["metrics"], change[key][seed]["metrics"]
            for name in sorted(set(pm) | set(cm)):
                unit = (pm.get(name) or cm.get(name))["unit"]
                if unit == "s":
                    continue
                a = pm[name]["value"] if name in pm else "missing"
                b = cm[name]["value"] if name in cm else "missing"
                if a != b:
                    differ += 1
                    delta = f" ({b - a:+d})" if isinstance(a, int) and isinstance(b, int) else ""
                    print(f"  {key[0]} seed {seed} {name}: {a} -> {b}{delta}")
    if not differ:
        print("  none")

    print("\nreport digests that differ (same workload and seed):")
    mismatches = 0
    for key in sorted(set(parent) & set(change)):
        for seed in sorted(set(parent[key]) & set(change[key])):
            pd, cd = parent[key][seed]["digests"], change[key][seed]["digests"]
            for name in sorted(set(pd) | set(cd)):
                if pd.get(name) != cd.get(name):
                    mismatches += 1
                    print(f"  {key[0]} seed {seed} trace {key[1]} {name}")
    if not mismatches:
        print("  none")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
