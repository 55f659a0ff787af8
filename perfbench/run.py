"""The homcat benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload cochain-les-q --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout that holds `src/homcat`.  The seed
generates the workload's `.kcat` files (gen.py); they are written with a
manifest under `<out>/<workload>-seed<seed>-trace<t>/` so any task can be
replayed.  Each pass runs the whole workload in one fresh Python process
(worker.py), a closed loop with one client; passes repeat, one after
another, until the next would end after --seconds.

--trace 0 reports the end-to-end metrics (see end_to_end), built from each
task's fastest time over the passes.  --trace 1 alternates untraced and traced
passes (spans.py) and reports each layer's self time and counts; the
traced reports must equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every report is checked: a task
fails on an exception, a nonzero exit status, a table that differs from
the one known from the literature, or a report whose SHA-256 digest
differs from the first pass's.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170          # every run ends well inside three minutes
TAIL_BEYOND = 10          # the tail percentile keeps this many tasks above it

END_TO_END = {"wall_s": "s", "setup_s": "s", "task_p50_s": "s", "task_tail_s": "s",
              "peak_rss_mb": "MB", "pass_ratio": "ratio"}


class SetupError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(Path("perfbench") / "out"),
                        help="directory that receives the run's files")
    return parser.parse_args(argv)


def write_workload(run_dir, workload, seed):
    """Write the generated files and their manifest; returns the manifest's
    path and its task entries."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "files").mkdir(parents=True)
    entries = []
    for index, task in enumerate(gen.generate(workload, seed)):
        name = f"files/{index:02d}-{task.name}.kcat"
        (run_dir / name).write_text(task.source, encoding="utf-8")
        entries.append({"file": name, "max_degree": task.max_degree,
                        "oracle": task.oracle, "expect_hc": task.expect_hc,
                        "replay": ["homcat", name] + task.argv()})
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "tasks": entries}, indent=1), encoding="utf-8")
    return manifest, entries


class Runner:
    """Starts worker processes against the checkout's own sources."""

    def __init__(self, root, started):
        self.root = root
        self.started = started
        # bytecode is cached by the warm-up, so every pass imports alike
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(root / "src")

    def _remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise SetupError("out of time before the pass could start")
        return left

    def warm_up(self):
        """Compile the sources once, so no pass pays for bytecode caching."""
        subprocess.run([sys.executable, "-c", "import homcat.cli"], cwd=self.root,
                       env=self.env, check=True, timeout=self._remaining(),
                       stdout=subprocess.DEVNULL)

    def run_pass(self, manifest, out, span_file=None):
        cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(out)]
        if span_file is not None:
            cmd += ["--trace", str(span_file)]
        subprocess.run(cmd, cwd=self.root, env=self.env, check=True,
                       timeout=self._remaining(), stdout=subprocess.DEVNULL)
        result = json.loads(out.read_text(encoding="utf-8"))
        source = (self.root / "src" / "homcat").resolve()
        if Path(result["homcat_file"]).resolve().parent != source:
            raise SetupError(f"homcat was imported from {result['homcat_file']}, "
                             f"not from {source}")
        return result


def run_passes(runner, manifest, run_dir, seconds, trace):
    """Passes until the next one would end after `seconds`.  With trace,
    untraced and traced passes alternate, starting untraced, and there is
    at least one of each."""
    passes = []
    durations = []
    start = time.monotonic()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        began = time.monotonic()
        result = runner.run_pass(manifest, run_dir / f"pass{k}.json",
                                 run_dir / "spans.json" if traced else None)
        result["traced"] = traced
        passes.append(result)
        durations.append(time.monotonic() - began)
        if trace and k == 0:
            continue
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return passes


def check_tasks(manifest_tasks, passes):
    """Failures by pass and task, against the known tables and the first
    pass's digests."""
    reference = [t["digest"] for t in passes[0]["tasks"]]
    failures = []
    for k, result in enumerate(passes):
        for i, (spec, rec) in enumerate(zip(manifest_tasks, result["tasks"])):
            why = None
            if rec["error"] is not None:
                why = rec["error"].strip().splitlines()[-1]
            elif rec["exit"] != 0:
                why = f"exit status {rec['exit']}"
            elif spec["expect_hc"] is not None and rec["hc"] != [spec["expect_hc"]]:
                why = f"HC {rec['hc']} differs from the known table {spec['expect_hc']}"
            elif rec["digest"] != reference[i]:
                why = "report digest differs from the first pass"
            if why is not None:
                failures.append({"pass": k, "file": spec["file"], "why": why})
    return failures


def tail_index(n):
    """Index (ascending) of the highest order statistic with TAIL_BEYOND
    tasks beyond it."""
    if n <= TAIL_BEYOND:
        raise SetupError(f"a workload needs more than {TAIL_BEYOND} tasks for the tail")
    return n - TAIL_BEYOND - 1


def best_times(passes, key):
    """Each task's fastest `key` time over the passes in which it ran."""
    best = []
    for i in range(len(passes[0]["tasks"])):
        series = [p["tasks"][i][key] for p in passes if p["tasks"][i][key] is not None]
        if series:
            best.append(min(series))
    return best


def end_to_end(passes, attempted, failed):
    """A pass assembled from each task's fastest time over the run's passes:
    import, then every task's parse, construction, run and rendering.

    The work of a task is deterministic and the machine can only slow it,
    so the fastest repeat is the steadiest estimate of its cost; on a
    shared host a slow spell can cover most of a run, which moves medians
    far more than minima.  Memory is the median over the passes."""
    imports = min(p["import_s"] for p in passes)
    runs = sorted(best_times(passes, "task_s"))
    return {
        "wall_s": imports + sum(best_times(passes, "total_s")),
        "setup_s": imports + sum(best_times(passes, "setup_s")),
        "task_p50_s": statistics.median(runs),
        "task_tail_s": runs[tail_index(len(runs))],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": (attempted - failed) / attempted,
    }


def layers(passes):
    """Median self times and exact counts over the traced passes, and the
    tracing overhead: traced minus untraced median pass wall time."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    units = spans.metric_units()
    values = {}
    for name in traced[0]["layers"]:
        series = [p["layers"][name] for p in traced]
        values[name] = statistics.median(series) if units[name] == "s" else series[0]
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    counts_repeat = all(p["layers"][n] == traced[0]["layers"][n]
                        for p in traced for n in p["layers"] if units[n] != "s")
    return values, counts_repeat


def per_layer_units():
    units = spans.metric_units()
    units["trace.overhead_s"] = "s"
    return units


def main(argv=None):
    # turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running pass before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "homcat" / "cli.py").is_file():
        print(f"no homcat sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    run_dir = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest, tasks = write_workload(run_dir, args.workload, args.seed)
        runner = Runner(root, started)
        runner.warm_up()
        percentile = 100 * (tail_index(len(tasks)) + 1) / len(tasks)
        passes = run_passes(runner, manifest, run_dir, args.seconds, bool(args.trace))
        failures = check_tasks(tasks, passes)
        attempted = len(tasks) * len(passes)
        failed = len({(f["pass"], f["file"]) for f in failures})
        correct = failed == 0
        missing = []
        if args.trace:
            values, counts_repeat = layers(passes)
            correct = correct and counts_repeat
            missing = passes[1]["missing"]
            units = per_layer_units()
        else:
            values = end_to_end(passes, attempted, failed)
            units = END_TO_END
    except (SetupError, subprocess.SubprocessError, OSError, statistics.StatisticsError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "tasks": len(tasks),
        "tail_percentile": percentile, "fail_ratio": failed / attempted,
        "correct": correct, "failures": failures, "missing": missing,
        "missing_functions": passes[-1].get("missing_functions", []),
        "digests": {t["file"]: t["digest"] for t in passes[0]["tasks"]},
        "wall_s_by_pass": [p["wall_s"] for p in passes],
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(tasks)} tasks, "
          f"{failed} of {attempted} failed (fail_ratio {failed / attempted:.3f})")
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} {f['file']}: {f['why']}")
    if args.trace and not counts_repeat:
        print("  per-layer counts differ between traced passes")
    for name in missing:
        print(f"  {name}: MISSING (its function no longer exists)")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        extra = ""
        if name == "task_tail_s":
            extra = f"  (p{percentile:.1f} of {len(tasks)} tasks, {TAIL_BEYOND} beyond)"
        print(f"  {name:<34}{shown} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
