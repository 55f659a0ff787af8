"""One benchmark pass: run every workspace of a manifest in this process.

    python3 perfbench/worker.py <manifest.json> <pass.json> [--trace <spans.json>]

The tasks run one after another through the calls `homcat.cli.main`
makes: `parse`, `Workspace`, `run_workspace`, and the JSON rendering of
each report.  Timings, report digests and peak memory go to <pass.json>.
With --trace the layer functions are wrapped first (see spans.py) and the
spans are written to <spans.json>.  Sources are read before the clock
starts, so file I/O is not timed.
"""

import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_pass(manifest, base, tracer=None):
    """Run every task of the manifest; file names are relative to `base`."""
    sources = []
    for task in manifest["tasks"]:
        with open(os.path.join(base, task["file"]), encoding="utf-8") as fh:
            sources.append(fh.read())

    start = perf_counter()
    from homcat import cli
    import_s = perf_counter() - start
    excluded = 0.0
    if tracer is not None:
        mark = perf_counter()
        tracer.install()
        excluded = perf_counter() - mark

    tasks = []
    for index, (task, source) in enumerate(zip(manifest["tasks"], sources)):
        options = {"max_degree": task["max_degree"], "seed": 0,
                   "verify_oracle": task["oracle"]}
        record = {"file": task["file"], "setup_s": None, "task_s": None, "total_s": None,
                  "exit": None, "digest": None, "hc": None, "error": None}
        span = None
        if tracer is not None:
            tracer.task = index
            span = tracer.begin("task")
        t0 = perf_counter()
        try:
            workspace = cli.Workspace(cli.parse(source))
            t1 = perf_counter()
            reports, code = cli.run_workspace(workspace, options)
            lines = [json.dumps(r.doc, default=cli._json_default, sort_keys=False,
                                separators=(",", ":")) for r in reports]
            t2 = perf_counter()
        except Exception:
            record["error"] = traceback.format_exc(limit=4)
        else:
            record.update(setup_s=t1 - t0, task_s=t2 - t1, total_s=t2 - t0, exit=code,
                          digest=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
                          hc=[r.doc["dims"]["HC"] for r in reports])
        finally:
            if span is not None:
                tracer.end(span)
        tasks.append(record)
    wall_s = perf_counter() - start - excluded

    result = {"import_s": import_s, "wall_s": wall_s, "tasks": tasks,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "homcat_file": cli.__file__}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["missing_functions"] = tracer.missing_functions
    return result


def main(argv):
    manifest_path, out_path = argv[0], argv[1]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if len(argv) == 4 and argv[2] == "--trace":
        from spans import Tracer
        tracer = Tracer()
    result = run_pass(manifest, os.path.dirname(os.path.abspath(manifest_path)), tracer)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
