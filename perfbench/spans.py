"""Span recorder that wraps homcat's layer functions from outside the program.

Each listed function is replaced, in every `homcat.*` namespace that bound
it by name, with a wrapper that records a span (name, start, end, parent,
task).  `from .exactla import solve` gives the importing module its own
binding, so patching `homcat.exactla.solve` alone would miss those callers.
Methods are wrapped on their classes.  Spans stay in memory; the caller
writes them out when the pass ends.

A metric's self time is the duration of its spans minus the time their
child spans cover.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

# metric -> the (module, qualified name) pairs whose spans it sums
TIMED = {
    "cli.parse_s": [("homcat.cli", "parse")],
    "cli.workspace_s": [("homcat.cli", "Workspace.__init__")],
    "kcat.validate_s": [("homcat.kcat", "FiniteKCategory.validate")],
    "kcat.enveloping_s": [("homcat.kcat", "enveloping")],
    "kcat.construct_s": [("homcat.kcat", "triangular_matrix"),
                         ("homcat.kcat", "one_point_extension"),
                         ("homcat.kcat", "quotient_category"),
                         ("homcat.kcat", "opposite")],
    "ideals.generate_s": [("homcat.ideals", "ideal_from_generators"),
                          ("homcat.ideals", "triangular_ideal")],
    "ideals.idempotent_s": [("homcat.ideals", "is_idempotent")],
    "exactla.rref_s": [("homcat.exactla", "rref")],
    "exactla.mul_s": [("homcat.exactla", "Mat.mul")],
    "exactla.solve_s": [("homcat.exactla", "solve")],
    "exactla.kernel_s": [("homcat.exactla", "kernel_basis")],
    "exactla.echelon_add_s": [("homcat.exactla", "EchelonSpace.add")],
    "hochschild.cochain_s": [("homcat.hochschild", "hochschild_cochain_complex")],
    "hochschild.bar_s": [("homcat.hochschild", "bar_resolution")],
    "hochschild.center_s": [("homcat.hochschild", "center")],
    "modcat.resolution_s": [("homcat.modcat", "projective_resolution")],
    "modcat.term_s": [("homcat.modcat", "FreeResolution.term")],
    "modcat.ext_data_s": [("homcat.modcat", "ext_data")],
    "modcat.tor_data_s": [("homcat.modcat", "tor_data")],
    "modcat.projective_test_s": [("homcat.modcat", "is_projective")],
    "modcat.hom_s": [("homcat.modcat", "module_hom")],
    "theorems.ses_s": [("homcat.theorems", "canonical_ses")],
    "theorems.les_s": [("homcat.theorems", "les_from_ses")],
    "theorems.audit_s": [("homcat.theorems", "audit_hypotheses")],
    "theorems.strong_idem_s": [("homcat.theorems", "strongly_idempotent_check")],
}


def _rref_cells(args, result):
    return args[0].rows * args[0].cols


def _mul_macs(args, result):
    return args[0].rows * args[0].cols * args[1].cols


def _cochain_dims(args, result):
    return sum(result.dims)


def _resolution_gens(args, result):
    return sum(len(level) for level in result.gens)


# timed metric -> [(count metric, unit, amount per call; None counts calls)]
COUNTED = {
    "kcat.validate_s": [("kcat.validate_calls", "count", None)],
    "exactla.rref_s": [("exactla.rref_calls", "count", None),
                       ("exactla.rref_cells", "cells", _rref_cells)],
    "exactla.mul_s": [("exactla.mul_calls", "count", None),
                      ("exactla.mul_macs", "macs", _mul_macs)],
    "exactla.echelon_add_s": [("exactla.echelon_add_calls", "count", None)],
    "hochschild.cochain_s": [("hochschild.cochain_dim_sum", "dims", _cochain_dims)],
    "modcat.resolution_s": [("modcat.resolution_calls", "count", None),
                            ("modcat.resolution_gens", "gens", _resolution_gens)],
}

# resolutions started while a strong-idempotency check is open
STRONG_IDEM_RESOLUTIONS = "theorems.strong_idem_resolutions"


def metric_units():
    """Every per-layer metric the tracer can report, with its unit."""
    units = {name: "s" for name in TIMED}
    for counters in COUNTED.values():
        units.update((name, unit) for name, unit, _ in counters)
    if "modcat.resolution_s" in TIMED and "theorems.strong_idem_s" in TIMED:
        units[STRONG_IDEM_RESOLUTIONS] = "count"
    return units


class Tracer:

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []            # [name, start, end, parent index, task]
        self._open = []            # indices of the spans now running
        self._child = []           # time covered by children, per open span
        self.task = None
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []          # metrics whose functions no longer exist
        self.missing_functions = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.task])
        self._open.append(index)
        self._child.append(0.0)
        return index

    def end(self, index):
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self._open.pop()
        covered = self._child.pop()
        duration = end - span[1]
        if self._child:
            self._child[-1] += duration
        return duration - covered

    def wrap(self, metric, fn):
        counters = COUNTED.get(metric, ())
        counts = self.counts
        is_resolution = metric == "modcat.resolution_s"

        def traced(*args, **kwargs):
            if is_resolution and self._inside("theorems.strong_idem_s"):
                counts[STRONG_IDEM_RESOLUTIONS] += 1
            index = self.begin(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.self_time[metric] += self.end(index)
            for name, _, amount in counters:
                counts[name] += 1 if amount is None else amount(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._open)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every listed function; returns the number of bindings replaced.

        A metric any of whose functions no longer exists is recorded in
        `missing` (with its counters) and is not reported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "homcat" or n.startswith("homcat."))]
        replaced = 0
        for metric, targets in TIMED.items():
            for module_name, qualname in targets:
                module = sys.modules.get(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    self.missing_functions.append(f"{module_name}.{qualname}")
                    self._mark_missing(metric)
                    continue
                wrapper = self.wrap(metric, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    replaced += 1
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            replaced += 1
        return replaced

    def _mark_missing(self, metric):
        names = [metric] + [name for name, _, _ in COUNTED.get(metric, ())]
        if metric in ("modcat.resolution_s", "theorems.strong_idem_s"):
            names.append(STRONG_IDEM_RESOLUTIONS)
        self.missing.extend(n for n in names if n not in self.missing)

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """Self times and counts by metric name; missing metrics are absent."""
        values = {}
        for name, unit in metric_units().items():
            if name in self.missing:
                continue
            values[name] = self.self_time.get(name, 0.0) if unit == "s" \
                else self.counts.get(name, 0)
        return values

    def span_records(self):
        return [[name, start - self.origin, end - self.origin, parent, task]
                for name, start, end, parent, task in self.spans]
