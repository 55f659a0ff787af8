"""The engine holds what a task runs.

The engine is every module of `homcat` except `reference` (the tests'
oracles and fixtures) and `zoo` (the tests' categories).  Walking its
source with `ast` from `cli.main`, a def (a function, a class or a
method) is reached when a reached def or a module-level statement names
it, as a plain name or as an attribute; a class reaches its dunder
methods.  Names are matched by spelling alone, so a call `x.add(...)`
reaches every def called `add`: the walk can miss dead code that shares
a name with live code, but it never reports live code as dead.  A name
that nothing reaches is either deleted or moved to `homcat.reference`
in the change that strands it.  A lazy import is invisible to the walk;
`tests/test_cli.py` checks a real run for the reference and the zoo.
"""

import ast
from pathlib import Path

import homcat

PACKAGE = Path(homcat.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
NOT_ENGINE = ("reference", "zoo")

# the benchmark wraps these by name (perfbench/spans.py), so they stay in
# the engine until its span names move
BENCHMARK_WRAPPED = {"modcat.tor_data", "kcat.triangular_matrix", "kcat.one_point_extension"}


def _engine_trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.stem not in NOT_ENGINE}


def _names(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached():
    """The qualified names (module.Class.method) of the engine defs that
    no walk from `cli.main` reaches."""
    defs = {}          # qualified name -> node
    by_name = {}       # plain name -> qualified names
    named = set()      # names in module-level statements

    def collect(body, prefix, module_level):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{node.name}"
                defs[qualname] = node
                by_name.setdefault(node.name, []).append(qualname)
                if isinstance(node, ast.ClassDef):
                    collect(node.body, qualname, False)
            elif module_level:
                named.update(_names([node]))

    for module, tree in _engine_trees().items():
        collect(tree.body, module, True)

    def names_of(node):
        if isinstance(node, ast.ClassDef):
            # a class names what its header and its non-def statements name
            return _names(node.bases + node.keywords + node.decorator_list
                          + [s for s in node.body if not isinstance(
                              s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))])
        return _names([node])

    def targets(names):
        # a dunder is reached through its class, not through every spelling of
        # it (super().__init__ would otherwise reach every __init__)
        return [q for name in names if not _is_dunder(name) for q in by_name.get(name, ())]

    reached = set()
    todo = ["cli.main"] + targets(named)
    while todo:
        qualname = todo.pop()
        if qualname in reached:
            continue
        reached.add(qualname)
        node = defs[qualname]
        if isinstance(node, ast.ClassDef):
            todo += [f"{qualname}.{s.name}" for s in node.body
                     if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and _is_dunder(s.name)]
        todo += targets(names_of(node))
    return set(defs) - reached


def _timed_targets():
    """The (module, qualified name) pairs of TIMED in perfbench/spans.py."""
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets):
            pairs = ast.literal_eval(node.value)
            return {f"{module.removeprefix('homcat.')}.{qualname}"
                    for targets in pairs.values() for module, qualname in targets}
    raise AssertionError("perfbench/spans.py defines no TIMED")


def test_every_engine_def_is_reached_from_main():
    assert sorted(unreached()) == sorted(BENCHMARK_WRAPPED)


def test_the_unreached_names_are_the_ones_the_benchmark_wraps():
    # once the benchmark stops wrapping one of them, it must go
    assert BENCHMARK_WRAPPED <= _timed_targets()


def test_no_engine_module_imports_the_reference_or_the_zoo():
    for module, tree in _engine_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                                  for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            for name in imported:
                assert name.rpartition(".")[2] not in NOT_ENGINE, (module, name)

