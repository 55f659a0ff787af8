import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homcat
from homcat.cli import (
    FinitenessError, ParseError, UnresolvedName, Workspace, main, parse, run_workspace,
)
from homcat.exactla import Field, VerificationFailed
from homcat.ideals import ideal_from_generators
from homcat.kcat import FiniteKCategory, opposite
from homcat.reference import zero_ideal

A2_SRC = """\
# the path category of 1 -> 2
category A2 over Q
quiver
object 1 2
arrow a: 1 -> 2
"""

DUAL_SRC = """\
category D over GF(32003)
quiver
object s
arrow x: s -> s
rel x*x = 0
"""

TABLE_SRC = """\
category T over Q
table
hom p p: e
hom q q: f
hom p q: g
comp e*e = e
comp f*f = f
comp g*e = g
comp f*g = g
id p = e
id q = f
"""


def run_source(src, **options):
    opts = {"max_degree": 3, "seed": 0, "verify_oracle": False}
    opts.update(options)
    ws = Workspace(parse(src))
    return run_workspace(ws, opts)


def test_parse_a2_quiver():
    ws = Workspace(parse(A2_SRC))
    cat = ws.categories["A2"]
    assert cat.total_dim() == 3
    assert cat.dim("1", "2") == 1
    assert cat.dim("2", "1") == 0


def test_parse_dual_numbers():
    ws = Workspace(parse(DUAL_SRC))
    cat = ws.categories["D"]
    assert cat.total_dim() == 2
    assert cat.field == Field.gf(32003)


def test_unbounded_loop_rejected():
    src = "category L over Q\nquiver\nobject 1\narrow x: 1 -> 1\n"
    with pytest.raises(FinitenessError):
        Workspace(parse(src))


def test_table_category():
    ws = Workspace(parse(TABLE_SRC))
    cat = ws.categories["T"]
    assert cat.total_dim() == 3
    assert cat.validate().ok


def test_corrupted_table_rejected():
    bad = TABLE_SRC.replace("comp g*e = g", "comp g*e = 0")
    with pytest.raises(Exception):
        Workspace(parse(bad))


def test_relation_with_coefficients():
    src = """\
category C over Q
quiver
object 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
rel b*a - 2*b*c = 0
"""
    ws = Workspace(parse(src))
    cat = ws.categories["C"]
    assert cat.dim("1", "3") == 1      # b*a and b*c identified up to scale


def test_commutative_square():
    src = """\
category SQ over Q
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
rel b*a - d*c = 0
task cohomology SQ
"""
    ws = Workspace(parse(src))
    cat = ws.categories["SQ"]
    assert cat.dim("1", "4") == 1
    reports, code = run_workspace(ws, {"max_degree": 2, "seed": 0})
    assert code == 0
    assert reports[0].doc["dims"]["HC"] == [1, 0, 0]


def test_scaled_relation_square():
    # rescaling one path in the commutative-square relation changes the
    # structure constants but not the cohomology (isomorphic algebras)
    src = """\
category SQ over Q
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
rel b*a - 1/2*d*c = 0
task cohomology SQ
"""
    reports, code = run_source(src, max_degree=2)
    assert code == 0
    assert reports[0].doc["dims"]["HC"] == [1, 0, 0]


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("category X over Q\nquiver\nobject 1\narrow ?: 1 -> 1\n")
    assert err.value.line == 4


DUAL_TABLE_SRC = """\
category T over Q
table
hom s s: e x
comp e*e = e
comp x*e = x
comp e*x = x
comp x*x = 0
id s = e
"""
A2_MODULE_SRC = A2_SRC + "module P over A2 left\ndim 1 = 1\ndim 2 = 1\nact a = [[1]]\n"
DUAL_BIMODULE_SRC = DUAL_SRC + "bimodule M over (D,D)\ndim s s = 1\nlact x s = [[0]]\n" \
    "ract x s = [[0]]\n"


# a keyed line that repeats would replace the first one unnoticed: a second
# comp x*x = x makes the dual numbers K x K, and a second dim doubles Hom(M,M)
@pytest.mark.parametrize("src, message", [
    (A2_MODULE_SRC + "module P over A2 right\n", "duplicate module P"),
    (DUAL_BIMODULE_SRC + "bimodule M over (D,D)\n", "duplicate bimodule M"),
    (A2_SRC + "ideal I in A2 gens: a\nideal I in A2 gens: e1\n", "duplicate ideal I"),
    (A2_MODULE_SRC + "dim 1 = 2\n", "repeated 'dim 1' in P"),
    (DUAL_BIMODULE_SRC + "dim s s = 2\n", "repeated 'dim s s' in M"),
    (A2_MODULE_SRC + "act a = [[0]]\n", "repeated 'act a' in P"),
    (DUAL_BIMODULE_SRC + "lact x s = [[1]]\n", "repeated 'lact x s' in M"),
    (DUAL_BIMODULE_SRC + "ract x s = [[1]]\n", "repeated 'ract x s' in M"),
    (DUAL_TABLE_SRC + "comp x*x = x\n", "repeated 'comp x*x' in T"),
    (DUAL_TABLE_SRC + "id s = e\n", "repeated 'id s' in T"),
    (DUAL_SRC + "bound 4\nbound 5\n", "repeated 'bound' in D"),
    (DUAL_TABLE_SRC + "hom s s: e x\n", "repeated 'hom s s' in T"),
], ids=["module", "bimodule", "ideal", "dim", "bimodule-dim", "act", "lact", "ract", "comp",
        "id", "bound", "hom"])
def test_a_repeated_keyed_line_is_a_parse_error(src, message, tmp_path, capsys):
    line = src.count("\n")
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (line, 1)
    path = tmp_path / "repeated.kcat"
    path.write_text(src)
    assert main([str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: line {line}, column 1: {message}\n"


def test_lines_that_add_up_may_repeat():
    ws = parse("category C over Q\nquiver\nobject 1\nobject 2\narrow a: 1 -> 2\n"
               "arrow b: 1 -> 2\nrel a = 0\nrel b = 0\ntask validate C\ntask validate C\n")
    decl = ws.categories["C"]
    assert (decl.objects, len(decl.arrows), len(decl.relations)) == (["1", "2"], 2, 2)
    assert len(ws.tasks) == 2


def test_unresolved_name():
    src = A2_SRC + "ideal I in A2 gens: nosuch\n"
    with pytest.raises(UnresolvedName):
        Workspace(parse(src))


def test_cohomology_task_dual_numbers():
    reports, code = run_source(DUAL_SRC + "task cohomology D\n")
    assert code == 0
    assert reports[0].doc["dims"]["HC"] == [2, 1, 1, 1]


def test_validate_task_exit_codes():
    reports, code = run_source(A2_SRC + "task validate A2\n")
    assert code == 0 and reports[0].status == "pass"


def test_les_task_negative_exit_2():
    src = A2_SRC + "ideal I in A2 gens: a\ntask les A2 I\n"
    reports, code = run_source(src)
    assert code == 2
    assert reports[0].status == "hypothesis"


def test_ideal_check_task():
    src = A2_SRC + "ideal I in A2 gens: a\ntask ideal-check A2 I\n"
    reports, code = run_source(src)
    assert code == 2
    doc = reports[0].doc
    assert doc["hypotheses"]["idempotent"] is False
    assert doc["hypotheses"]["witness"] is not None


SQUARE_SRC = """\
category S over Q
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
rel b*a - 2 d*c = 0
"""


@pytest.mark.parametrize("gens, nonzero", [
    ("b*a", True), ("1/2 b*a", True), ("b*a - d*c", True), ("b*a - 2 d*c", False)])
def test_ideal_terms_are_composed_through_the_category(gens, nonzero):
    # d*c is the basis path of Hom(1,4) and b*a = 2 d*c is not one
    ws = Workspace(parse(SQUARE_SRC + f"ideal I in S gens: {gens}\n"))
    s = ws.categories["S"]
    assert s.hom_basis[("1", "4")] == ("d*c",)
    assert ws.ideals["I"] == ideal_from_generators(s, [("1", "4", (1,))] if nonzero else [])


def test_an_ideal_term_that_composes_to_zero_adds_nothing():
    ws = Workspace(parse(DUAL_SRC + "ideal Z in D gens: x*x\nideal X in D gens: x*x + x\n"))
    d = ws.categories["D"]
    assert ws.ideals["Z"] == zero_ideal(d)
    assert ws.ideals["X"] == ideal_from_generators(d, [("s", "s", (0, 1))])


@pytest.mark.parametrize("gens", ["3", "a + 5", "5 + a"])
def test_a_nonzero_scalar_ideal_term_is_rejected(gens, tmp_path, capsys):
    path = tmp_path / "scalar.kcat"
    path.write_text(A2_SRC + f"ideal I in A2 gens: {gens}\n")
    assert main([str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: ideal I: scalar terms are only valid as 0\n"
    # a zero scalar is the zero term
    assert Workspace(parse(A2_SRC + "ideal I in A2 gens: a + 0\n")).ideals["I"].total_dim() == 1


FOREIGN_IDEALS = {
    # B shares A's object names, with its arrow the other way
    "shared-objects": "category B over Q\nquiver\nobject 1 2\narrow a: 2 -> 1\n"
                      "ideal I in B gens: a\n",
    "other-objects": DUAL_SRC + "ideal I in D gens: x\n",
}


@pytest.mark.parametrize("name", sorted(FOREIGN_IDEALS))
def test_an_ideal_of_another_category_is_bad_input(name):
    owner = "B" if name == "shared-objects" else "D"
    src = A2_SRC + FOREIGN_IDEALS[name] + "task les A2 I\ntask ideal-check A2 I\n"
    reports, code = run_source(src)
    assert code == 1
    assert [r.status for r in reports] == ["validation", "validation"]
    for r in reports:
        assert r.doc["notes"] == [f"task error: ideal I lives in category {owner}, not in A2"]


CMP_SRC = """\
category U over Q
quiver
object 1
category T over Q
quiver
object 1
bimodule M over (U,T)
dim 1 1 = 1
task cmp T U M
"""


def test_cmp_task():
    reports, code = run_source(CMP_SRC)
    assert code == 0
    doc = reports[0].doc
    assert doc["dims"]["HC"] == [1, 0, 0, 0]
    assert all(doc["exact_at"])


def test_happel_task():
    src = DUAL_SRC + """\
module S over D left
dim s = 1
act x = [[0]]
task happel D S
"""
    reports, code = run_source(src)
    assert code == 0
    doc = reports[0].doc
    assert doc["dims"]["ExtCI"] == [0, 0, 1, 1]
    assert all(i["ok"] for i in doc["happel"]["identities"])


@pytest.mark.parametrize("key", ["hom_CH_equals_H0B", "ext_CH_equals_HB", "ext_IH_vanishes",
                                 "H0_embedding", "one_sided_ext_vanishing"])
def test_a_failed_identification_fails_happel_in_the_api_and_the_cli(key, monkeypatch):
    import homcat.theorems as theorems_mod
    real = theorems_mod.theorem_les_pipeline

    def one_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        value = report.identifications[key]
        report.identifications[key] = [False] + value[1:] if isinstance(value, list) else False
        return report

    src = DUAL_SRC + "module S over D left\ndim s = 1\nact x = [[0]]\ntask happel D S\n"
    ws = Workspace(parse(src))
    assert theorems_mod.happel_pipeline(ws.categories["D"], ws.modules["S"], 2).passed
    monkeypatch.setattr(theorems_mod, "theorem_les_pipeline", one_fails)
    hap = theorems_mod.happel_pipeline(ws.categories["D"], ws.modules["S"], 2)
    assert hap.les.all_exact() and not hap.les.passed
    assert not hap.passed
    reports, code = run_source(src)
    assert code == 3 and reports[0].status == "verification"


def test_json_deterministic(tmp_path, capsys):
    path = tmp_path / "ws.kcat"
    path.write_text(DUAL_SRC + "task cohomology D\ntask validate D\n")
    outs = []
    for _ in range(2):
        code = main([str(path), "--json", "--seed", "7", "--max-degree", "3"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    docs = [json.loads(line) for line in outs[0].splitlines()]
    assert docs[0]["schema"] == 1
    assert docs[0]["seed"] == 7


def test_cli_field_override(tmp_path, capsys):
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "task cohomology A2\n")
    code = main([str(path), "--field", "gf:5", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["dims"]["HC"] == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("flags", [
    ["--field", "gf:4"],
    ["--field", "gf:x"],
    ["--field", "gf:0"],
    ["--field", "R"],
    ["--max-degree", "-1"],
])
def test_cli_exit_1_on_bad_flag(tmp_path, capsys, flags):
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "task cohomology A2\n")
    assert main([str(path)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"invalid {flags[0]} ")


def test_cli_exit_1_on_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.kcat"
    path.write_text("category ! over Q\n")
    assert main([str(path)]) == 1


def test_cli_exit_1_on_characteristic_collision(tmp_path, capsys):
    # a coefficient with denominator divisible by the overriding prime
    path = tmp_path / "frac.kcat"
    path.write_text("""\
category C over Q
quiver
object 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 1 -> 2
rel b*a - 1/5*b*c = 0
""")
    assert main([str(path), "--field", "gf:5"]) == 1
    assert main([str(path)]) == 0


A3_IDEAL_SRC = """\
category A over Q
quiver
object 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
ideal I in A gens: e1
"""


@pytest.mark.parametrize("task, built", [("cohomology A", 0), ("les A I", 1)])
def test_a_task_builds_only_the_enveloping_categories_it_resolves_over(task, built,
                                                                     monkeypatch):
    # regular coefficients read a category's own composition, so HH(C) and
    # the independent HH(C/I) build no enveloping category; the les
    # resolution and its sequence share one C^e
    products = []
    init = FiniteKCategory.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.product_of is not None:
            products.append(self)

    monkeypatch.setattr(FiniteKCategory, "__init__", counting)
    ws = Workspace(parse(A3_IDEAL_SRC + f"task {task}\n"))
    reports, code = run_workspace(ws, {"max_degree": 3, "seed": 0})
    assert code == 0
    assert len(products) == built
    cat = ws.categories["A"]
    assert all(prod.product_of == (opposite(cat), cat) for prod in products)


QUIVER_HEAD = "category A over Q\nquiver\nobject 1 2\n"


@pytest.mark.parametrize("src, token", [
    ("category A over GF(32003) extra junk\nquiver\nobject 1\n", "extra"),
    (QUIVER_HEAD + "arrow a: 1 -> 2 junk\n", "junk"),
    (QUIVER_HEAD + "arrow a: 1 -> 2\nbound 5 7\n", "7"),
], ids=["category", "arrow", "bound"])
def test_trailing_tokens_are_parse_errors(src, token, tmp_path, capsys):
    with pytest.raises(ParseError, match=f"trailing input '{token}'"):
        parse(src)
    path = tmp_path / "ws.kcat"
    path.write_text(src)
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


BIMODULE_SRC = """\
category U over Q
quiver
object 1
arrow x: 1 -> 1
rel x*x = 0
category T over Q
quiver
object 1
bimodule M over (U,T)
dim 1 1 = 2
"""

# bad input that reaches no kernel: each is named by its line or its name
BAD_INPUTS = {
    "gf4": ("category A over GF(4)\nquiver\nobject 1\n", "line 1, column 20: "),
    "fractional-bound": (QUIVER_HEAD + "bound 3/4\n", "line 4, column 7: "),
    "ragged-act": (A2_SRC + "module M over A2 left\ndim 1 = 2\ndim 2 = 2\n"
                   "act a = [[1,0],[0]]\n", "line 9, column 18: "),
    "lact-shape": (BIMODULE_SRC + "lact x 1 = [[0,1]]\n",
                   "bimodule M: lact x 1 has shape (1, 2), expected (2, 2)"),
    # x * x = 0 but x acts as the identity
    "lact-not-functorial": (BIMODULE_SRC + "lact x 1 = [[1,0],[0,1]]\n",
                            "bimodule M is not functorial: U-action on M(-,1): "
                            "action not functorial at (1,1,1) on x*x\n"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_named_and_exits_1(name, tmp_path, capsys):
    src, message = BAD_INPUTS[name]
    path = tmp_path / "bad.kcat"
    path.write_text(src)
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"{path}: {message}")


def test_zero_denominator_is_a_parse_error(tmp_path, capsys):
    src = "category C over Q\nquiver\nobject s\narrow x: s -> s\nrel 1/0*x*x = 0\n"
    with pytest.raises(ParseError, match="line 5, column 5: zero denominator in '1/0'"):
        parse(src)
    path = tmp_path / "bad.kcat"
    path.write_text(src)
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{path}: line 5, column 5: zero denominator in '1/0'\n"


DUAL_GF5 = DUAL_SRC.replace("GF(32003)", "GF(5)")

# a coefficient whose denominator is a multiple of p, at each place one is read
VANISHING_DENOMINATORS = {
    "rel": DUAL_GF5 + "rel 1/5*x*x*x = 0\n",
    "act": DUAL_GF5 + "module S over D left\ndim s = 1\nact x = [[1/5]]\n",
    "comp": TABLE_SRC.replace("over Q", "over GF(5)").replace("comp e*e = e",
                                                              "comp e*e = 1/5*e"),
    "ideal": DUAL_GF5 + "ideal I in D gens: 1/5*x\n",
}


@pytest.mark.parametrize("name", sorted(VANISHING_DENOMINATORS))
def test_denominator_that_vanishes_in_gf_p_exits_1(name, tmp_path, capsys):
    path = tmp_path / "bad.kcat"
    path.write_text(VANISHING_DENOMINATORS[name])
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}: coefficient 1/5 is not defined in GF(5): "
                            "its denominator vanishes\n")


@pytest.mark.parametrize("field", [[], ["--field", "gf:2"], ["--field", "gf:3"]],
                         ids=["default", "gf2", "gf3"])
def test_cli_verify_oracle(tmp_path, capsys, field):
    path = tmp_path / "d.kcat"
    path.write_text(DUAL_SRC + "task cohomology D\n")
    code = main([str(path), "--max-degree", "3", "--verify-oracle"] + field)
    assert code == 0
    out = capsys.readouterr().out
    assert "bar-resolution oracle" in out


def test_grammar_rejects_unknown_task():
    with pytest.raises(ParseError):
        parse("task explode X\n")


def test_exit_3_on_verification_failure(monkeypatch):
    # exercise the verification-failure exit path by sabotaging the
    # center computation the cohomology task cross-checks against
    import homcat.cli as cli_mod
    monkeypatch.setattr(cli_mod, "center", lambda cat: (99, []))
    reports, code = run_source(DUAL_SRC + "task cohomology D\n")
    assert reports[0].status == "verification"
    assert code == 3


def test_grammar_accepts_and_rejects_each_production():
    # accepted forms, one per production
    parse("category C over GF(7)\nquiver\nobject 1\n")
    parse("category C over Q\nquiver\nobject 1\narrow x: 1 -> 1\nrel x*x = 0\nbound 9\n")
    parse(TABLE_SRC)
    parse(A2_SRC + "module M over A2 left\ndim 1 = 1\nact a = [[1]]\n")
    parse(A2_SRC + "bimodule B over (A2,A2)\ndim 1 1 = 1\nlact a 1 = [[1]]\nract a 1 = [[1]]\n")
    parse(A2_SRC + "ideal I in A2 gens: a, 2*a\n")
    parse(A2_SRC + "task validate A2\ntask cohomology A2\n")
    # rejected forms
    for bad in [
        "category C over R\n",                       # unknown field
        "category C over Q\nquiver\nrel = 0\n",       # empty relation
        "category C over Q\nquiver\nbound x\n",       # non-numeric bound
        "category C over Q\nquiver\narrow a 1 -> 2\n",  # missing colon
        "object 1 2\n",                               # object outside a quiver
        "module M over A2 upside\n",                  # bad side
        "dim 1 = 1\n",                                # dim outside a block
        "act a = [[1]]\n",                            # act outside a block
        "lact a 1 = [[1]]\n",                         # lact outside a bimodule
        "ideal I in A2 foo: a\n",                     # missing gens keyword
        "task cohomology\n" + "quiver\n",             # quiver outside category
        "hom 1 2: a\n",                               # table line outside block
        "comp g*f = g\n",                             # comp outside block
        "id 1 = e\n",                                 # id outside block
    ]:
        with pytest.raises(ParseError):
            parse(bad)
    # build-time rejections
    with pytest.raises(UnresolvedName):
        Workspace(parse(TABLE_SRC.replace("id q = f\n", "")))   # missing identity
    with pytest.raises(UnresolvedName):
        Workspace(parse(TABLE_SRC + "comp g*g = g\n"))          # not composable


def test_bimodule_with_actions(tmp_path):
    src = """\
category U over Q
quiver
object 1
arrow x: 1 -> 1
rel x*x = 0
category T over Q
quiver
object 1
bimodule M over (U,T)
dim 1 1 = 2
lact x 1 = [[0,0],[1,0]]
task cmp T U M
"""
    reports, code = run_source(src)
    assert code == 0
    assert all(reports[0].doc["exact_at"])


Q_LES_SRC = """\
category D over Q
quiver
object s
arrow x: s -> s
rel x*x = 0
category A over Q
quiver
object 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
ideal I in A gens: e2
task cohomology D
task les A I
"""

# A_4 over GF(32003) cut at its second vertex, and the triangular category
# of the dual numbers over Q with a two-dimensional bimodule.
LES_A4_CMP_SRC = """\
category A over GF(32003)
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
ideal I in A gens: e2
category U over Q
quiver
object s
arrow x: s -> s
rel x*x = 0
category T over Q
quiver
object 1
bimodule M over (U,T)
dim s 1 = 2
lact x 1 = [[0,0],[1,0]]
task les A I
task cmp T U M
"""

# a commutative square over Q with 2 b*a = 3/2 d*c and an ideal generated
# by 1/2 e2, and the dual numbers acting on a corner by -3/2: non-integral
# structure constants and actions, so Fractions survive in every layer
Q_FRACTIONS_SRC = """\
category S over Q
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
rel 2 b*a - 3/2 d*c = 0
ideal I in S gens: 1/2 e2
category U over Q
quiver
object s
arrow x: s -> s
rel x*x = 0
category T over Q
quiver
object 1
bimodule M over (U,T)
dim s 1 = 2
lact x 1 = [[0,0],[-3/2,0]]
task cohomology S
task les S I
task cmp T U M
"""

# strong idempotency of <e2> in A_4, and Happel's sequence for the
# Kronecker quiver with a module on which a acts as 1 and b as 0
IDEAL_CHECK_SRC = """\
category A over GF(32003)
quiver
object 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 4
ideal I in A gens: e2
category K over GF(32003)
quiver
object 1 2
arrow a: 1 -> 2
arrow b: 1 -> 2
module S over K left
dim 1 = 1
dim 2 = 1
act a = [[1]]
act b = [[0]]
task ideal-check A I
task happel K S
"""

# Happel's sequence for A_3 and its projective P_1, whose one-point
# extension has three objects and so four on its model
HAPPEL_A3_SRC = """\
category A over GF(32003)
quiver
object 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
module P over A left
dim 1 = 1
dim 2 = 1
dim 3 = 1
act a = [[1]]
act b = [[1]]
task happel A P
"""

FROZEN_SOURCES = {"q-les": Q_LES_SRC, "les-a4-cmp": LES_A4_CMP_SRC,
                  "q-fractions": Q_FRACTIONS_SRC, "ideal-check": IDEAL_CHECK_SRC,
                  "happel-a3": HAPPEL_A3_SRC}

# SHA-256 of `homcat <file> --json --max-degree 3 <flags>` stdout, frozen so
# that a change to the elimination kernels cannot move a report byte
# unnoticed.  `demo-gf2` runs demo.kcat in characteristic 2, where sparse
# sums cancel to zero; `demo-q` runs its GF(32003) category over Q, and
# its report equals `demo`'s because no dimension in it depends on the
# characteristic away from 2.  `les-a4-cmp` covers the `les` and `cmp`
# pipelines over GF(32003) and Q.  `q-fractions` was pinned while every Q
# entry was still a Fraction, before integral entries became ints.
# `ideal-check` pins the strong-idempotency check and a `happel` run, and
# `happel-a3` (at degree 4: the later --max-degree wins) a `happel` run with
# several objects; both were pinned while the triangular category was
# still resolved by summands cut out of its representables, before
# `cmp` and `happel` moved to a model of it.
FROZEN_REPORTS = {
    "demo": ([], "4c6b90884a8d3b70f8de326088411a0cb4c68cfd29902e3bcbd5dea9ddf8107f"),
    "demo-gf2": (["--field", "gf:2"],
                 "4d27f1ce5b9501f6a7803b6ff489edef597d0978d755c6a4e8684ae880e1d46c"),
    "demo-q": (["--field", "Q"],
               "4c6b90884a8d3b70f8de326088411a0cb4c68cfd29902e3bcbd5dea9ddf8107f"),
    "q-les": ([], "4137fa42248f4c255a4f153ab45524ba211287289f40ed370f423e3d5099726a"),
    "les-a4-cmp": ([], "32d8093d7050d2ed243f96d5174a4854deb7682dccb8deaf3caa78828f87e38d"),
    "q-fractions": ([], "c65c58099155b44b5328144689ad817df0589b756070c3e9b79662aa5aec1414"),
    "ideal-check": ([], "528c597040e3b030599797d8d318a4ec574a36e53dba166083b359bd822810db"),
    "happel-a3": (["--max-degree", "4"],
                  "3e6f6a1b963242dcd141732250e7a2875953c6dc7def5f912e5e8b76256d74a3"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
def test_frozen_report_bytes(name, tmp_path, capsys):
    flags, digest = FROZEN_REPORTS[name]
    if name.startswith("demo"):
        path = Path(__file__).resolve().parent.parent / "demo.kcat"
    else:
        path = tmp_path / f"{name}.kcat"
        path.write_text(FROZEN_SOURCES[name])
    assert main([str(path), "--json", "--max-degree", "3"] + flags) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verification_failure_in_task_gives_exit_3(monkeypatch):
    import homcat.cli as cli_mod

    def broken(cat, ideal, n):
        raise VerificationFailed("boundaries are not cocycles")

    monkeypatch.setattr(cli_mod, "theorem_les_pipeline", broken)
    src = A2_SRC + "ideal I in A2 gens: e2\ntask les A2 I\n"
    reports, code = run_source(src)
    assert reports[0].status == "verification"
    assert reports[0].doc["notes"] == ["verification failed: boundaries are not cocycles"]
    assert code == 3


def test_failed_les_consistency_check_is_a_verification_failure(monkeypatch, tmp_path, capsys):
    import homcat.theorems as theorems_mod

    # the LES assembly reads every boundary inside the cocycles by solve,
    # which cannot fail on a genuine complex: None there is a bug, reported
    # as a failed verification, not as bad input or a failed hypothesis.
    # happel runs that check on the model of the one-point extension
    monkeypatch.setattr(theorems_mod, "solve", lambda a, b: None)
    path = tmp_path / "ws.kcat"
    path.write_text(DUAL_SRC + "module S over D left\ndim s = 1\nact x = [[0]]\n"
                    "task happel D S\n")
    assert main([str(path)]) == 3
    out = capsys.readouterr().out
    assert "happel D S: verification failed: boundaries are not cocycles" in out


def test_verification_failure_while_building_gives_exit_3(monkeypatch, tmp_path, capsys):
    import homcat.cli as cli_mod

    def broken(cat, gens):
        raise VerificationFailed("internal consistency check failed")

    monkeypatch.setattr(cli_mod, "ideal_from_generators", broken)
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "ideal I in A2 gens: a\ntask validate A2\n")
    assert main([str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: verification failed: internal consistency check failed\n"


def test_a_broken_triangular_corner_is_a_verification_failure(monkeypatch):
    import homcat.modcat as modcat_mod

    # T, U and M are validated when the workspace is built, so a corner
    # that fails validation afterwards is a fault of the construction:
    # exit 3, not invalid input
    ws = Workspace(parse(CMP_SRC))
    real = modcat_mod.slot_action
    monkeypatch.setattr(modcat_mod, "slot_action", lambda *args: real(*args).scale(2))
    reports, code = run_workspace(ws, {"max_degree": 2, "seed": 0, "verify_oracle": False})
    assert reports[0].status == "verification"
    assert reports[0].doc["notes"][0].startswith(
        "verification failed: triangular construction is not a category")
    assert code == 3


def test_internal_error_while_building_gives_exit_4(monkeypatch, tmp_path, capsys):
    import homcat.cli as cli_mod

    def broken(cat, gens):
        raise TypeError("unhashable type: 'list'")

    monkeypatch.setattr(cli_mod, "ideal_from_generators", broken)
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "ideal I in A2 gens: a\ntask validate A2\n")
    assert main([str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: internal error: TypeError: unhashable type: 'list'\n"


def test_bare_value_error_while_building_gives_exit_4(monkeypatch, tmp_path, capsys):
    import homcat.cli as cli_mod

    def broken(cat, gens):
        raise ValueError("not enough values to unpack")

    # only homcat's own input errors mean bad input; a bare ValueError is a bug
    monkeypatch.setattr(cli_mod, "ideal_from_generators", broken)
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "ideal I in A2 gens: a\ntask validate A2\n")
    assert main([str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: internal error: ValueError: not enough values to unpack\n"


def test_zero_division_while_building_gives_exit_4(monkeypatch, tmp_path, capsys):
    import homcat.cli as cli_mod

    def broken(cat, gens):
        raise ZeroDivisionError("inverse of 0")

    # bad input never divides by zero, so a ZeroDivisionError is a bug
    monkeypatch.setattr(cli_mod, "ideal_from_generators", broken)
    path = tmp_path / "ws.kcat"
    path.write_text(A2_SRC + "ideal I in A2 gens: a\ntask validate A2\n")
    assert main([str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: internal error: ZeroDivisionError: inverse of 0\n"


def test_internal_error_in_task_gives_exit_4(monkeypatch, tmp_path, capsys):
    import homcat.exactla

    def broken(self, other):
        raise ValueError("shape mismatch (2, 3) * (2, 3)")

    # a bare built-in error from a kernel is a bug, not invalid input
    monkeypatch.setattr(homcat.exactla.Mat, "mul", broken)
    src = A2_SRC + "ideal I in A2 gens: e2\ntask les A2 I\n"
    reports, code = run_source(src)
    assert reports[0].status == "internal"
    assert reports[0].doc["notes"] == ["internal error: ValueError: shape mismatch (2, 3) * (2, 3)"]
    assert code == 4
    path = tmp_path / "ws.kcat"
    path.write_text(src)
    assert main([str(path)]) == 4
    captured = capsys.readouterr()
    assert "les A2 I: internal error: ValueError: shape mismatch" in captured.out
    assert captured.err == (f"{path}: les A2 I: internal error: ValueError: "
                            "shape mismatch (2, 3) * (2, 3)\n")


def test_unknown_task_names_are_validation_errors():
    reports, code = run_source(A2_SRC + "task les A2 J\ntask happel A2 M\ntask cmp A2 A2 B\n")
    assert [r.status for r in reports] == ["validation"] * 3
    assert reports[0].doc["notes"] == ["task error: unknown ideal 'J'"]
    assert code == 1


def test_task_arity_checked_at_parse():
    with pytest.raises(ParseError, match="task les takes 2 arguments, got 1"):
        parse(A2_SRC + "task les A2\n")


# one workspace per failure kind at task time, with its exit code alone
FAILING_TASKS = {
    "validation": (A2_SRC + "task les A2 J\n", 1),
    "hypothesis": (A2_SRC + "ideal R in A2 gens: a\ntask ideal-check A2 R\n", 2),
    "verification": (A2_SRC + "ideal I in A2 gens: e2\ntask les A2 I\n", 3),
}


@pytest.mark.parametrize("first, second, expected", [
    ("validation", "verification", 1), ("verification", "validation", 1),
    ("hypothesis", "verification", 2), ("verification", "hypothesis", 2),
    ("validation", "hypothesis", 1), ("hypothesis", "validation", 1),
])
def test_exit_precedence_is_the_same_across_files(first, second, expected,
                                                  monkeypatch, tmp_path, capsys):
    import homcat.cli as cli_mod

    def broken(cat, ideal, n):
        raise VerificationFailed("boundaries are not cocycles")

    monkeypatch.setattr(cli_mod, "theorem_les_pipeline", broken)
    paths = []
    for kind in (first, second):
        src, alone = FAILING_TASKS[kind]
        paths.append(tmp_path / f"{kind}.kcat")
        paths[-1].write_text(src)
        assert main([str(paths[-1])]) == alone
    # within one file and across files the same order holds
    assert run_source(FAILING_TASKS[first][0] + FAILING_TASKS[second][0]
                      .replace(A2_SRC, ""))[1] == expected
    assert main([str(p) for p in paths]) == expected


def test_file_that_fails_to_build_does_not_stop_the_run(tmp_path, capsys):
    bad = tmp_path / "bad.kcat"
    bad.write_text("category X over Q\nquiver\nobject 1\narrow a: 1 -> 2\n")
    good = tmp_path / "good.kcat"
    good.write_text(A2_SRC + "task validate A2\n")
    assert main([str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "validate A2: ok\n"
    assert captured.err.startswith(f"{bad}: ")


def test_closed_pipe_exits_quietly(tmp_path):
    path = tmp_path / "many.kcat"
    path.write_text(DUAL_SRC + "task validate D\n" * 1000)
    # 1000 reports of about 150 bytes: more than a pipe buffer holds
    with subprocess.Popen(
            [sys.executable, "-m", "homcat", str(path), "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(homcat.__file__).resolve().parents[1])}
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert json.loads(first)["task"] == "validate"
    assert err == b""


# dim End(1) = 2 for the loop x with x*x = 0, so the simple at 1 takes its
# scalar from a power of the action when the characteristic is 2
LOOP_IDEAL_SRC = """category C over GF(2)
quiver
object 1 2
arrow x: 1 -> 1
arrow a: 1 -> 2
rel x*x = 0
rel a*x = 0
ideal I in C gens: a
task ideal-check C I
"""


@pytest.mark.parametrize("flags", [[], ["--field", "gf:3"]])
def test_ideal_check_with_dim_end_divisible_by_the_characteristic(tmp_path, capsys, flags):
    path = tmp_path / "loop.kcat"
    path.write_text(LOOP_IDEAL_SRC)
    assert main([str(path), "--json"] + flags) == 2
    doc = json.loads(capsys.readouterr().out.splitlines()[0])
    assert doc["hypotheses"]["ideal_module_projective"] == {"1": True, "2": True}
    assert doc["hypotheses"]["witness"] == {
        "condition": "tor-vanishing-projective", "object": "2", "sample": "rep(1)",
        "degree": 1, "dim": 1}


# K x K as a table: u the identity, e an idempotent.  The ideal of u - e is
# a line that is not a coordinate subspace, so the quotient basis is a
# genuine complement and not a subset of the table's basis
PRODUCT_IDEAL_SRC = """category P over Q
table
hom s s: u e
comp u*u = u
comp e*u = e
comp u*e = e
comp e*e = e
id s = u
ideal I in P gens: u - e
task ideal-check P I
task les P I
"""


@pytest.mark.parametrize("flags", [[], ["--field", "gf:2"], ["--field", "gf:32003"]])
def test_ideal_of_a_non_coordinate_span(tmp_path, capsys, flags):
    path = tmp_path / "product.kcat"
    path.write_text(PRODUCT_IDEAL_SRC)
    assert main([str(path), "--json", "--max-degree", "3"] + flags) == 0
    check, les = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert check["hypotheses"]["strongly_idempotent_samples_pass"] is True
    assert les["dims"] == {"ExtCI": [1, 0, 0, 0], "HC": [2, 0, 0, 0], "HB": [1, 0, 0, 0]}
    assert all(les["exact_at"])
    assert les["identifications"]["HB_independent"] == [1, 0, 0, 0]


def _homcat_env():
    return {**os.environ, "PYTHONPATH": str(Path(homcat.__file__).resolve().parents[1])}


def test_importing_the_cli_does_not_load_argparse():
    # only main parses a command line; the API import stays without it
    code = "import sys, homcat.cli; sys.exit('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_homcat_env(), timeout=120)
    assert proc.returncode == 0


def test_a_run_loads_neither_the_reference_nor_the_zoo():
    # the tests' oracles and categories stay out of a run, lazily imported
    # ones too, which the walk of tests/test_reachability.py cannot see
    code = ("import sys\n"
            "from homcat.cli import main\n"
            "code = main(['demo.kcat', '--json'])\n"
            "loaded = [n for n in ('homcat.reference', 'homcat.zoo') if n in sys.modules]\n"
            "sys.stderr.write(repr((code, loaded)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          cwd=Path(__file__).resolve().parents[1], env=_homcat_env(),
                          timeout=120)
    assert proc.stderr == b"(0, [])"


@pytest.mark.parametrize("args, message", [
    ([], b"the following arguments are required: files"),
    (["--no-such-flag", "demo.kcat"], b"unrecognized arguments: --no-such-flag"),
])
def test_a_bad_command_line_exits_2_by_argparse(args, message):
    proc = subprocess.run([sys.executable, "-m", "homcat", *args], capture_output=True,
                          env=_homcat_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"usage: homcat ")
    assert message in proc.stderr
    assert proc.stdout == b""
