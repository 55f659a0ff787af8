import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homcat
from homcat.exactla import (ComplementData, Field, Mat, VerificationFailed, block_diag,
                            complex_cohomology_dims, kron, rank, unit_vector)
from homcat.hochschild import bar_resolution, hochschild_cohomology
from homcat.kcat import (
    enveloping, one_point_extension, opposite, pair_object, quotient_category,
    triangular_matrix, triangular_model, unit_category,
)
from homcat.ideals import TwoSidedIdeal, ideal_from_generators, opposite_ideal, triangular_ideal
from homcat.certify import build_quiver_category
from homcat.modcat import (
    CatModule, ModuleMap, as_left_over_op, bimodule, ext, ext_data, ideal_representable,
    is_projective, over_unit, projective_resolution, quotient_representable,
    regular_bimodule, representable, restrict_module, simple,
)
from homcat.reference import as_right_over_op, compose_basis, tor, whole_ideal, zero_ideal
from homcat.theorems import (
    CheckReport, HypothesisFailed, ResolutionTooShort, SESOfBimodules, ZeroModule,
    audit_hypotheses, canonical_ses, cmp_pipeline, default_quotient_samples, happel_pipeline,
    les_from_ses, strongly_idempotent_check, theorem_les_pipeline, triangular_les_pipeline,
)
from homcat import zoo

Q = Field.rationals()
F = Field.gf(32003)


def one_dim_bimodule(u, t):
    return bimodule(u, t, {("*", "*"): 1},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)})


def right_module_bimodule(module):
    """A right T-module as a (unit, T)-bimodule."""
    t = module.base
    dims = {("*", T): k for T, k in module.dims.items()}
    lact = {("*", "*", 0, T): Mat.identity(t.field, k) for T, k in module.dims.items()}
    ract = {(x, y, i, "*"): mat for (x, y, i), mat in module.act.items()}
    return bimodule(unit_category(t.field), t, dims, lact, ract)


def classic_lambda(field):
    u = unit_category(field)
    return triangular_matrix(u, u, one_dim_bimodule(u, u))


def _factors(lam):
    """The T, U and M of a triangular matrix category."""
    info = lam.triangular
    return info["t"], info["u"], info["m"]


def test_canonical_ses_zero_and_whole():
    a2 = zoo.a2(Q)
    ses0 = canonical_ses(a2, zero_ideal(a2))
    assert ses0.sub.is_zero()
    assert ses0.quot.dims == ses0.mid.dims
    sesw = canonical_ses(a2, whole_ideal(a2))
    assert sesw.quot.is_zero()
    assert sesw.sub.dims == sesw.mid.dims


def test_canonical_ses_triangular_quot_dims():
    lam = classic_lambda(Q)
    ses = canonical_ses(lam, triangular_ideal(lam))
    o = lam.objects[0]
    assert ses.quot.dims[pair_object(o, o)] == 1     # the U corner only
    assert ses.sub.dims[pair_object(o, o)] == 2


def _pulled_back_quotient(c, ideal):
    """The oracle for H: the quotient's regular bimodule pulled back along
    phi^op tensor phi, the env morphism f tensor g acting as phi(f) tensor
    phi(g), with projection phi at every pair object.  A copy of the ideal
    computes the complements afresh."""
    copy = TwoSidedIdeal(c, ideal.span, check=False)
    phi = {(x, y): copy.complement(x, y).proj for x in c.objects for y in c.objects}
    reg = regular_bimodule(quotient_category(c, copy))
    env = enveloping(c)
    pairs = [(x, y) for x in c.objects for y in c.objects]
    act = {}
    for a, b1 in pairs:
        for a2, b2 in pairs:
            p, q = pair_object(a, b1), pair_object(a2, b2)
            image = kron(phi[(a2, a)], phi[(b1, b2)])
            for i in range(env.dim(p, q)):
                act[(p, q, i)] = reg.act_vec(p, q, image.col(i))
    dims = {pair_object(x, y): reg.dims[pair_object(x, y)] for x, y in pairs}
    proj = {pair_object(x, y): phi[(x, y)] for x, y in pairs}
    # a pullback along a functor is a module, so the oracle skips validation
    return CatModule(env, "left", dims, act, check=False), proj


def _ses_cases(field):
    """(category, ideal): the zero ideal, the whole ideal and each <e_x> on
    the zoo and seeded two-object categories; the triangular ideal on
    one-point extensions by representables and simples."""
    cats = [zoo.a2(field), zoo.a3(field), zoo.kronecker(field), zoo.dual_numbers(field)]
    for c in cats + [zoo.random_two_object(field, seed) for seed in range(6)]:
        yield c, zero_ideal(c)
        yield c, whole_ideal(c)
        for x in c.objects:
            yield c, ideal_from_generators(c, [(x, x, c.id_coords(x))])
    for u in cats:
        modules = [representable(u, y) for y in u.objects]
        modules += [simple(u, y) for y in u.objects]
        for module in modules:
            lam = one_point_extension(u, module)
            yield lam, triangular_ideal(lam)


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_quotient_bimodule_equals_the_pulled_back_regular_bimodule(p):
    field = Field.gf(p) if p else Q
    cases = 0
    for c, ideal in _ses_cases(field):
        ses = canonical_ses(c, ideal)
        want, proj = _pulled_back_quotient(c, ideal)
        assert ses.quot == want
        assert ses.projection.comp == proj
        # the projection is the ideal's own quotient functor, the very same matrices
        assert all(ses.projection.comp[pair_object(x, y)] is ideal.complement(x, y).proj
                   for x in c.objects for y in c.objects)
        cases += 1
    assert cases == 56


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_the_ideals_projections_are_a_functor_onto_the_quotient(p):
    # phi(g o f) = phi(g) o phi(f) in C/I for every pair of basis
    # morphisms, and phi(1_x) = 1_x: the property no runtime check
    # guards, since every ideal is built two-sided
    field = Field.gf(p) if p else Q
    composites = 0
    for c, ideal in _ses_cases(field):
        b = quotient_category(c, ideal)
        phi = {(x, y): ideal.complement(x, y).proj for x in c.objects for y in c.objects}
        for x in c.objects:
            assert phi[(x, x)].mul_vec(c.id_coords(x)) == b.id_coords(x), x
            for y in c.objects:
                for z in c.objects:
                    for i in range(c.dim(x, y)):
                        f = unit_vector(field, c.dim(x, y), i)
                        for j in range(c.dim(y, z)):
                            g = unit_vector(field, c.dim(y, z), j)
                            lhs = phi[(x, z)].mul_vec(c.compose(x, y, z, f, g))
                            rhs = b.compose(x, y, z, phi[(x, y)].mul_vec(f),
                                            phi[(y, z)].mul_vec(g))
                            assert lhs == rhs, (x, y, z, i, j)
                            composites += 1
    assert composites == 1435


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_the_quotient_by_an_ideal_is_a_category(p):
    # C/I is built unchecked: the unit and associativity laws hold because
    # I is two-sided, and nothing at run time checks them
    field = Field.gf(p) if p else Q
    cases = [quotient_category(c, ideal).validate().ok for c, ideal in _ses_cases(field)]
    assert cases == [True] * 56


def test_each_span_complement_is_built_once(monkeypatch):
    # H, the projection, B = C/I and every C/I(x,-) read the ideal's
    # complements, and the opposite ideal shares them
    built = []
    init = ComplementData.__init__

    def recording(self, span):
        built.append(span)
        init(self, span)

    monkeypatch.setattr(ComplementData, "__init__", recording)
    a3 = zoo.a3(Q)
    for run in (theorem_les_pipeline, strongly_idempotent_check):
        ideal = ideal_from_generators(a3, [("1", "1", (1,))])
        built.clear()
        run(a3, ideal, 2)
        counts = [sum(span is s for s in built) for span in ideal.span.values()]
        assert counts == [1] * 9, run.__name__


def test_les_with_zero_sub():
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    reg = regular_bimodule(a2, env)
    ses = canonical_ses(a2, zero_ideal(a2), env=env, regular=reg)
    res = projective_resolution(reg, 4)
    report = les_from_ses(res, ses, 2)
    assert report.all_exact()
    assert report.dims["ExtCI"] == [0, 0, 0]
    assert report.dims["HC"] == report.dims["HB"]
    for delta in report.maps["delta"]:
        assert delta.is_zero() or delta.cols == 0


def test_les_with_zero_quot():
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    reg = regular_bimodule(a2, env)
    ses = canonical_ses(a2, whole_ideal(a2), env=env, regular=reg)
    res = projective_resolution(reg, 4)
    report = les_from_ses(res, ses, 2)
    assert report.all_exact()
    assert report.dims["HB"] == [0, 0, 0]
    assert report.dims["ExtCI"] == report.dims["HC"]


def non_natural_les():
    """les_from_ses on A2 with the whole ideal, after rescaling the
    inclusion by a different scalar at each object: every rank check of
    the sequence still passes, but the inclusion is no longer natural."""
    a2 = zoo.a2(F)
    env = enveloping(a2)
    reg = regular_bimodule(a2, env)
    ses = canonical_ses(a2, whole_ideal(a2), env=env, regular=reg)
    incl = ses.inclusion
    scaled = ModuleMap(incl.source, incl.target,
                       {x: incl.mat_at(x).scale(F.of(k + 2))
                        for k, x in enumerate(env.objects)}, check=False)
    bad = SESOfBimodules(ses.sub, ses.mid, ses.quot, scaled, ses.projection)
    les_from_ses(projective_resolution(reg, 4), bad, 2)


def test_chain_map_check_survives_optimized_mode():
    with pytest.raises(AssertionError, match="does not commute with the differentials"):
        non_natural_les()
    # python -O strips bare asserts; the check must not depend on them
    src = str(Path(homcat.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "import test_theorems; test_theorems.non_natural_les()"],
        capture_output=True, text=True, timeout=120, cwd=tests,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode != 0
    assert "VerificationFailed: inclusion cochain map does not commute with the differentials" \
        in proc.stderr


def test_resolution_too_short():
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    reg = regular_bimodule(a2, env)
    ses = canonical_ses(a2, zero_ideal(a2), env=env, regular=reg)
    res = projective_resolution(reg, 1)
    with pytest.raises(ResolutionTooShort):
        les_from_ses(res, ses, 3)


def test_audit_rejects_non_idempotent():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    audit = audit_hypotheses(a2, ideal)
    assert not audit["ok"]
    assert "ideal is not idempotent" in audit["reasons"]
    with pytest.raises(HypothesisFailed):
        theorem_les_pipeline(a2, ideal, 2)


def test_pipeline_zero_ideal_trivial():
    u = unit_category(Q)
    report = theorem_les_pipeline(u, zero_ideal(u), 2)
    assert report.all_exact()
    assert report.identifications["ext_IH_vanishes"]
    assert all(report.identifications["ext_CH_equals_HB"])


def test_pipeline_classic_lambda():
    lam = classic_lambda(Q)
    report = triangular_les_pipeline(*_factors(lam), 3)
    assert report.all_exact()
    assert report.dims["HC"] == [1, 0, 0, 0]
    assert report.dims["HB"] == [1, 0, 0, 0]
    assert report.dims["ExtCI"] == [0, 0, 0, 0]
    assert report.identifications["ext_IH"] == [0, 0, 0, 0]
    assert report.identifications["H0_embedding"]
    assert report.identifications["one_sided_ext_vanishing"]
    # independent standalone Ext of (regular, ideal bimodule) over Lambda
    # itself agrees; its resolution is not minimal, so it is
    # read only through degree 1
    env = enveloping(lam)
    reg = regular_bimodule(lam, env)
    from homcat.modcat import ideal_bimodule
    sub, _ = ideal_bimodule(lam, triangular_ideal(lam), env=env, regular=reg)
    assert ext(reg, sub, 1) == report.dims["ExtCI"][:2]


def test_cmp_pipeline_classic():
    u = unit_category(Q)
    report = cmp_pipeline(u, u, one_dim_bimodule(u, u), 3)
    assert report.all_exact()
    assert all(report.identifications["HB_equals_HU"])


def test_cmp_pipeline_zero_bimodule():
    a2 = zoo.a2(F)
    report = cmp_pipeline(a2, a2, bimodule(a2, a2, {}, {}, {}), 2)
    assert report.all_exact()
    # H(A2 disjoint A2) has a two-dimensional degree-0 part
    assert report.dims["HC"][0] == 2
    assert report.dims["HB"][0] == 1
    assert report.dims["ExtCI"][0] == 1


def test_cmp_pipeline_dual_coefficients():
    u = unit_category(F)
    d = zoo.dual_numbers(F)
    m = over_unit(representable(d, "*", "left"))
    report = cmp_pipeline(u, d, m, 3)
    assert report.all_exact()
    assert report.identifications["HU"] == [2, 1, 1, 1]
    assert all(report.identifications["HB_equals_HU"])


def test_euler_characteristic_on_terminating_les():
    # [K 0;K K]: all groups vanish beyond degree 0, so the alternating sum
    # over the truncation is zero
    lam = classic_lambda(Q)
    report = triangular_les_pipeline(*_factors(lam), 3)
    total = 0
    for n in range(4):
        for col in ("ExtCI", "HC", "HB"):
            sign = (-1) ** (3 * n + ("ExtCI", "HC", "HB").index(col))
            total += sign * report.dims[col][n]
    assert total == 0


def test_happel_unit_k():
    u = unit_category(Q)
    k = CatModule(u, "left", {"*": 1}, {("*", "*", 0): Mat.identity(Q, 1)})
    hap = happel_pipeline(u, k, 3)
    assert hap.passed
    assert hap.hom_dim == 1
    assert hap.les.dims["HC"] == [1, 0, 0, 0]
    assert hap.les.dims["HB"] == [1, 0, 0, 0]


def test_happel_unit_k2_kronecker():
    u = unit_category(F)
    k2 = CatModule(u, "left", {"*": 2}, {("*", "*", 0): Mat.identity(F, 2)})
    hap = happel_pipeline(u, k2, 3)
    assert hap.passed
    assert hap.hom_dim - 1 == 3
    assert hap.les.dims["HC"] == [1, 3, 0, 0]    # the Kronecker algebra


def test_happel_dual_numbers_simple():
    d = zoo.dual_numbers(F)
    hap = happel_pipeline(d, simple(d, "*"), 3)
    assert hap.passed
    assert hap.ext_self == [1, 1, 1, 1]
    assert hap.les.dims["ExtCI"] == [0, 0, 1, 1]
    assert hap.les.dims["HB"] == [2, 1, 1, 1]


def test_happel_extension_by_simples_of_a2():
    # extending the path category of 1 -> 2 by either simple gives a tree
    # (or zero-relation) category whose cohomology matches the base
    a2 = zoo.a2(F)
    for x in ("1", "2"):
        hap = happel_pipeline(a2, simple(a2, x), 3)
        assert hap.passed
        assert hap.les.dims["ExtCI"] == [0, 0, 0, 0]
        assert hap.les.dims["HC"] == [1, 0, 0, 0]


def test_happel_zero_module_rejected():
    u = unit_category(Q)
    with pytest.raises(ZeroModule):
        happel_pipeline(u, CatModule(u, "left", {}, {}, check=False), 2)


def test_sid_check_zero_ideal_passes():
    a2 = zoo.a2(Q)
    report = strongly_idempotent_check(a2, zero_ideal(a2), 2)
    assert report.passed


def test_sid_check_negative_control():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    report = strongly_idempotent_check(a2, ideal, 2)
    assert not report.passed
    assert report.witness is not None
    # a concrete Ext^1 witness exists at object 1 against the simple at 2
    ext_rows = [row for row in report.rows
                if row[0] == "ext-vanishing" and not row[4]]
    assert any(x == "1" and dims[0] == 1 for _, x, s, dims, _ in ext_rows)


def test_sid_check_triangular_passes():
    lam = classic_lambda(Q)
    report = strongly_idempotent_check(lam, triangular_ideal(lam), 2)
    assert report.passed
    # both orientations were exercised
    assert any(cond.startswith("op:") for cond, *_ in report.rows)


def test_structural_audits_on_triangular_family():
    u = unit_category(F)
    a2 = zoo.a2(F)
    d = zoo.dual_numbers(F)
    family = [
        triangular_matrix(u, u, one_dim_bimodule(u, u)),
        one_point_extension(a2, representable(a2, "1", "left")),
        triangular_matrix(a2, u, right_module_bimodule(representable(a2, "2", "right"))),
        triangular_matrix(a2, a2, bimodule(a2, a2, {}, {}, {})),
        one_point_extension(d, representable(d, "*", "left")),
    ]
    from homcat.ideals import is_idempotent
    from homcat.modcat import is_projective
    for lam in family:
        ideal = triangular_ideal(lam)
        assert is_idempotent(ideal)
        for x in lam.objects:
            assert is_projective(ideal_representable(lam, ideal, x))


def test_cmp_two_object_twisted_corner():
    # t = A2, u = dual numbers, with a 2-dimensional corner on which x
    # acts nilpotently: a 2-object triangular category whose quotient is a
    # Morita-inflated copy of the dual numbers
    a2 = zoo.a2(F)
    d = zoo.dual_numbers(F)
    dims = {("*", "1"): 0, ("*", "2"): 2}
    lact = {("*", "*", 0, "2"): Mat.identity(F, 2),
            ("*", "*", 1, "2"): Mat.from_rows(F, [[0, 0], [1, 0]])}
    ract = {("2", "2", 0, "*"): Mat.identity(F, 2),
            ("1", "2", 0, "*"): Mat.zeros(F, 0, 2)}
    m = bimodule(d, a2, dims, lact, ract)
    report = cmp_pipeline(a2, d, m, 3)
    assert report.all_exact()
    assert report.dims["HB"] == [2, 1, 1, 1]
    assert all(report.identifications["HB_equals_HU"])


def test_connecting_map_genuinely_nonzero():
    # for the one-point extension of the dual numbers by its simple, the
    # degree-2 connecting map is an isomorphism K -> K (forced by the
    # dimension tables); check the literal matrix is nonzero
    d = zoo.dual_numbers(F)
    lam = one_point_extension(d, simple(d, "*"))
    report = triangular_les_pipeline(*_factors(lam), 3)
    delta2 = report.maps["delta"][2]
    assert delta2.shape == (1, 1)
    assert not delta2.is_zero()
    # and the degree-0 connecting map vanishes (H^0 surjects onto H^0(B))
    assert report.maps["delta"][0].is_zero()


def _one_sided_ext_table(c, ideal, max_deg):
    """Ext(I(x,-), C/I(x2,-)) over C for every object pair, each resolved
    afresh."""
    return {(x, x2): ext(ideal_representable(c, ideal, x),
                         quotient_representable(c, ideal, x2), max_deg)
            for x in c.objects for x2 in c.objects}


def test_lemma_vanishing_recorded():
    lam = classic_lambda(Q)
    report = triangular_les_pipeline(*_factors(lam), 2)
    assert report.identifications["one_sided_ext_vanishing"] is True
    model = _model(lam)
    table = _one_sided_ext_table(model, triangular_ideal(model), 2)
    assert all(all(v == 0 for v in row) for row in table.values())


def linear_a4(field):
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, 4)]
    return build_quiver_category(field, ["1", "2", "3", "4"], arrows, [], 5)


def count_resolutions(monkeypatch):
    """Record the module of every projective_resolution call the pipeline
    makes, directly or through ext."""
    import homcat.modcat as modcat_mod
    import homcat.theorems as theorems_mod
    calls = []
    real = modcat_mod.projective_resolution

    def counted(m, length):
        calls.append(m)
        return real(m, length)

    monkeypatch.setattr(modcat_mod, "projective_resolution", counted)
    monkeypatch.setattr(theorems_mod, "projective_resolution", counted)
    return calls


def _square_with_scalars():
    """The commutative square with 2 b*a = 3/2 d*c over Q: b*a is 3/4 of
    d*c, so ints and non-integral Fractions meet in every layer."""
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    relation = [("2", ["b", "a"]), ("-3/2", ["d", "c"])]
    return build_quiver_category(Q, ("1", "2", "3", "4"), arrows, [relation], 12)


def test_q_les_pipeline_keeps_working_form_inside_and_fractions_outside(monkeypatch):
    square = _square_with_scalars()
    built = []
    from_sparse = Mat.from_sparse.__func__

    def checked(cls, field, rows, cols, nz):
        # inside: an int when integral, else a Fraction; never a float or a bool
        for row in nz:
            for x in row.values():
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)
        m = from_sparse(cls, field, rows, cols, nz)
        built.append(m)
        return m

    monkeypatch.setattr(Mat, "from_sparse", classmethod(checked))
    ideal = ideal_from_generators(square, [("2", "2", ("1/2",))])
    report = theorem_les_pipeline(square, ideal, 3)
    assert report.all_exact()
    entries = [x for m in built for row in m.nz for x in row.values()]
    assert any(type(x) is Fraction for x in entries) and any(type(x) is int for x in entries)
    # outside: every accessor gives Fractions
    for m in built:
        if m.rows * m.cols <= 64:
            assert all(type(x) is Fraction for row in m.data for x in row)
            assert all(type(x) is Fraction for i in range(m.rows) for x in m.row(i))
    objs = square.objects
    for x in objs:
        assert all(type(a) is Fraction for a in square.identity[x])
        for y in objs:
            for z in objs:
                for i in range(square.dim(x, y)):
                    for j in range(square.dim(y, z)):
                        vec = compose_basis(square, x, y, z, i, j)
                        assert all(type(a) is Fraction for a in vec)
    assert compose_basis(square, "1", "2", "4", 0, 0) == (Fraction(3, 4),)


def test_pipeline_resolves_each_module_once(monkeypatch):
    # C over C^e, I over C^e for Ext(I, H), and each I(x,-) once
    a3 = zoo.a3(Q)
    ideal = ideal_from_generators(a3, [("1", "1", (1,))])
    calls = count_resolutions(monkeypatch)
    report = theorem_les_pipeline(a3, ideal, 3)
    assert report.all_exact()
    assert len(calls) == len(a3.objects) + 2 == 5
    over_c = [m for m in calls if m.base is a3]
    assert over_c == [ideal_representable(a3, ideal, x) for x in a3.objects]


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_one_sided_ext_table_matches_fresh_ext(p, monkeypatch):
    import homcat.theorems as theorems_mod
    field = Field.gf(p) if p else Q
    calls = count_resolutions(monkeypatch)
    rows = []
    real_ext = theorems_mod.ext

    def recorded(*args, **kwargs):
        out = real_ext(*args, **kwargs)
        if "res" in kwargs:       # a one-sided row, on the shared resolution of I(x,-)
            rows.append(out)
        return out

    monkeypatch.setattr(theorems_mod, "ext", recorded)
    for c in (zoo.a3(field), linear_a4(field)):
        for v in c.objects:
            ideal = ideal_from_generators(c, [(v, v, c.id_coords(v))])
            calls.clear()
            rows.clear()
            report = theorem_les_pipeline(c, ideal, 2)
            assert report.all_exact()
            assert len(calls) == len(c.objects) + 2
            fresh = _one_sided_ext_table(c, ideal, 2)
            assert rows == list(fresh.values())
            assert report.identifications["one_sided_ext_vanishing"] == all(
                d == 0 for row in rows for d in row)


def _reference_check(c, ideal, max_deg, mirror=True):
    """The strong-idempotency check without the shared resolutions: every
    pulled-back sample is resolved for its Tor rows against C/I(-,x), and
    the whole check reruns on C^op for the "op:" rows."""
    b = quotient_category(c, ideal)
    report = CheckReport(max_deg)
    quotients = [(x, projective_resolution(quotient_representable(c, ideal, x), max_deg + 1),
                  quotient_representable(c, ideal, x, "right")) for x in c.objects]
    for kind, y, sample in default_quotient_samples(b):
        name = f"{kind}({y})"
        module = restrict_module(sample, ideal)
        res = projective_resolution(module, max_deg + 1)
        for x, q_res, q_right in quotients:
            report.record("ext-vanishing", x, name,
                          ext(q_res.module, module, max_deg, res=q_res)[1:])
            condition = "tor-vanishing-projective" if kind == "rep" else "tor-vanishing"
            report.record(condition, x, name, tor(q_right, module, max_deg, res=res)[1:])
    if mirror:
        c_op = opposite(c)
        op = _reference_check(c_op, opposite_ideal(ideal, c_op), max_deg, mirror=False)
        for cond, x, s, dims, ok in op.rows:
            report.rows.append((f"op:{cond}", x, s, dims, ok))
            if not ok and report.witness is None:
                report.witness = op.witness
    return report


def _single_morphism_ideals(c):
    """The zero ideal and the ideal of every single basis morphism."""
    yield zero_ideal(c)
    for x in c.objects:
        for y in c.objects:
            for i in range(c.dim(x, y)):
                coords = tuple(1 if j == i else 0 for j in range(c.dim(x, y)))
                yield ideal_from_generators(c, [(x, y, coords)])


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_check_matches_the_per_sample_reference(p):
    field = Field.gf(p) if p else Q
    failing = 0
    for c in (zoo.kronecker(field), zoo.dual_numbers(field),
              zoo.random_two_object(field, p % 4), zoo.a3(field)):
        for ideal in _single_morphism_ideals(c):
            got = strongly_idempotent_check(c, ideal, 2)
            want = _reference_check(c, ideal, 2)
            assert got.rows == want.rows
            assert got.witness == want.witness
            failing += not got.passed
    assert failing


def _tor_route_check(c, ideal, max_deg):
    """The check with its Tor rows computed as Tor: the sample, moved to a
    right module over the other side, against the other side's quotient
    representable C/I(-,x), resolved there."""
    c_op = opposite(c)
    sides = [(c, ideal, ""), (c_op, opposite_ideal(ideal, c_op), "op:")]
    resolved = [{x: projective_resolution(quotient_representable(cat, i, x), max_deg + 1)
                 for x in c.objects} for cat, i, _ in sides]
    report = CheckReport(max_deg)
    for s, (cat, i, prefix) in enumerate(sides):
        other = sides[1 - s][0]
        for kind, y, sample in default_quotient_samples(quotient_category(cat, i)):
            name = f"{kind}({y})"
            module = restrict_module(sample, i)
            as_right = as_right_over_op(module, other)
            for x in c.objects:
                q_res, q_other = resolved[s][x], resolved[1 - s][x]
                report.record(prefix + "ext-vanishing", x, name,
                              ext(q_res.module, module, max_deg, res=q_res)[1:])
                condition = "tor-vanishing-projective" if kind == "rep" else "tor-vanishing"
                report.record(prefix + condition, x, name,
                              tor(as_right, q_other.module, max_deg, res=q_other)[1:])
    return report


def _check_cases(field):
    """(category, ideal): the zero ideal, each <e_x>, the ideal of the first
    arrow and, on a triangular category, its triangular ideal."""
    u = zoo.a2(field)
    cats = [zoo.a2(field), zoo.a3(field), zoo.kronecker(field), zoo.dual_numbers(field)]
    cats += [zoo.random_two_object(field, seed) for seed in range(6)]
    cats.append(one_point_extension(u, representable(u, "1")))
    for c in cats:
        yield c, zero_ideal(c)
        for x in c.objects:
            yield c, ideal_from_generators(c, [(x, x, c.id_coords(x))])
        arrow = next((x, y, coords) for x in c.objects for y in c.objects
                     for coords in (tuple(int(j == i) for j in range(c.dim(x, y)))
                                    for i in range(c.dim(x, y)))
                     if x != y or coords != c.id_coords(x))
        yield c, ideal_from_generators(c, [arrow])
        if c.triangular is not None:
            yield c, triangular_ideal(c)


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_tor_rows_read_by_duality_match_the_tor_route(p):
    field = Field.gf(p) if p else Q
    cases = failing = 0
    for c, ideal in _check_cases(field):
        for max_deg in (2, 4):
            got = strongly_idempotent_check(c, ideal, max_deg)
            want = _tor_route_check(c, ideal, max_deg)
            assert got.rows == want.rows
            assert got.witness == want.witness
            cases += 1
            failing += not got.passed
    assert cases == 90
    assert 0 < failing < cases


def test_a_sample_without_a_dual_is_an_internal_error(monkeypatch):
    import homcat.theorems as theorems_mod
    real = theorems_mod.default_quotient_samples
    calls = []

    def drop_on_the_mirror_side(b):
        calls.append(b)
        samples = real(b)
        return samples[:-1] if len(calls) == 2 else samples

    monkeypatch.setattr(theorems_mod, "default_quotient_samples", drop_on_the_mirror_side)
    a3 = zoo.a3(Q)
    with pytest.raises(VerificationFailed, match="no dual on the mirror side"):
        strongly_idempotent_check(a3, zero_ideal(a3), 2)


@pytest.mark.parametrize("p", [0, 2])
def test_check_resolves_each_quotient_representable_once_per_side(p, monkeypatch):
    field = Field.gf(p) if p else Q
    a3 = zoo.a3(field)
    calls = count_resolutions(monkeypatch)
    for ideal in (zero_ideal(a3), ideal_from_generators(a3, [("1", "2", (1,))])):
        calls.clear()
        strongly_idempotent_check(a3, ideal, 2)
        assert len(calls) == 2 * len(a3.objects)
        a3_op = opposite(a3)
        assert calls == (
            [quotient_representable(a3, ideal, x) for x in a3.objects]
            + [as_left_over_op(quotient_representable(a3, ideal, x, "right"), a3_op)
               for x in a3.objects])


# -- the split model of Lambda (`triangular_model`) against Lambda itself ---------

FOUR_FIELDS = [Q, Field.gf(2), Field.gf(3), F]


def _module(c, dims, arrows):
    """The left module with the given values, identities acting as 1 and
    the given matrices on the other basis morphisms."""
    act = {(x, x, 0): Mat.identity(c.field, k) for x, k in dims.items()}
    act.update({(x, y, i): Mat.from_rows(c.field, rows) for (x, y, i), rows in arrows.items()})
    return CatModule(c, "left", dims, act)


def _triangular_inputs(field):
    """("cmp", (T, U, M)) and ("happel", (U, module)) pipeline inputs: the
    triangular family, the benchmark's cmp and happel inputs (one-object
    factors, the dual numbers with a nilpotent corner, the Kronecker
    quiver), and one-point extensions of A_3 and the Kronecker quiver."""
    u, a2, a3 = unit_category(field), zoo.a2(field), zoo.a3(field)
    d, kr = zoo.dual_numbers(field), zoo.kronecker(field)
    two = Mat.identity(field, 2)
    corner = bimodule(d, u, {("*", "*"): 2},
                      {("*", "*", 0, "*"): two,
                       ("*", "*", 1, "*"): Mat.from_rows(field, [[0, 0], [1, 0]])},
                      {("*", "*", 0, "*"): two})
    yield "cmp", (u, u, one_dim_bimodule(u, u))
    yield "cmp", (u, d, corner)
    yield "cmp", (a2, u, right_module_bimodule(representable(a2, "2", "right")))
    yield "cmp", (a2, a2, bimodule(a2, a2, {}, {}, {}))
    yield "happel", (a2, representable(a2, "1"))
    yield "happel", (d, simple(d, "*"))
    yield "happel", (d, representable(d, "*"))
    yield "happel", (u, _module(u, {"*": 2}, {}))
    yield "happel", (a3, _module(a3, {"1": 1, "2": 1, "3": 1},
                                 {("1", "2", 0): [[1]], ("2", "3", 0): [[1]],
                                  ("1", "3", 0): [[1]]}))
    yield "happel", (kr, _module(kr, {"1": 1, "2": 1}, {("1", "2", 0): [[1]],
                                                         ("1", "2", 1): [[0]]}))


def _lambda(kind, args):
    return triangular_matrix(*args) if kind == "cmp" else one_point_extension(*args)


def _model(lam):
    return triangular_model(*_factors(lam))


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_cmp_and_happel_on_the_split_model_match_unsplit_lambda(field):
    # Lambda is resolved by whole representables, which is not minimal
    # and grows with the degree, so the oracle runs at degree 0 (its
    # resolution reaches Ext^2) and, for [K 0; K K], at degree 1
    cases = 0
    for kind, args in _triangular_inputs(field):
        lam = _lambda(kind, args)
        for n in ((0, 1) if cases == 0 else (0,)):
            model = (cmp_pipeline(*args, n) if kind == "cmp" else happel_pipeline(*args, n).les)
            whole = theorem_les_pipeline(lam, triangular_ideal(lam), n)
            assert model.dims == whole.dims
            assert model.exact_at == whole.exact_at
            assert model.hypotheses == whole.hypotheses
            assert list(model.hypotheses["ideal_module_projective"]) == list(lam.objects)
            for name in ("incl", "proj", "delta"):
                assert [rank(m) for m in model.maps[name]] == [rank(m) for m in whole.maps[name]]
            for key, value in whole.identifications.items():
                assert model.identifications[key] == value, key
            # Ext(I(x,-), H(x2,-)) is the sum over the pieces of x and x2
            split = _model(lam)
            table = _one_sided_ext_table(split, triangular_ideal(split), n)
            whole_table = _one_sided_ext_table(lam, triangular_ideal(lam), n)
            pieces = split.triangular["pieces"]
            for x in lam.objects:
                for x2 in lam.objects:
                    rows = [table[(o, o2)] for o in pieces[x] for o2 in pieces[x2]]
                    assert [sum(col) for col in zip(*rows)] == whole_table[(x, x2)]
        cases += 1
    assert cases == 10


def _a2_regular_corner(field):
    """The regular bimodule of A_2 as an (A_2, A_2)-bimodule,
    M(U,T) = A_2(T,U): a acts by postcomposition on the left and by
    precomposition on the right."""
    a2 = zoo.a2(field)
    one = Mat.identity(field, 1)
    dims = {("1", "1"): 1, ("2", "2"): 1, ("2", "1"): 1}
    lact = {(U, U, 0, T): one for U, T in dims}
    lact[("1", "2", 0, "1")] = one
    ract = {(T, T, 0, U): one for U, T in dims}
    ract[("1", "2", 0, "2")] = one
    return a2, bimodule(a2, a2, dims, lact, ract)


def test_the_pipelines_run_on_one_object_per_piece(monkeypatch):
    # one object [T;] per object of T and one [;U] per object of U, even
    # where T and U share their object names; the report keeps the
    # objects [T;U] of Lambda, in Lambda's order
    import homcat.theorems as theorems_mod
    seen = []
    real = theorems_mod.theorem_les_pipeline

    def recording(c, ideal, max_deg=4):
        seen.append(c)
        return real(c, ideal, max_deg)

    monkeypatch.setattr(theorems_mod, "theorem_les_pipeline", recording)
    a3 = zoo.a3(F)
    report = happel_pipeline(a3, representable(a3, "1"), 2).les
    assert seen[-1].objects == ("[*;]", "[;1]", "[;2]", "[;3]")
    assert len(enveloping(seen[-1]).objects) == 16
    assert list(report.hypotheses["ideal_module_projective"]) == ["[*;1]", "[*;2]", "[*;3]"]
    a2, m = _a2_regular_corner(F)
    report = cmp_pipeline(a2, a2, m, 0)
    assert seen[-1].objects == ("[1;]", "[2;]", "[;1]", "[;2]")
    lam = triangular_matrix(a2, a2, m)
    assert lam.objects == ("[1;1]", "[1;2]", "[2;1]", "[2;2]")
    assert list(report.hypotheses["ideal_module_projective"]) == list(lam.objects)
    whole = real(lam, triangular_ideal(lam), 0)
    assert (report.dims, report.exact_at, report.hypotheses) == \
        (whole.dims, whole.exact_at, whole.hypotheses)


def _hh_routes(c, n, bar_degree, minimal_degree):
    """HH(C) by reduced cochains through degree n, by the materialized bar
    resolution through bar_degree and by the minimal resolution through
    minimal_degree."""
    env = enveloping(c)
    reg = regular_bimodule(c, env)
    data = ext_data(bar_resolution(c, bar_degree + 2, env=env, regular=reg), reg, bar_degree)
    return (hochschild_cohomology(c, n), complex_cohomology_dims(data.dims, data.diffs, bar_degree),
            ext(reg, reg, minimal_degree))


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_split_and_unsplit_hochschild_cohomology_agree_on_all_three_routes(field):
    cases = 0
    for kind, args in _triangular_inputs(field):
        lam = _lambda(kind, args)
        cochains, bar, minimal = _hh_routes(_model(lam), 3, 3, 3)
        assert cochains == bar == minimal
        # over Lambda the bar resolution is larger and the minimal route
        # not minimal: both are read through degree 1
        assert _hh_routes(lam, 3, 1, 1) == (cochains, bar[:2], minimal[:2])
        cases += 1
    assert cases == 10


def _lambda_ideal(lam, model, ideal):
    """The ideal of Lambda matching an ideal of its model: at
    ([T;U],[T';U']) the block sum of its spans at ([T;],[T';]),
    ([T;],[;U']) and ([;U],[;U']), the t-, m- and u-blocks of Lambda."""
    pieces = model.triangular["pieces"]
    span = {}
    for x, (a, b) in pieces.items():
        for y, (a2, b2) in pieces.items():
            span[(x, y)] = block_diag(lam.field, [ideal.span[(a, a2)], ideal.span[(a, b2)],
                                                  ideal.span[(b, b2)]])
    return TwoSidedIdeal(lam, span)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_split_audit_reports_each_object_of_lambda(field):
    # the ideal of the model generated by one basis morphism against the
    # matching ideal of Lambda: the audits are equal, and I([T;U],-) is
    # projective exactly when I([T;],-) and I([;U],-) both are, also when
    # exactly one of them is not
    one_fails = 0
    for kind, args in _triangular_inputs(field):
        lam = _lambda(kind, args)
        model = _model(lam)
        for x, y, i, _ in model.basis_morphisms():
            ideal = ideal_from_generators(model, [(x, y, unit_vector(field, model.dim(x, y), i))])
            audit = audit_hypotheses(model, ideal)
            assert audit == audit_hypotheses(lam, _lambda_ideal(lam, model, ideal))
            for z, pieces in model.triangular["pieces"].items():
                ok = [is_projective(ideal_representable(model, ideal, o)) for o in pieces]
                assert audit["ideal_module_projective"][z] == all(ok)
                one_fails += ok.count(False) == 1
    assert one_fails > 0

