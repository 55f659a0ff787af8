import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest

from homcat import modcat, reference
from homcat.exactla import (
    ComplementData, EchelonSpace, Field, Mat, block_diag,
    complex_cohomology_dims, kron, solve, unit_vector,
)
from homcat.kcat import (
    InvalidModule, category_from_tables, enveloping, one_point_extension,
    opposite, pair_object, quotient_category, tensor_category,
    triangular_matrix, triangular_model, unit_category,
)
from homcat.modcat import (
    BaseMismatch, CatModule, as_left_over_op, bimodule, dualize, ext, ideal_representable,
    is_projective, module_hom, minimal_generators, projective_resolution,
    quotient_representable, regular_bimodule, representable, restrict_module, simple,
)
from homcat.reference import (
    as_right_over_op, boxtimes, compose_basis, direct_sum, hom_module, outer_tensor,
    random_module, swap_product_module, tensor_over_cat, tor, verify_resolution, zero_ideal,
    zero_module,
)
from homcat.certify import build_quiver_category
from homcat.theorems import strongly_idempotent_check, theorem_les_pipeline
from homcat.ideals import ideal_from_generators, triangular_ideal
from homcat import zoo

Q = Field.rationals()
F = Field.gf(32003)


def bimodule_actions(field):
    """(module, x, y) for every nonzero Hom space of the enveloping
    categories of the Kronecker quiver and the dual numbers."""
    for cat in (zoo.kronecker(field), zoo.dual_numbers(field)):
        env = enveloping(cat)
        reg = regular_bimodule(cat, env)
        for x in env.objects:
            for y in env.objects:
                if env.dim(x, y):
                    yield reg, x, y


@pytest.mark.parametrize("field", [Q, Field.gf(2), F], ids=repr)
def test_act_vec_unit_coordinates_return_the_stored_matrix(field):
    for m, x, y in bimodule_actions(field):
        for i in range(m.base.dim(x, y)):
            stored = m.act_mat(x, y, i)
            assert m.act_vec(x, y, unit_vector(field, m.base.dim(x, y), i)) is stored


@pytest.mark.parametrize("field", [Q, Field.gf(2), Field.gf(3), F], ids=repr)
def test_act_vec_is_the_linear_combination_of_actions(field):
    rng = random.Random(7 + field.p)
    for m, x, y in bimodule_actions(field):
        d = m.base.dim(x, y)
        for _ in range(4):
            coords = tuple(field.of(Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 7))))
                           for _ in range(d))
            rows, cols = m.act_mat(x, y, 0).shape
            want = [[field.zero()] * cols for _ in range(rows)]
            for i, a in enumerate(coords):
                for r, row in enumerate(m.act_mat(x, y, i).data):
                    for c, v in enumerate(row):
                        want[r][c] = field.add(want[r][c], field.mul(a, v))
            got = m.act_vec(x, y, coords)
            assert got == Mat.from_rows(field, want, cols=cols)
            if field.p == 0:
                assert all(type(v) is Fraction for row in got.data for v in row)


def test_representable_dims():
    a2 = zoo.a2(Q)
    assert representable(a2, "1", "left").dims == {"1": 1, "2": 1}
    assert representable(a2, "2", "left").dims == {"1": 0, "2": 1}
    d = zoo.dual_numbers(Q)
    reg = representable(d, "*", "left")
    assert reg.dims == {"*": 2}
    # x acts nilpotently on the regular module
    x_act = reg.act_mat("*", "*", 1)
    assert not x_act.is_zero() and x_act.mul(x_act).is_zero()


def test_yoneda_dims():
    a2 = zoo.a2(Q)
    p1 = representable(a2, "1", "left")
    p2 = representable(a2, "2", "left")
    assert module_hom(p1, p1).dim == 1
    assert module_hom(p1, p2).dim == 0      # = dim A2(2,1)
    assert module_hom(p2, p1).dim == 1      # = dim A2(1,2)
    for m in [p1, p2, simple(a2, "1"), simple(a2, "2")]:
        for x in a2.objects:
            assert module_hom(representable(a2, x, "left"), m).dim == m.dims[x]


def test_hom_of_simples():
    a2 = zoo.a2(Q)
    assert module_hom(simple(a2, "1"), simple(a2, "2")).dim == 0


def test_simple_dual_numbers_and_invalid():
    d = zoo.dual_numbers(Q)
    s = simple(d, "*")
    assert s.dims == {"*": 1}
    assert s.act_mat("*", "*", 1).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_simple_when_the_characteristic_divides_dim_end(p):
    field = Field.gf(p)
    d = zoo.dual_numbers(field)                 # dim End = 2
    s = simple(d, "*")
    assert s.dims == {"*": 1}
    assert s.act_mat("*", "*", 0) == Mat.identity(field, 1)
    assert s.act_mat("*", "*", 1).is_zero()
    # End = K x K is not local, whatever the characteristic
    kk = category_from_tables(field, ["*"], {("*", "*"): ("e", "f")},
                              {("*", "*", "*"): [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                              {"*": (1, 1)})
    with pytest.raises(InvalidModule, match="no simple module supported at"):
        simple(kk, "*")
    # an object of dim End = 3, local: K[x]/(x^3)
    trunc = category_from_tables(field, ["*"], {("*", "*"): ("e", "x", "xx")},
                                 {("*", "*", "*"): [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                                    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                                                    [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]},
                                 {"*": (1, 0, 0)})
    t = simple(trunc, "*")
    assert [t.act_mat("*", "*", i).nz for i in range(3)] == [({0: 1},), ({},), ({},)]


@pytest.mark.parametrize("field", [Q, Field.gf(2), Field.gf(3), Field.gf(5)], ids=repr)
def test_simple_rejects_a_non_local_end_in_every_characteristic(field):
    # End([*;*]) of [K 0; K K] is 3-dimensional and not local; over GF(2)
    # trace/3 is still an algebra map, but its kernel is not nilpotent
    lam = _triangular_family(field)[0]
    assert lam.objects == ("[*;*]",) and lam.dim("[*;*]", "[*;*]") == 3
    with pytest.raises(InvalidModule, match="not local"):
        simple(lam, "[*;*]")


def test_coyoneda_tensor():
    a2 = zoo.a2(Q)
    s1 = simple(a2, "1")
    for x in a2.objects:
        ts = tensor_over_cat(representable(a2, x, "right"), s1)
        assert ts.dim == s1.dims[x]
    u = unit_category(Q)
    k_left = CatModule(u, "left", {"*": 1}, {("*", "*", 0): Mat.identity(Q, 1)})
    k_right = CatModule(u, "right", {"*": 1}, {("*", "*", 0): Mat.identity(Q, 1)})
    assert tensor_over_cat(k_right, k_left).dim == 1


def test_tensor_disjoint_supports():
    a2 = zoo.a2(Q)
    s2_right = dualize(simple(a2, "2"))
    s1_left = simple(a2, "1")
    assert tensor_over_cat(s2_right, s1_left).dim == 0


def test_resolution_of_simple():
    a2 = zoo.a2(Q)
    res = projective_resolution(simple(a2, "1"), 4)
    # 0 -> A2(2,-) -> A2(1,-) -> S1 -> 0
    assert [len(g) for g in res.gens] == [1, 1, 0, 0, 0]
    assert res.gens[0] == ["1"] and res.gens[1] == ["2"]
    assert verify_resolution(res) == []


def test_resolution_of_projective_has_length_zero():
    a2 = zoo.a2(Q)
    res = projective_resolution(representable(a2, "1", "left"), 3)
    assert [len(g) for g in res.gens] == [1, 0, 0, 0]


def test_resolution_dual_numbers_periodic():
    d = zoo.dual_numbers(Q)
    res = projective_resolution(simple(d, "*"), 4)
    assert [len(g) for g in res.gens] == [1, 1, 1, 1, 1]
    assert verify_resolution(res) == []


def test_module_map_validation():
    a2 = zoo.a2(Q)
    maps = module_hom(representable(a2, "1", "left"),
                      representable(a2, "1", "left")).maps()
    for m in maps:
        m.validate()


def test_ext_examples():
    a2 = zoo.a2(Q)
    s1, s2 = simple(a2, "1"), simple(a2, "2")
    assert ext(s1, s2, 3) == [0, 1, 0, 0]
    assert ext(s2, s1, 3) == [0, 0, 0, 0]
    p1 = representable(a2, "1", "left")
    for n in [s1, s2, p1]:
        assert ext(p1, n, 3) == [n.dims["1"], 0, 0, 0]
    d = zoo.dual_numbers(Q)
    s = simple(d, "*")
    assert ext(s, s, 4) == [1, 1, 1, 1, 1]


def test_ext_zero_equals_hom():
    a2 = zoo.a2(F)
    rng = random.Random(11)
    for _ in range(4):
        m = random_module(a2, rng)
        n = random_module(a2, rng)
        assert ext(m, n, 2)[0] == module_hom(m, n).dim


def test_tor_examples():
    a2 = zoo.a2(Q)
    s1 = simple(a2, "1")
    for x in a2.objects:
        cx = representable(a2, x, "right")
        assert tor(cx, s1, 3) == [s1.dims[x], 0, 0, 0]
    d = zoo.dual_numbers(Q)
    s = simple(d, "*")
    assert tor(dualize(s), s, 4) == [1, 1, 1, 1, 1]


def test_tor_zero_equals_tensor():
    a2 = zoo.a2(F)
    rng = random.Random(13)
    for _ in range(4):
        m = random_module(a2, rng, "left")
        n = random_module(a2, rng, "right")
        assert tor(n, m, 2)[0] == tensor_over_cat(n, m).dim


@pytest.mark.parametrize("p", [0, 2, 3, 32003])
def test_ext_and_tor_stop_at_the_top_level_of_the_resolution(p, monkeypatch):
    field = Field.gf(p) if p else Q
    built = []
    for name in ("ext_data", "tor_data"):
        real = getattr(modcat, name)

        def recorded(res, coeff, upto, real=real):
            built.append(upto)
            return real(res, coeff, upto)

        monkeypatch.setattr(modcat, name, recorded)
    a4 = build_quiver_category(field, ["1", "2", "3", "4"],
                               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")], [], 5)
    d = zoo.dual_numbers(field)
    s = simple(d, "*")
    cases = [(s, s)]
    for c in (zoo.a3(field), a4):
        modules = [zero_module(c)] + [representable(c, x) for x in c.objects]
        modules += [simple(c, x) for x in c.objects]
        modules += [dualize(representable(c, x, "right")) for x in c.objects]
        cases += [(m, n) for m in modules for n in modules]
    for m, n in cases:
        for max_deg in (2, 4):
            res = projective_resolution(m, max_deg + 1)
            top = max((k for k, level in enumerate(res.gens) if level), default=-1)
            # the resolution of the simple never ends; A_n is hereditary
            if m is s:
                assert top == max_deg + 1
            else:
                assert top == -1 if m.is_zero() else top <= 1
            full_ext = modcat.ext_data(res, n, max_deg)
            full_tor = modcat.tor_data(res, dualize(n), max_deg)
            want_ext = complex_cohomology_dims(full_ext.dims, full_ext.diffs, max_deg)
            want_tor = complex_cohomology_dims(full_tor.dims, full_tor.diffs, max_deg)
            built.clear()
            assert ext(m, n, max_deg, res=res) == want_ext
            assert tor(dualize(n), m, max_deg, res=res) == want_tor
            # each complex is built up to level min(top, max_deg + 1)
            assert built and set(built) == {min(top - 1, max_deg)}
            if m.is_zero():
                assert want_ext == want_tor == [0] * (max_deg + 1)
            if m is s:
                assert want_ext == want_tor == [1] * (max_deg + 1)


def test_duality_bridge():
    # tor resolves m and runs Ext into D(n); the balanced route resolves
    # n over the opposite category instead, so it checks tor independently
    for field in (Q, Field.gf(2), Field.gf(3), F):
        for cat in (zoo.a2(field), zoo.dual_numbers(field), zoo.kronecker(field)):
            rng = random.Random(17)
            for _ in range(3):
                m = random_module(cat, rng, "left")
                n = random_module(cat, rng, "right")
                t = tor(n, m, 3)
                assert ext(m, dualize(n), 3) == t, (field, cat)
                assert ext(n, dualize(m), 3) == t, (field, cat)


def test_resolution_cache_does_not_outlive_category():
    a2 = zoo.a2(Q)
    res = projective_resolution(simple(a2, "1"), 3)
    assert ext(res.module, simple(a2, "2"), 2, res=res) == [0, 1, 0]
    alive = weakref.ref(a2)
    del a2, res
    gc.collect()
    assert alive() is None


def _run_on_a3(run):
    """A weak reference to an A_3 after run(a3, <e_1>) has used it."""
    a3 = zoo.a3(Q)
    run(a3, ideal_from_generators(a3, [("1", "1", a3.id_coords("1"))]))
    return weakref.ref(a3)


@pytest.mark.parametrize("run", [
    lambda c, ideal: projective_resolution(simple(c, "1"), 3),
    lambda c, ideal: theorem_les_pipeline(c, ideal, 3),
    lambda c, ideal: strongly_idempotent_check(c, ideal, 3),
], ids=["resolution", "les", "strong-idempotency"])
def test_a_category_is_freed_without_the_cycle_collector(run):
    # the caches a category keeps (composition matrices, resolutions, enveloping
    # category) must not point back at it, or only gc.collect frees it
    gc.collect()
    gc.disable()
    try:
        alive = _run_on_a3(run)
        assert alive() is None
    finally:
        gc.enable()


def test_dualize_involution_and_dims():
    a2 = zoo.a2(Q)
    for m in [simple(a2, "1"), representable(a2, "1", "left")]:
        d = dualize(m)
        assert d.side == "right"
        assert d.dims == m.dims
        assert dualize(d) == m
    inj = dualize(representable(a2, "1", "left"))
    assert inj.dims == {"1": 1, "2": 1}


def right_module_bimodule(module):
    """A right T-module as a (unit, T)-bimodule."""
    t = module.base
    dims = {("*", T): k for T, k in module.dims.items()}
    lact = {("*", "*", 0, T): Mat.identity(t.field, k) for T, k in module.dims.items()}
    ract = {(x, y, i, "*"): mat for (x, y, i), mat in module.act.items()}
    return bimodule(unit_category(t.field), t, dims, lact, ract)


def _triangular_family(field):
    u = unit_category(field)
    a2, d = zoo.a2(field), zoo.dual_numbers(field)
    one = Mat.identity(field, 1)
    k = bimodule(u, u, {("*", "*"): 1}, {("*", "*", 0, "*"): one}, {("*", "*", 0, "*"): one})
    return [
        triangular_matrix(u, u, k),
        one_point_extension(a2, representable(a2, "1", "left")),
        triangular_matrix(a2, u, right_module_bimodule(representable(a2, "2", "right"))),
        triangular_matrix(a2, a2, bimodule(a2, a2, {}, {}, {})),
        one_point_extension(d, representable(d, "*", "left")),
        one_point_extension(d, simple(d, "*")),
    ]


def _model(lam):
    """The model of a triangular matrix category, from its T, U and M."""
    info = lam.triangular
    return triangular_model(info["t"], info["u"], info["m"])


def test_is_projective():
    a2 = zoo.a2(Q)
    assert is_projective(representable(a2, "1", "left"))
    assert is_projective(representable(a2, "2", "right"))
    assert not is_projective(simple(a2, "1"))
    assert is_projective(simple(a2, "2"))      # S2 = P2 over A2
    assert is_projective(zero_module(a2))
    d = zoo.dual_numbers(Q)
    assert not is_projective(simple(d, "*"))
    # categories whose identities split (1 = e_T + e_U): per object
    # I(x,-), C/I(x,-), C(x,-), C(-,x) and D C(-,x) for the triangular
    # ideal, as the cover by whole representables decided them
    want = ["TTTTF", "TTTTF TTTTF", "TTTTF TTTTF", "TTTTF TTTTF TTTTF TTTTT",
            "TTTTF", "TTTTF"]
    for field in (Q, Field.gf(7), F):
        for lam, verdicts in zip(_triangular_family(field), want):
            ideal = triangular_ideal(lam)
            got = []
            for x in lam.objects:
                modules = [ideal_representable(lam, ideal, x),
                           quotient_representable(lam, ideal, x),
                           representable(lam, x), representable(lam, x, "right"),
                           dualize(representable(lam, x, "right"))]
                got.append("".join("T" if is_projective(m) else "F" for m in modules))
            assert " ".join(got) == verdicts
        a4 = build_quiver_category(field, ["1", "2", "3", "4"],
                                   [(f"a{i}", str(i), str(i + 1)) for i in range(1, 4)], [], 5)
        for c in (zoo.a3(field), a4):
            for v in c.objects:
                ideal = ideal_from_generators(c, [(v, v, c.id_coords(v))])
                assert all(is_projective(ideal_representable(c, ideal, x))
                           for x in c.objects)


def test_outer_tensor_representables():
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    for x in a2.objects:
        for y in a2.objects:
            ot = outer_tensor(representable(a2, x, "right"),
                              representable(a2, y, "left"), env)
            rep = representable(env, pair_object(x, y), "left")
            assert ot.dims == rep.dims
            assert is_projective(ot)
    z = outer_tensor(dualize(zero_module(a2)), representable(a2, "1", "left"), env)
    assert z.is_zero()


def test_outer_tensor_dim_products():
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    m = dualize(simple(a2, "1"))
    n = simple(a2, "2")
    ot = outer_tensor(m, n, env)
    for x in a2.objects:
        for y in a2.objects:
            assert ot.dims[pair_object(x, y)] == m.dims[x] * n.dims[y]


def test_regular_bimodule_dims_and_validity():
    for cat in (zoo.a2(Q), zoo.dual_numbers(Q)):
        env = enveloping(cat)
        reg = regular_bimodule(cat, env)
        reg.validate()
        for x in cat.objects:
            for y in cat.objects:
                assert reg.dims[pair_object(x, y)] == cat.dim(x, y)


def test_boxtimes_representable_collapse():
    a2 = zoo.a2(F)
    d = zoo.dual_numbers(F)
    prod = tensor_category(opposite(a2), d)
    for x0 in a2.objects:
        g = representable(prod, pair_object(x0, "*"), "left")
        for fmod in [simple(a2, "1"), simple(a2, "2"),
                     representable(a2, "1", "left")]:
            bx = boxtimes(fmod, g)
            assert bx.dims["*"] == fmod.dims[x0] * d.dim("*", "*")


def test_boxtimes_ideal_against_bar_term():
    # contracting the ideal bimodule of <a> in A2 against the degree-zero
    # bar term gives the outer-tensor module sum_p C(-,p) (x) I(p,-),
    # which is projective
    from homcat.hochschild import bar_resolution
    from homcat.ideals import ideal_from_generators
    from homcat.modcat import ideal_bimodule
    a2 = zoo.a2(Q)
    env = enveloping(a2)
    reg = regular_bimodule(a2, env)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    sub, _ = ideal_bimodule(a2, ideal, env=env, regular=reg)
    s0 = bar_resolution(a2, 1, env=env, regular=reg).term(0)
    bx = swap_product_module(boxtimes(swap_product_module(sub),
                                      swap_product_module(s0)))
    for c1 in a2.objects:
        for c2 in a2.objects:
            expected = sum(a2.dim(c1, p) * ideal.span[(p, c2)].cols
                           for p in a2.objects)
            assert bx.dims[pair_object(c1, c2)] == expected
    assert is_projective(bx)


def test_boxtimes_base_mismatch():
    a2 = zoo.a2(Q)
    with pytest.raises(BaseMismatch):
        boxtimes(simple(a2, "1"), simple(a2, "2"))


def test_adjunction_eq1():
    # Hom_K(F tensor_C G, V) = Hom_{Mod C^op}(G, Hom_K(F, V)) at V = K:
    # the right side is Hom(G, dualize(F))
    for cat in (zoo.a2(F), zoo.kronecker(F)):
        rng = random.Random(23)
        for _ in range(3):
            fmod = random_module(cat, rng, "left")
            gmod = random_module(cat, rng, "right")
            lhs = tensor_over_cat(gmod, fmod).dim
            rhs = module_hom(as_left_over_op(gmod),
                             as_left_over_op(dualize(fmod))).dim
            assert lhs == rhs


def test_adjunction_eq2():
    a2 = zoo.a2(F)
    d = zoo.dual_numbers(F)
    prod = tensor_category(opposite(a2), d)
    rng = random.Random(29)
    for _ in range(3):
        fmod = random_module(a2, rng, "left")
        gmod = direct_sum([representable(prod, rng.choice(prod.objects), "left")])
        hmod = random_module(d, rng, "left")
        lhs = module_hom(boxtimes(fmod, gmod), hmod).dim
        rhs = module_hom(gmod, hom_module(fmod, hmod, prod)).dim
        assert lhs == rhs


def test_swap_product_module():
    a2 = zoo.a2(Q)
    u = unit_category(Q)
    prod = tensor_category(a2, u)
    m = representable(prod, pair_object("1", "*"), "left")
    sw = swap_product_module(m)
    assert sw.base.product_of[0] == u
    for x in a2.objects:
        assert sw.dims[pair_object("*", x)] == m.dims[pair_object(x, "*")]
    assert swap_product_module(sw).dims == m.dims


def test_quotient_representable():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    q = quotient_representable(a2, ideal, "1", "left")
    assert q.dims == {"1": 1, "2": 0}
    assert q == simple(a2, "1")
    q0 = quotient_representable(a2, zero_ideal(a2), "1", "left")
    assert q0 == representable(a2, "1", "left")


def test_restrict_along_projection():
    from homcat.kcat import quotient_category
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    b = quotient_category(a2, ideal)
    pulled = restrict_module(representable(b, "1", "left"), ideal)
    assert pulled.dims == {"1": 1, "2": 0}
    pulled.validate()


def test_minimal_generators_of_free_module():
    d = zoo.dual_numbers(Q)
    reg = representable(d, "*", "left")
    two = direct_sum([reg, reg])
    gens = minimal_generators(two)
    assert len(gens) == 2


def test_resolution_independence_of_ext():
    # the same Ext dims from resolutions of two different presentations
    a2 = zoo.a2(F)
    s1 = simple(a2, "1")
    big = direct_sum([s1, representable(a2, "1", "left")])
    assert ext(big, s1, 3)[1:] == ext(s1, s1, 3)[1:]


def test_ext_base_mismatch():
    a2 = zoo.a2(Q)
    d = zoo.dual_numbers(Q)
    with pytest.raises(BaseMismatch):
        ext(simple(a2, "1"), simple(d, "*"), 2)
    with pytest.raises(BaseMismatch):
        tor(simple(a2, "1"), simple(a2, "1"), 2)


def test_right_module_ext_via_opposite():
    a2 = zoo.a2(Q)
    s1r = dualize(simple(a2, "1"))
    s2r = dualize(simple(a2, "2"))
    # over the opposite path category the extension flips direction
    assert ext(s2r, s1r, 3) == [0, 1, 0, 0]
    assert ext(s1r, s2r, 3) == [0, 0, 0, 0]


# -- one assembly routine: reference oracles and frozen action matrices ------

FOUR_FIELDS = (Q, Field.gf(2), Field.gf(3), F)


def _reference_tensor(n, m):
    """The coend relations of n (right) and m (left) written out directly:
    for every basis morphism a: x -> y and basis vectors u of n(y), v of
    m(x), the relation (u.a) tensor v - u tensor (a.v)."""
    from homcat.exactla import ComplementData, add_to_row
    c = n.base
    f = c.field
    offsets = {}
    total = 0
    for x in c.objects:
        offsets[x] = total
        total += n.dims[x] * m.dims[x]
    relations = []
    for x in c.objects:
        for y in c.objects:
            for i in range(c.dim(x, y)):
                nat = n.act_mat(x, y, i).transpose().nz
                mat = m.act_mat(x, y, i).transpose().nz
                for u in range(n.dims[y]):
                    for v in range(m.dims[x]):
                        vec = {offsets[x] + s * m.dims[x] + v: a
                               for s, a in nat[u].items()}
                        for t, a in mat[v].items():
                            add_to_row(f, vec, offsets[y] + u * m.dims[y] + t, f.neg(a))
                        relations.append(vec)
    return ComplementData(Mat.from_sparse(f, len(relations), total,
                                          tuple(relations)).transpose())


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_tensor_space_matches_the_relation_assembly(field):
    rng = random.Random(41 + field.p)
    pairs = 0
    for cat in (zoo.a2(field), zoo.kronecker(field), zoo.dual_numbers(field),
                zoo.random_two_object(field, 3)):
        for _ in range(4):
            n = random_module(cat, rng, "right")
            m = random_module(cat, rng, "left")
            got = tensor_over_cat(n, m)
            want = _reference_tensor(n, m)
            assert got.dim == want.dim
            assert got.proj == want.proj
            assert got.section == want.section
            pairs += 1
    assert pairs == 16


def _action_digest(modules):
    """SHA-256 over the side, dimensions and every basis action matrix,
    in the base category's object and basis order."""
    h = hashlib.sha256()
    for mod in modules:
        c = mod.base
        h.update(repr((mod.side, [(x, mod.dims[x]) for x in c.objects])).encode())
        for x in c.objects:
            for y in c.objects:
                for i in range(c.dim(x, y)):
                    h.update(repr((x, y, i, mod.act_mat(x, y, i).data)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_tor_is_balanced(field):
    # Tor^C(N, M) = Tor^{C^op}(M, N): the strong-idempotency check reads
    # its Tor rows from the resolutions on the other side
    rng = random.Random(83 + field.p)
    for cat in (list(zoo.standard_categories(field).values())
                + [zoo.random_two_object(field, s) for s in range(2)]):
        c_op = opposite(cat)
        for _ in range(2):
            n, m = random_module(cat, rng, "right"), random_module(cat, rng, "left")
            assert tor(n, m, 3) == tor(as_right_over_op(m, c_op),
                                       as_left_over_op(n, c_op), 3), (field, cat.objects)


def _regular_cases(field, rng):
    for cat in (zoo.a3(field), zoo.kronecker(field), zoo.dual_numbers(field),
                zoo.random_two_object(field, 5)):
        yield regular_bimodule(cat)


def _outer_cases(field, rng):
    for cat in (zoo.a2(field), zoo.kronecker(field), zoo.dual_numbers(field)):
        for _ in range(2):
            yield outer_tensor(random_module(cat, rng, "right"),
                               random_module(cat, rng, "left"))


def _swap_cases(field, rng):
    prod = tensor_category(zoo.a2(field), zoo.dual_numbers(field))
    for _ in range(3):
        yield swap_product_module(random_module(prod, rng, "left"))


def _boxtimes_plain_cases(field, rng):
    a2 = zoo.a2(field)
    prod = tensor_category(opposite(a2), zoo.dual_numbers(field))
    for _ in range(3):
        yield boxtimes(random_module(a2, rng, "left"),
                       random_module(prod, rng, "left"))


def _boxtimes_bimodule_cases(field, rng):
    c = zoo.a2(field)
    e = zoo.dual_numbers(field)
    ec = tensor_category(opposite(e), c)
    cd = tensor_category(opposite(c), zoo.discrete(field, 2))
    for _ in range(3):
        yield boxtimes(random_module(ec, rng, "left"),
                       random_module(cd, rng, "left"))


# computed before the product-module loop, the slot action and the box
# tensor were folded into one routine each: the assembly must not move
# an entry of any action matrix
FROZEN_ACTIONS = {
    "regular_bimodule": (_regular_cases,
                         "5e00bd0c7f17e633d4d4a920a86d424c8b6960c8dc7eec3b431499c9ae924ff4"),
    "outer_tensor": (_outer_cases,
                     "d96a52a29d8969d64d71ed10d3330dee5970c356ecad532685bb21ec67aa33c9"),
    "swap_product_module": (_swap_cases,
                            "c9b7d1af2b5f0d85f4c86e96d3558c01eb70e78b181f3c8e4cadd9122fd9f3ce"),
    "boxtimes-plain": (_boxtimes_plain_cases,
                       "dd81fb08e52c53941f0e63a117afacc7d7d52d8343ab17057a392ff30ad2f3e8"),
    "boxtimes-bimodule": (_boxtimes_bimodule_cases,
                          "7ad96b105a3ea28440f8abaf0a1f06c23e7b410efdcfb489321ad361393bf360"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_ACTIONS))
def test_frozen_action_matrices(name):
    cases, digest = FROZEN_ACTIONS[name]
    modules = []
    for field in FOUR_FIELDS:
        modules.extend(cases(field, random.Random(53 + field.p)))
    assert _action_digest(modules) == digest


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_hom_module_is_the_outer_tensor_of_the_dual(field):
    rng = random.Random(59 + field.p)
    a2 = zoo.a2(field)
    d = zoo.dual_numbers(field)
    prod = tensor_category(opposite(a2), d)
    for _ in range(3):
        fmod = random_module(a2, rng, "left")
        hmod = random_module(d, rng, "left")
        hm = hom_module(fmod, hmod, prod)
        hm.validate()
        for x in a2.objects:
            for y in d.objects:
                assert hm.dims[pair_object(x, y)] == fmod.dims[x] * hmod.dims[y]
        # two different categories: a right A2-module with a left module
        # over the dual numbers
        ot = outer_tensor(random_module(a2, rng, "right"), hmod)
        ot.validate()
        assert ot.base.product_of == (opposite(a2), d)


def test_outer_tensor_rejects_a_product_of_other_factors():
    a2 = zoo.a2(Q)
    d = zoo.dual_numbers(Q)
    m = representable(a2, "1", "right")
    n = representable(d, "*", "left")
    for product in (enveloping(a2), tensor_category(a2, d), d):
        with pytest.raises(BaseMismatch):
            outer_tensor(m, n, product)
    with pytest.raises(BaseMismatch):
        outer_tensor(n, m)


# -- one generator search: the two-stage search as a differential oracle ----

def _closure(m, seeds):
    """Echelon spans of the submodule generated by (object, vector) seeds,
    by breadth-first images under every basis morphism."""
    c = m.base
    spaces = {x: EchelonSpace(c.field, m.dims[x]) for x in c.objects}
    work = list(seeds)
    while work:
        x, vec = work.pop()
        if not spaces[x].add(vec):
            continue
        for y in c.objects:
            for i in range(c.dim(x, y) if m.side == "left" else c.dim(y, x)):
                if m.side == "left":
                    work.append((y, m.act_mat(x, y, i).mul_vec(vec)))
                else:
                    work.append((y, m.act_mat(y, x, i).mul_vec(vec)))
    return spaces


def _prune_until_stable(m, items):
    """Drop, last first, each item in the closure of the others; repeat
    until a pass drops nothing.  Items end with (object, ..., vector)."""
    changed = True
    while changed and len(items) > 1:
        changed = False
        for i in range(len(items) - 1, -1, -1):
            others = [(t[0], t[-1]) for k, t in enumerate(items) if k != i]
            if _closure(m, others)[items[i][0]].contains(items[i][-1]):
                items.pop(i)
                changed = True
    return items


def _two_stage_generators(m):
    """The earlier generator search: greedy unit vectors, pruned until no
    vector lies in the closure of the others."""
    c = m.base
    spaces = {x: EchelonSpace(c.field, m.dims[x]) for x in c.objects}
    gens = []
    for x in c.objects:
        for b in range(m.dims[x]):
            e = unit_vector(c.field, m.dims[x], b)
            if spaces[x].contains(e):
                continue
            gens.append((x, e))
            for y, space in _closure(m, [(x, e)]).items():
                for row in space.rows.values():
                    spaces[y].add(row)
    return _prune_until_stable(m, gens)


def _generator_cases(field, rng):
    """Left modules over the zoo, A_3, the models of triangular categories
    and C^e, plus nonzero seeded random draws."""
    cats = list(zoo.standard_categories(field).values()) + [zoo.a3(field)]
    triangular = [_model(lam) for lam in _triangular_family(field)]
    for cat in cats + triangular:
        for x in cat.objects:
            yield representable(cat, x, "left")
            yield as_left_over_op(representable(cat, x, "right"))
            try:
                yield simple(cat, x)
            except InvalidModule:
                pass
        for _ in range(3):
            yield random_module(cat, rng, "left")
    for cat in cats[2:] + triangular[1:2]:
        yield regular_bimodule(cat)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_generator_search_matches_the_two_stage_search(field, monkeypatch):
    rng = random.Random(71 + field.p)
    searched = []

    def recording(m, spans=None):
        searched.append((m, spans))
        return minimal_generators(m, spans)

    # every search a resolution makes: the cover of the module, and each
    # kernel, searched inside the term it lies in
    monkeypatch.setattr(modcat, "minimal_generators", recording)
    for m in _generator_cases(field, rng):
        projective_resolution(m, 2)
    monkeypatch.undo()
    assert len(searched) > 100
    for term, spans in searched:
        c = term.base
        got = minimal_generators(term, spans)
        if spans is None:
            assert got == _two_stage_generators(term)
            dims = term.dims
        else:
            # the kernel as a module of its own, mapped back into the term
            kernel = modcat.submodule_module(term, spans)
            assert got == [(x, spans[x].mul_vec(v)) for x, v in _two_stage_generators(kernel)]
            dims = kernel.dims
        closure = _closure(term, got)
        assert all(closure[x].dim == dims[x] for x in c.objects)
        for i, (x, vec) in enumerate(got):
            others = [g for k, g in enumerate(got) if k != i]
            assert not _closure(term, others)[x].contains(vec)


# -- ext_data against the per-call assembly ----------------------------------

def _reference_ext_data(res, coeff, upto):
    """The earlier assembly, with nothing cached: per pair of generators a
    dense accumulator of image-weighted actions of the unit vectors."""
    c = res.base
    f = c.field

    def gens(k):
        return res.gens[k] if k <= res.length else []

    dims = [sum(coeff.dims[x] for x in gens(k)) for k in range(upto + 2)]
    diffs = []
    for k in range(upto + 1):
        grid = [{} for _ in range(dims[k + 1])]
        roff = 0
        for j, xt in enumerate(gens(k + 1)):
            img = res.images[k + 1][j]
            pos = coff = 0
            for xs in gens(k):
                acc = Mat.zeros(f, coeff.dims[xt], coeff.dims[xs])
                for b in range(c.dim(xs, xt)):
                    if img[pos]:
                        unit = unit_vector(f, c.dim(xs, xt), b)
                        acc = acc.add(coeff.act_vec(xs, xt, unit).scale(img[pos]))
                    pos += 1
                for r, brow in enumerate(acc.nz):
                    grid[roff + r].update((coff + s, a) for s, a in brow.items())
                coff += coeff.dims[xs]
            roff += coeff.dims[xt]
        diffs.append(Mat.from_sparse(f, dims[k + 1], dims[k], tuple(grid)))
    return dims, diffs


def _fresh_dual(m):
    """The linear dual built anew, sharing no cache with dualize(m)."""
    act = {k: mat.transpose() for k, mat in m.act.items()}
    return CatModule(m.base, "right" if m.side == "left" else "left", m.dims, act,
                     check=False)


def _ext_cases(field, rng):
    """(resolutions, coefficients) over one category: every coefficient is
    read against every resolution, so their cached blocks are reused."""
    cats = [zoo.a3(field)] + [cat for name, cat in zoo.standard_categories(field).items()
                              if name != "unit"]
    cats += [zoo.random_two_object(field, seed) for seed in (1, 2)]
    cats += [_model(lam) for lam in _triangular_family(field)]
    for cat in cats:
        x = cat.objects[-1]
        modules = [representable(cat, x)] + [random_module(cat, rng, "left") for _ in range(3)]
        modules += [m for m in (_maybe_simple(cat, y) for y in cat.objects) if m is not None]
        # injectives: over the triangular models their
        # resolutions meet several generators at one object
        modules += [dualize(representable(cat, y, "right")) for y in cat.objects]
        yield [projective_resolution(m, 3) for m in modules[1:]], modules
    # the regular bimodules of the models of one-point extensions of the dual
    # numbers have resolutions with several generators at one object in
    # one term
    for cat in cats[:5] + cats[-2:]:
        env = enveloping(cat)
        reg = regular_bimodule(cat, env)
        ideal = ideal_from_generators(cat, [(x, y, unit_vector(field, cat.dim(x, y), i))
                                            for x, y, i, _ in cat.basis_morphisms()
                                            if x != y or i > 0][:1])
        sub, _ = modcat.ideal_bimodule(cat, ideal, env=env, regular=reg)
        yield [projective_resolution(reg, 3), projective_resolution(sub, 3)], [reg, sub]


def _maybe_simple(cat, x):
    try:
        return simple(cat, x)
    except InvalidModule:
        return None


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_ext_data_matches_the_per_call_assembly(field):
    rng = random.Random(53 + field.p)
    pairs = 0
    for resolutions, coefficients in _ext_cases(field, rng):
        rights = [dualize(m) for m in coefficients]
        # every coefficient against every resolution, in both orders
        for res in resolutions + resolutions[::-1]:
            for coeff, right in zip(coefficients, rights):
                data = modcat.ext_data(res, coeff, 2)
                assert (data.dims, data.diffs) == _reference_ext_data(res, coeff, 2)
                # the Tor complex reads the dual kept on its right module
                data = modcat.tor_data(res, right, 2)
                want = _reference_ext_data(res, _fresh_dual(right), 2)
                assert (data.dims, data.diffs) == want
                pairs += 1
    assert pairs > 150


def _block(mat, r0, nr, c0, nc):
    """The nr x nc block of mat whose top left entry is (r0, c0)."""
    return Mat.from_sparse(mat.field, nr, nc, tuple(
        {l - c0: v for l, v in mat.nz[r0 + k].items() if c0 <= l < c0 + nc} for k in range(nr)))


@pytest.mark.parametrize("field", [Q, Field.gf(2), Field.gf(3), F], ids=str)
def test_summand_blocks_are_built_once_and_equal_the_products(field):
    # the representable of the piece p of x on the model is the summand
    # C(x,-) o e_p of Lambda's: the action there of the basis morphism
    # g: q -> r is the block of Lambda's (g o -) from Hom(p,q) to
    # Hom(p,r), kept on the model for every term holding it
    blocks = 0
    for lam in _triangular_family(field):
        model = _model(lam)
        pieces = model.triangular["pieces"]

        def start(x, y, p, q):
            # where Hom(p, q) begins in Hom(x, y): t-block, m-block, u-block
            (a, b), (a2, b2) = pieces[x], pieces[y]
            dt, dm = model.dim(a, a2), model.dim(a, b2)
            return {(a, a2): 0, (a, b2): dt, (b, b2): dt + dm}.get((p, q), 0)

        for x, y, z in [(x, y, z) for x in lam.objects for y in lam.objects for z in lam.objects]:
            for p, q, r in [(p, q, r) for p in pieces[x] for q in pieces[y] for r in pieces[z]]:
                for i in range(model.dim(q, r)):
                    whole = lam.post_matrix_basis(x, y, z, start(y, z, q, r) + i)
                    want = _block(whole, start(x, z, p, r), model.dim(p, r),
                                  start(x, y, p, q), model.dim(p, q))
                    got = model.post_matrix_basis(p, q, r, i)
                    assert got == want
                    assert got is model.post_matrix_basis(p, q, r, i)
                    blocks += 1
        res = projective_resolution(dualize(representable(model, model.objects[0], "right")), 2)
        term = res.term(0)
        for (y, z, i), mat in term.act.items():
            assert mat == block_diag(field, [model.post_matrix_basis(x, y, z, i)
                                             for x in res.gens[0]])
    assert blocks > 100


# -- one-pass closures against the work-list closure ---------------------------

def _closure_cases(field, rng):
    """Left and right modules over the zoo, A_3, two random radical-square-
    zero categories and the triangular family: representables and nonzero
    seeded draws."""
    cats = list(zoo.standard_categories(field).values()) + [zoo.a3(field)]
    cats += [zoo.random_two_object(field, seed) for seed in (1, 2)]
    cats += _triangular_family(field)
    for cat in cats:
        for side in ("left", "right"):
            for x in cat.objects:
                yield representable(cat, x, side)
            for _ in range(3):
                yield random_module(cat, rng, side)


def _random_seeds(m, rng, count):
    """Seeded (object, vector) pairs at objects where m is nonzero."""
    objects = [x for x in m.base.objects if m.dims[x]]
    return [(x, tuple(m.base.field.of(rng.randrange(-2, 3)) for _ in range(m.dims[x])))
            for x in (rng.choice(objects) for _ in range(count))]


def _bases(spaces):
    return {x: space.basis_matrix() for x, space in spaces.items()}


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_orbit_closure_matches_the_work_list_closure(field):
    rng = random.Random(97 + field.p)
    modules = grown = 0
    for m in _closure_cases(field, rng):
        seeds = _random_seeds(m, rng, rng.randrange(1, 4))
        assert _bases(reference._orbit_closure(m, seeds)) == _bases(_closure(m, seeds))
        # grown in place from the spans of a submodule
        first, more = seeds[:1], _random_seeds(m, rng, 2)
        spaces = _closure(m, first)
        got = reference._orbit_closure(m, more, spaces)
        assert got is spaces
        assert _bases(got) == _bases(_closure(m, first + more))
        grown += _bases(got) != _bases(_closure(m, first))
        modules += 1
    assert modules == 136 and grown > 50


def test_a_module_is_covered_once(monkeypatch):
    searched = []

    def counting(m, spans=None):
        if spans is None:
            searched.append(m)
        return minimal_generators(m, spans)

    monkeypatch.setattr(modcat, "minimal_generators", counting)
    rng = random.Random(5)
    cases = 0
    for field in (Q, Field.gf(2)):
        for lam in _triangular_family(field) + [zoo.a3(field)]:
            ideal = triangular_ideal(lam) if lam.triangular else zero_ideal(lam)
            modules = [ideal_representable(lam, ideal, x) for x in lam.objects]
            modules += [random_module(lam, rng, "left"), _maybe_simple(lam, lam.objects[0])]
            for m in modules:
                if m is None or m.is_zero():
                    continue
                searched.clear()
                is_projective(m)
                res = projective_resolution(m, 2)
                assert searched == [m]
                # the kept generators are read, never mutated
                again = projective_resolution(m, 2)
                fresh = projective_resolution(CatModule(m.base, m.side, m.dims, m.act), 2)
                for other in (again, fresh):
                    assert (other.gens, other.images) == (res.gens, res.images)
                cases += 1
    assert cases > 30


@pytest.mark.parametrize("field", [Q, Field.gf(2)], ids=repr)
def test_quotient_by_unstable_spans_is_rejected(field):
    # over A_2 the line at one object alone is not stable: a moves it to
    # the other object, where the span is zero
    a2 = zoo.a2(field)
    line, nothing = Mat.identity(field, 1), Mat.zeros(field, 1, 0)
    left = representable(a2, "1", "left")        # e1 at 1, a at 2
    right = representable(a2, "2", "right")      # a at 1, e2 at 2
    for m, spans in ((left, {"1": line, "2": nothing}), (right, {"1": nothing, "2": line})):
        with pytest.raises(InvalidModule, match=r"spans not stable at \(1,2,0\)"):
            modcat.quotient_module(m, _comps(spans))
    # the stable complements give the simples at the other objects
    stable_left, stable_right = {"1": nothing, "2": line}, {"1": line, "2": nothing}
    assert modcat.quotient_module(left, _comps(stable_left)).dims == {"1": 1, "2": 0}
    assert modcat.quotient_module(right, _comps(stable_right)).dims == {"1": 0, "2": 1}


# -- live actions: every builder against a dense build --------------------------

def _dense(base, side, dims, action):
    """The module with the given values that stores action(x, y, i) for
    every basis morphism of base, empty blocks included."""
    m = CatModule(base, side, dims, {}, check=False)
    m.act = {(x, y, i): action(x, y, i) for x, y, i, _ in base.basis_morphisms()}
    return m


def _shape(side, dims, x, y):
    return (dims[y], dims[x]) if side == "left" else (dims[x], dims[y])


def _post(c, x, y, z, j):
    """(g_j o -): Hom(x,y) -> Hom(x,z), read off the composition."""
    return Mat.from_cols(c.field, [compose_basis(c, x, y, z, i, j) for i in range(c.dim(x, y))],
                         rows=c.dim(x, z))


def _pre(c, x, y, z, i):
    """(- o f_i): Hom(y,z) -> Hom(x,z), read off the composition."""
    return Mat.from_cols(c.field, [compose_basis(c, x, y, z, i, j) for j in range(c.dim(y, z))],
                         rows=c.dim(x, z))


def _dense_representable(c, x, side):
    if side == "left":
        return _dense(c, side, {y: c.dim(x, y) for y in c.objects},
                      lambda y, z, j: _post(c, x, y, z, j))
    return _dense(c, side, {y: c.dim(y, x) for y in c.objects},
                  lambda y, z, i: _pre(c, y, z, x, i))


def _dense_product(base, dims, action):
    """The module over base = A tensor B with value dims(a, b) at (a,b)
    and action(a1, b1, a2, b2, i, j) at basis morphism i * dim B(b1,b2) + j."""
    a, b = base.product_of
    factors = {pair_object(u, v): (u, v) for u in a.objects for v in b.objects}

    def act(p, q, k):
        (a1, b1), (a2, b2) = factors[p], factors[q]
        return action(a1, b1, a2, b2, *divmod(k, b.dim(b1, b2)))
    return _dense(base, "left", {p: dims(u, v) for p, (u, v) in factors.items()}, act)


def _dense_bimodule(u, t, dims, lact, ract):
    f = u.field

    def dim(U, T):
        return dims.get((U, T), 0)

    def left(U, U2, i, T):
        m = lact.get((U, U2, i, T))
        return Mat.zeros(f, dim(U2, T), dim(U, T)) if m is None else m

    def right(T, T2, j, U):
        m = ract.get((T, T2, j, U))
        return Mat.zeros(f, dim(U, T), dim(U, T2)) if m is None else m
    return _dense_product(tensor_category(opposite(t), u), lambda T, U: dim(U, T),
                          lambda T1, U1, T2, U2, j, i: left(U1, U2, i, T2).mul(
                              right(T2, T1, j, U1)))


def _regular_as_bimodule(c):
    """C as a (C,C)-bimodule: value C(T,U) at (U,T), composition on both sides."""
    dims = {(U, T): c.dim(T, U) for U in c.objects for T in c.objects}
    lact = {(U, U2, i, T): _post(c, T, U, U2, i)
            for U, U2, i, _ in c.basis_morphisms() for T in c.objects}
    ract = {(T, T2, j, U): _pre(c, T, T2, U, j)
            for T, T2, j, _ in c.basis_morphisms() for U in c.objects}
    return dims, lact, ract


def _dense_sum(mods):
    base, side = mods[0].base, mods[0].side
    dims = {x: sum(m.dims[x] for m in mods) for x in base.objects}
    return _dense(base, side, dims, lambda x, y, i: block_diag(
        base.field, [m.act_mat(x, y, i) for m in mods], *_shape(side, dims, x, y)))


def _dense_sub(m, spans):
    def act(x, y, i):
        src, tgt = (x, y) if m.side == "left" else (y, x)
        return solve(spans[tgt], m.act_mat(x, y, i).mul(spans[src]))
    return _dense(m.base, m.side, {x: s.cols for x, s in spans.items()}, act)


def _comps(spans):
    return {x: ComplementData(s) for x, s in spans.items()}


def _dense_quotient(m, spans):
    comps = _comps(spans)

    def act(x, y, i):
        src, tgt = (x, y) if m.side == "left" else (y, x)
        return comps[tgt].proj.mul(m.act_mat(x, y, i)).mul(comps[src].section)
    return _dense(m.base, m.side, {x: comp.dim for x, comp in comps.items()}, act)


def _dense_restrict(m, ideal):
    c = ideal.parent

    def act(x, y, i):
        image = ideal.complement(x, y).proj.mul_vec(unit_vector(c.field, c.dim(x, y), i))
        return m.act_vec(x, y, image)
    return _dense(c, m.side, dict(m.dims), act)


def _dense_term(c, objects):
    dims = {y: sum(c.dim(x, y) for x in objects) for y in c.objects}
    return _dense(c, "left", dims, lambda y, z, i: block_diag(
        c.field, [_post(c, x, y, z, i) for x in objects], dims[z], dims[y]))


def _dense_slice(m, first, far):
    a, b = m.base.product_of
    factor = a if first else b
    values = {x: m.dims[pair_object(x, far) if first else pair_object(far, x)]
              for x in factor.objects}
    return _dense(factor, "left", values,
                  lambda x, y, i: modcat.slot_action(m, first, x, y, i, far))


def _dense_ideal_module(ideal, x):
    c = ideal.parent
    return _dense(c, "left", {y: ideal.span[(x, y)].cols for y in c.objects},
                  lambda y, z, j: solve(ideal.span[(x, z)],
                                        _post(c, x, y, z, j).mul(ideal.span[(x, y)])))


def _module_cases(cat, field, rng):
    """(builder, built, dense) for the builders of modules over cat."""
    ideal = (triangular_ideal(cat) if cat.triangular
             else ideal_from_generators(cat, [(v, v, cat.id_coords(v)) for v in cat.objects[:1]]))
    for x in cat.objects:
        for side in ("left", "right"):
            yield "representable", representable(cat, x, side), _dense_representable(cat, x, side)
            rep = representable(cat, x, side)
            spans = ({y: ideal.span[(x, y)] for y in cat.objects} if side == "left"
                     else {y: ideal.span[(y, x)] for y in cat.objects})
            yield "quotient_module", quotient_representable(cat, ideal, x, side), \
                _dense_quotient(rep, spans)
        yield ("ideal_representable", ideal_representable(cat, ideal, x),
               _dense_ideal_module(ideal, x))
    quot = quotient_category(cat, ideal)
    for y in quot.objects:
        pulled = representable(quot, y)
        yield "restrict_module", restrict_module(pulled, ideal), _dense_restrict(pulled, ideal)
    for side in ("left", "right"):
        mods = [random_module(cat, rng, side) for _ in range(2)]
        total = direct_sum(mods)
        yield "direct_sum", total, _dense_sum(mods)
        spans = _bases(reference._orbit_closure(total, _random_seeds(total, rng, 2)))
        yield "submodule_module", modcat.submodule_module(total, spans), _dense_sub(total, spans)
        yield "quotient_module", modcat.quotient_module(total, _comps(spans)), \
            _dense_quotient(total, spans)
    for m in (random_module(cat, rng, "left"), representable(cat, cat.objects[0])):
        unit = tensor_category(unit_category(field), cat)
        yield "over_unit", modcat.over_unit(m), _dense_product(
            unit, lambda _, x: m.dims[x], lambda _u, x, _u2, y, _k, i: m.act_mat(x, y, i))
        res = projective_resolution(m, 2)
        for k in range(res.length + 1):
            yield "_free_module", res.term(k), _dense_term(cat, res.gens[k])
    yield "bimodule", bimodule(cat, cat, *_regular_as_bimodule(cat)), \
        _dense_bimodule(cat, cat, *_regular_as_bimodule(cat))


def _bimodule_cases(cat, field, rng):
    """(builder, built, dense) for the builders of modules over C^e."""
    env = enveloping(cat)
    reg = regular_bimodule(cat, env)
    yield "regular_bimodule", reg, _dense_product(
        env, cat.dim, lambda x1, x2, y1, y2, i, j: _post(cat, y1, x2, y2, j).mul(
            _pre(cat, y1, x1, x2, i)))
    ideal = ideal_from_generators(cat, [(v, v, cat.id_coords(v)) for v in cat.objects[-1:]])
    sub, _ = modcat.ideal_bimodule(cat, ideal, env=env, regular=reg)
    spans = {pair_object(x, y): ideal.span[(x, y)] for x in cat.objects for y in cat.objects}
    yield "submodule_module", sub, _dense_sub(reg, spans)
    yield "quotient_module", modcat.quotient_module(reg, _comps(spans)), \
        _dense_quotient(reg, spans)
    for x in cat.objects:
        p = pair_object(x, cat.objects[0])
        yield "representable", representable(env, p), _dense_representable(env, p, "left")
        for first in (True, False):
            yield ("factor_slice", reference._factor_slice(sub, first, x),
                   _dense_slice(sub, first, x))
    n, m = random_module(cat, rng, "right"), random_module(cat, rng, "left")
    yield "outer_tensor", outer_tensor(n, m, env), _dense_product(
        env, lambda x, d: n.dims[x] * m.dims[d],
        lambda x1, d1, x2, d2, i, j: kron(n.act_mat(x2, x1, i), m.act_mat(d1, d2, j)))
    swapped = tensor_category(cat, opposite(cat))
    yield "swap_product_module", swap_product_module(sub, swapped), _dense_product(
        swapped, lambda b1, a1: sub.dims[pair_object(a1, b1)],
        lambda b1, a1, b2, a2, j, i: sub.act_mat(pair_object(a1, b1), pair_object(a2, b2),
                                                 i * cat.dim(b1, b2) + j))
    res = projective_resolution(reg, 1)
    for k in range(res.length + 1):
        yield "_free_module", res.term(k), _dense_term(env, res.gens[k])


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_builders_store_only_live_actions_and_match_the_dense_build(field):
    rng = random.Random(107 + field.p)
    cats = list(zoo.standard_categories(field).values()) + [zoo.a3(field)]
    cats += [zoo.random_two_object(field, seed) for seed in (1, 2)]
    cases = [case for cat in cats + _triangular_family(field)
             for case in _module_cases(cat, field, rng)]
    cases += [case for cat in cats[1:] for case in _bimodule_cases(cat, field, rng)]
    builders = set()
    empty = 0
    for builder, built, dense in cases:
        assert built == dense, builder
        for (x, y, i), mat in built.act.items():
            assert mat.rows and mat.cols, builder
            assert built.dims[x] and built.dims[y], builder
        # a dense build stores empty blocks that the built module answers on read
        empty += sum(not (mat.rows and mat.cols) for mat in dense.act.values())
        builders.add(builder)
    assert builders == {
        "representable", "quotient_module", "ideal_representable", "restrict_module",
        "direct_sum", "submodule_module", "over_unit", "_free_module", "bimodule",
        "regular_bimodule", "factor_slice", "outer_tensor", "swap_product_module"}
    assert len(cases) > 400 and empty > 1000


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_quotient_stability_is_tested_where_the_source_quotient_is_zero(field):
    # C(1,-) over the Kronecker quiver modulo e1 at 1 and the line of a at 2:
    # only b moves the span out, from 1, where the quotient is 0
    kr = zoo.kronecker(field)
    rep = representable(kr, "1")                 # e1 at 1; a, b at 2
    spans = {"1": Mat.identity(field, 1), "2": Mat.from_cols(field, [(1, 0)])}
    assert ComplementData(spans["1"]).dim == 0
    with pytest.raises(InvalidModule, match=r"spans not stable at \(1,2,1\)"):
        modcat.quotient_module(rep, _comps(spans))
    # over the opposite side: C(-,2) modulo e2 at 2 and the line of a at 1
    right = representable(kr, "2", "right")      # a, b at 1; e2 at 2
    spans = {"1": Mat.from_cols(field, [(1, 0)]), "2": Mat.identity(field, 1)}
    with pytest.raises(InvalidModule, match=r"spans not stable at \(1,2,1\)"):
        modcat.quotient_module(right, _comps(spans))
    # with the whole of C(1,2) in the span, the quotient is 0 and stable
    spans = {"1": Mat.identity(field, 1), "2": Mat.identity(field, 2)}
    assert modcat.quotient_module(rep, _comps(spans)).is_zero()


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_submodule_spans_are_tested_into_an_empty_target_span(field):
    a2 = zoo.a2(field)
    line, nothing = Mat.identity(field, 1), Mat.zeros(field, 1, 0)
    # e1 at 1 alone is not a submodule of C(1,-): a sends it to 2, where the
    # span is empty but the value is not
    for m, spans in ((representable(a2, "1"), {"1": line, "2": nothing}),
                     (representable(a2, "2", "right"), {"1": nothing, "2": line})):
        with pytest.raises(InvalidModule, match=r"spans are not a submodule at \(1,2,0\)"):
            modcat.submodule_module(m, spans)
    # the stable line at the other object is the simple there
    sub = modcat.submodule_module(representable(a2, "1"), {"1": nothing, "2": line})
    assert sub == simple(a2, "2")
    # coordinates are read at the unit rows, which a basis of all of C(1,2)
    # in the Kronecker quiver by a + b and b does not have
    both = Mat.from_cols(field, [(1, 1), (0, 1)])
    with pytest.raises(ValueError, match="span basis is not reduced"):
        modcat.submodule_module(representable(zoo.kronecker(field), "1"),
                                {"1": nothing, "2": both})


# -- resolution terms build the actions that are read ---------------------------

def _resolved_terms(field, rng):
    """(base, resolution) over C, C^op and C^e for the zoo categories:
    random modules, representables and the regular bimodule."""
    cats = [zoo.a3(field), zoo.kronecker(field), zoo.dual_numbers(field),
            zoo.random_two_object(field, 1)]
    for c in cats:
        for base in (c, opposite(c)):
            for m in (random_module(base, rng), random_module(base, rng),
                      representable(base, base.objects[-1])):
                yield base, projective_resolution(m, 2)
        env = enveloping(c)
        yield env, projective_resolution(regular_bimodule(c, env), 2)
        yield env, projective_resolution(random_module(env, rng), 2)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_term_actions_are_the_block_diagonal_post_composition_built_on_read(field):
    rng = random.Random(137 + field.p)
    lazy = terms = 0
    for base, res in _resolved_terms(field, rng):
        for k in range(res.length + 1):
            term = res.term(k)
            live = set(modcat.live_morphisms(base, term.dims, term.dims))
            # the resolution built only actions it read, all of them live
            assert set(term._act) <= live
            lazy += len(term._act) < len(live)
            for x in base.objects:
                for y in base.objects:
                    for i in range(base.dim(x, y)):
                        want = block_diag(field, [base.post_matrix_basis(g, x, y, i)
                                                  for g in res.gens[k]],
                                          rows=term.dims[y], cols=term.dims[x])
                        got = term.act_mat(x, y, i)
                        assert got == want
                        # kept on the term: a second read returns the same matrix
                        assert term.act_mat(x, y, i) is got
                assert term.out_arrows(x) == [
                    (y, term.act_mat(x, y, i)) for y in base.objects
                    if term.dims[x] and term.dims[y] for i in range(base.dim(x, y))]
            # a read of act itself holds every live action
            assert set(term.act) == live
            terms += 1
    assert terms > 80 and lazy > 20
