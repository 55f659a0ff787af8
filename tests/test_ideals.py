import random

import pytest

from homcat import ideals
from homcat.certify import build_quiver_category
from homcat.exactla import EchelonSpace, Field, Mat, unit_vector
from homcat.kcat import triangular_matrix, unit_category, one_point_extension
from homcat.ideals import (
    CoordinateMismatch, ParentMismatch, TwoSidedIdeal, ideal_from_generators,
    ideal_product, is_idempotent, opposite_ideal, triangular_ideal,
)
from homcat.kcat import opposite
from homcat.modcat import (CatModule, InvalidModule, bimodule, ideal_representable,
                           is_projective, representable)
from homcat.reference import InvalidIdeal, validate_ideal, whole_ideal, zero_ideal
from homcat import zoo

Q = Field.rationals()


def test_generated_by_arrow():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    dims = {k: v.cols for k, v in ideal.span.items()}
    assert dims == {("1", "1"): 0, ("1", "2"): 1, ("2", "1"): 0, ("2", "2"): 0}


def test_generated_by_identity_forces_closure():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "1", (1,))])
    assert ideal.span[("1", "1")].cols == 1
    assert ideal.span[("1", "2")].cols == 1     # a = a o e1


def test_empty_generators():
    a2 = zoo.a2(Q)
    assert ideal_from_generators(a2, []).total_dim() == 0


def test_coordinate_mismatch():
    a2 = zoo.a2(Q)
    with pytest.raises(CoordinateMismatch):
        ideal_from_generators(a2, [("1", "2", (1, 2))])


def test_regeneration_is_fixpoint():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "1", (1,))])
    gens = [(x, y, col) for (x, y), m in ideal.span.items() for col in m.columns()]
    again = ideal_from_generators(a2, gens)
    assert again.span == ideal.span


def test_product_of_arrow_ideal_is_zero():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    assert ideal_product(ideal, ideal).total_dim() == 0
    assert not is_idempotent(ideal)


def test_whole_ideal_idempotent():
    a2 = zoo.a2(Q)
    whole = whole_ideal(a2)
    assert is_idempotent(whole)
    assert ideal_product(whole, whole).span == whole.span


def test_zero_ideal_idempotent_and_absorbing():
    a2 = zoo.a2(Q)
    zero = zero_ideal(a2)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    assert is_idempotent(zero)
    assert ideal_product(ideal, zero).total_dim() == 0
    assert ideal_product(whole_ideal(a2), ideal).span == ideal.span


def test_product_parent_mismatch():
    a2 = zoo.a2(Q)
    d = zoo.dual_numbers(Q)
    with pytest.raises(ParentMismatch):
        ideal_product(ideal_from_generators(a2, []),
                      ideal_from_generators(d, []))


def one_dim_bimodule(u, t):
    return bimodule(u, t, {("*", "*"): 1},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)})


def test_triangular_ideal_classic():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    ideal = triangular_ideal(lam)
    assert ideal.total_dim() == 2
    assert is_idempotent(ideal)


def test_triangular_ideal_zero_bimodule():
    a2 = zoo.a2(Q)
    lam = triangular_matrix(a2, a2, bimodule(a2, a2, {}, {}, {}))
    ideal = triangular_ideal(lam)
    # only the T block contributes: A2's total Hom dim once per U-pair
    assert ideal.total_dim() == 12
    src = lam.triangular["source"]
    for o1 in lam.objects:
        for o2 in lam.objects:
            T, U = src[o1]
            T2, U2 = src[o2]
            assert ideal.span[(o1, o2)].cols == a2.dim(T, T2)
    assert is_idempotent(ideal)


def test_triangular_ideal_one_point_extension_k2():
    u = unit_category(Q)
    k2 = CatModule(u, "left", {"*": 2}, {("*", "*", 0): Mat.identity(Q, 2)})
    lam = one_point_extension(u, k2)
    ideal = triangular_ideal(lam)
    assert ideal.total_dim() == 3     # 1 (T block) + 2 (M block)


def test_representable_ideal_module():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    mod = ideal_representable(a2, ideal, "1")
    assert mod.dims == {"1": 0, "2": 1}
    assert ideal_representable(a2, zero_ideal(a2), "1").is_zero()
    assert ideal_representable(a2, ideal, "2", "right").dims == {"1": 1, "2": 0}


def test_triangular_ideal_modules_projective():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    ideal = triangular_ideal(lam)
    for x in lam.objects:
        assert is_projective(ideal_representable(lam, ideal, x))


def test_opposite_ideal_transport():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    op = opposite(a2)
    iop = opposite_ideal(ideal, op)
    assert iop.span[("2", "1")].cols == 1
    assert validate_ideal(iop)


def test_closure_validation_catches_bad_span():
    a2 = zoo.a2(Q)
    # e1 without a = a o e1 is not closed under postcomposition, e2 without
    # a = e2 o a not under precomposition; each failure names its side
    for at, side in (("1", "postcomposition"), ("2", "precomposition")):
        bad = {(at, at): Mat.identity(Q, 1)}
        with pytest.raises(InvalidIdeal, match=f"not closed under {side}: spans are not a "
                                               r"submodule at \(1,2,0\)"):
            validate_ideal(TwoSidedIdeal(a2, bad))
    # 2a spans the ideal of a, but not by its canonical basis
    with pytest.raises(InvalidIdeal, match=r"span at \(1,2\) is not a reduced basis"):
        validate_ideal(TwoSidedIdeal(a2, {("1", "2"): Mat.from_cols(Q, [(2,)])}))


# -- one-pass generation against the work-list saturation ----------------------

def _work_list_saturation(c, seeds):
    """The earlier generation: every vector that grows its space sends all
    its pre- and postcomposites with basis morphisms back to the work list,
    until nothing grows."""
    f = c.field
    spaces = {(x, y): EchelonSpace(f, c.dim(x, y)) for x in c.objects for y in c.objects}
    work = list(seeds)
    while work:
        x, y, vec = work.pop()
        if not spaces[(x, y)].add(vec):
            continue
        for z in c.objects:
            for j in range(c.dim(y, z)):
                work.append((x, z, c.compose(x, y, z, vec, unit_vector(f, c.dim(y, z), j))))
        for w in c.objects:
            for j in range(c.dim(w, x)):
                work.append((w, y, c.compose(w, x, y, unit_vector(f, c.dim(w, x), j), vec)))
    return {key: sp.basis_matrix() for key, sp in spaces.items()}


def _quiver(field, objects, arrows, zero_paths):
    """A path category with every path in zero_paths (arrow names in
    application order) set to zero."""
    relations = [[("1", list(reversed(path)))] for path in zero_paths]
    return build_quiver_category(field, objects, arrows, relations, 6)


def _saturation_categories(field):
    loops = [("x", "s", "s"), ("y", "s", "s")]
    return [
        _quiver(field, ["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")], []),
        zoo.kronecker(field),
        _quiver(field, ["s"], loops[:1], [("x", "x", "x")]),                # k[x]/(x^3)
        _quiver(field, ["s"], loops, [(u, v) for u in "xy" for v in "xy"]),  # two loops
    ] + [zoo.random_two_object(field, seed) for seed in (1, 2, 3)]


def _radical_seeds(c, rng):
    """Generator lists of non-identity morphisms: each basis morphism off
    the identities alone (the arrows and longer paths), a seeded sum of
    them in each Hom space, and pairs of such sums."""
    f = c.field
    radical = {}
    for x, y, i, _ in c.basis_morphisms():
        vec = unit_vector(f, c.dim(x, y), i)
        if x != y or vec != c.id_coords(x):
            radical.setdefault((x, y), []).append(vec)
    sums = []
    for (x, y), vecs in radical.items():
        yield from [[(x, y, v)] for v in vecs]
        total = tuple(0 for _ in range(c.dim(x, y)))
        while not any(total):
            for v in vecs:
                a = f.of(rng.choice((-2, -1, 1, 2, 3)))
                total = tuple(f.add(t, f.mul(a, b)) for t, b in zip(total, v))
        sums.append((x, y, total))
        yield [sums[-1]]
    for k in range(len(sums)):
        yield [sums[k], sums[k - 1]]


@pytest.mark.parametrize("field", [Q, Field.gf(2), Field.gf(3), Field.gf(32003)], ids=repr)
def test_generation_matches_the_work_list_saturation(field):
    rng = random.Random(61 + field.p)
    cases = precomposed = 0
    for c in _saturation_categories(field):
        for seeds in _radical_seeds(c, rng):
            got = ideals._saturate(c, seeds)
            assert got == _work_list_saturation(c, seeds)
            # generated by radical morphisms, the ideal is nilpotent
            assert not is_idempotent(validate_ideal(TwoSidedIdeal(c, got)))
            # postcomposition keeps the source: another one needs precomposition
            sources = {x for x, _, _ in seeds}
            precomposed += any(m.cols and w not in sources for (w, _), m in got.items())
            cases += 1
    assert cases == 39 and precomposed > 5


# -- I(x,-) is the submodule of C(x,-) on the ideal's spans -------------------

FOUR_FIELDS = [Q, Field.gf(2), Field.gf(3), Field.gf(32003)]


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_ideal_module_rejects_spans_not_closed_under_postcomposition(field):
    # e1 without a in A_2: the target span at 2 is empty
    a2 = zoo.a2(field)
    bad = TwoSidedIdeal(a2, {("1", "1"): Mat.identity(field, 1)})
    with pytest.raises(InvalidModule, match=r"spans are not a submodule at \(1,2,0\)"):
        ideal_representable(a2, bad, "1")
    # e1 and a without b in the Kronecker quiver: the target span is a line
    kr = zoo.kronecker(field)
    bad = TwoSidedIdeal(kr, {("1", "1"): Mat.identity(field, 1),
                             ("1", "2"): Mat.from_cols(field, [(1, 0)])})
    with pytest.raises(InvalidModule, match=r"spans are not a submodule at \(1,2,1\)"):
        ideal_representable(kr, bad, "1")
    assert ideal_representable(kr, bad, "2").is_zero()


def _ideal_module_cases(field, rng):
    """(category, ideal) over the zoo, A_4 and the triangular categories:
    the ideals of the identities and of radical morphisms, and the
    triangular ideals."""
    a4 = _quiver(field, ["1", "2", "3", "4"],
                 [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")], [])
    for c in list(zoo.standard_categories(field).values()) + [a4]:
        for v in c.objects:
            yield c, ideal_from_generators(c, [(v, v, c.id_coords(v))])
        for seeds in list(_radical_seeds(c, rng))[:4]:
            yield c, ideal_from_generators(c, seeds)
    u, a2, d = unit_category(field), zoo.a2(field), zoo.dual_numbers(field)
    for lam in (triangular_matrix(u, u, one_dim_bimodule(u, u)),
                triangular_matrix(a2, a2, bimodule(a2, a2, {}, {}, {})),
                one_point_extension(a2, representable(a2, "1")),
                one_point_extension(d, representable(d, "*"))):
        yield lam, triangular_ideal(lam)


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_ideal_module_equals_the_validated_build(field):
    rng = random.Random(67 + field.p)
    nonzero = 0
    for c, ideal in _ideal_module_cases(field, rng):
        for x in c.objects:
            m = ideal_representable(c, ideal, x)
            # the same values and actions, put through the functoriality check
            assert CatModule(c, "left", m.dims, m.act) == m
            nonzero += not m.is_zero()
    assert nonzero > 40


@pytest.mark.parametrize("field", FOUR_FIELDS, ids=repr)
def test_generated_and_triangular_ideals_pass_validation(field):
    # both are built unchecked, as ideals by construction: the closure
    # test on both sides confirms it
    rng = random.Random(71 + field.p)
    cases = 0
    for c, ideal in _ideal_module_cases(field, rng):
        assert validate_ideal(ideal)
        cases += 1
    assert cases == 30
