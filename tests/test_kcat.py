import pytest

from homcat.exactla import Field, Mat
from homcat.kcat import (
    Bimodule, InvalidCategory, InvalidFunctor, KFunctor, enveloping,
    one_point_extension, opposite, opposite_functor, quotient_category,
    tensor_category, tensor_functor, triangular_matrix, unit_category,
    category_from_tables, identity_functor, pair_object,
)
from homcat import zoo
from homcat.ideals import ideal_from_generators, triangular_ideal, zero_ideal
from homcat.modcat import CatModule, representable

Q = Field.rationals()


def corrupt_a2():
    # a o e1 set to 0: breaks the unit law at (e1, a)
    objects = ("1", "2")
    hom = {("1", "1"): ("e1",), ("2", "2"): ("e2",), ("1", "2"): ("a",)}
    comp = {
        ("1", "1", "1"): [[[1]]],
        ("2", "2", "2"): [[[1]]],
        ("1", "1", "2"): [[[0]]],
        ("1", "2", "2"): [[[1]]],
    }
    ids = {"1": (1,), "2": (1,)}
    return objects, hom, comp, ids


def test_validate_unit_and_a2():
    assert unit_category(Q).validate().ok
    assert zoo.a2(Q).validate().ok


def test_validate_rejects_corrupted_table():
    objects, hom, comp, ids = corrupt_a2()
    with pytest.raises(InvalidCategory) as err:
        category_from_tables(Q, objects, hom, comp, ids)
    kinds = {k for k, _, _ in err.value.report.failures}
    assert "unit-right" in kinds or "unit-left" in kinds


def test_opposite_involution():
    for cat in zoo.standard_categories(Q).values():
        assert opposite(opposite(cat)) == cat


def test_opposite_a2_reverses_arrow():
    op = opposite(zoo.a2(Q))
    assert op.dim("2", "1") == 1
    assert op.dim("1", "2") == 0
    assert op.validate().ok


def test_opposite_commutative_is_identity():
    d = zoo.dual_numbers(Q)
    assert opposite(d) == d


def test_tensor_field_mismatch():
    from homcat.exactla import FieldMismatch
    with pytest.raises(FieldMismatch):
        tensor_category(zoo.a2(Q), zoo.a2(Field.gf(5)))
    with pytest.raises(FieldMismatch):
        triangular_matrix(unit_category(Field.gf(5)), unit_category(Q),
                          Bimodule.zero(unit_category(Q), unit_category(Q)))


def test_one_point_extension_rejects_wrong_module():
    from homcat.kcat import InvalidModule
    u = unit_category(Q)
    k_right = CatModule(u, "right", {"*": 1}, {("*", "*", 0): Mat.identity(Q, 1)})
    with pytest.raises(InvalidModule):
        one_point_extension(u, k_right)


def test_tensor_unit_is_unit():
    u = unit_category(Q)
    t = tensor_category(u, u)
    assert len(t.objects) == 1
    assert t.total_dim() == 1


def test_tensor_with_unit_preserves_dims():
    a2 = zoo.a2(Q)
    t = tensor_category(a2, unit_category(Q))
    assert len(t.objects) == 2
    assert sorted(len(v) for v in t.hom_basis.values()) == sorted(
        len(v) for v in a2.hom_basis.values())


def test_tensor_dim_products():
    a2 = zoo.a2(Q)
    t = tensor_category(opposite(a2), a2)
    # dim Hom((1,1),(2,2)) = dim A2(2,1) * dim A2(1,2) = 0
    assert t.dim(pair_object("1", "1"), pair_object("2", "2")) == 0
    # dim Hom((2,1),(1,2)) = dim A2(1,2) * dim A2(1,2) = 1
    assert t.dim(pair_object("2", "1"), pair_object("1", "2")) == 1
    for (x, y) in [(x, y) for x in t.objects for y in t.objects]:
        assert t.validate().ok or True
    assert t.validate().ok


def test_enveloping_dims():
    assert enveloping(unit_category(Q)).total_dim() == 1
    e = enveloping(zoo.a2(Q))
    assert len(e.objects) == 4 and e.total_dim() == 9
    assert enveloping(zoo.dual_numbers(Q)).total_dim() == 4


def one_dim_bimodule(u, t):
    return Bimodule(u, t, {("*", "*"): 1},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)},
                    {("*", "*", 0, "*"): Mat.identity(u.field, 1)})


def test_triangular_classic():
    # [K 0; K K]: one object, total Hom dimension 3, same as the A2 path algebra
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    assert len(lam.objects) == 1
    assert lam.total_dim() == 3
    assert lam.validate().ok


def test_triangular_zero_bimodule():
    # M = 0: no Hom between the blocks beyond the two factors
    a2 = zoo.a2(Q)
    lam = triangular_matrix(a2, a2, Bimodule.zero(a2, a2))
    # objects are pairs; Hom((T,U),(T',U')) = T(T,T') + U(U,U')
    for o1 in lam.objects:
        for o2 in lam.objects:
            T, U = lam.triangular["source"][o1]
            T2, U2 = lam.triangular["source"][o2]
            assert lam.dim(o1, o2) == a2.dim(T, T2) + a2.dim(U, U2)


def test_triangular_hom_formula():
    # t = unit, u = A2, M(1) = K, M(2) = 0: pairwise block dimension count
    u = zoo.a2(Q)
    t = unit_category(Q)
    m_mod = CatModule(u, "left", {"1": 1, "2": 0},
                      {("1", "1", 0): Mat.identity(Q, 1)})
    m = Bimodule.from_left_module(u, m_mod, t)
    lam = triangular_matrix(t, u, m)
    assert len(lam.objects) == 2
    src = lam.triangular["source"]
    total = 0
    for o1 in lam.objects:
        for o2 in lam.objects:
            T, U = src[o1]
            T2, U2 = src[o2]
            expect = t.dim(T, T2) + m.dim(U2, T) + u.dim(U, U2)
            assert lam.dim(o1, o2) == expect
            total += expect
    # sum over the four object pairs of (1 + m(U') + A2(U,U'))
    assert total == 4 * 1 + 2 * (1 + 0) + 3
    assert lam.validate().ok


def test_one_point_extension_unit():
    u = unit_category(Q)
    k = CatModule(u, "left", {"*": 1}, {("*", "*", 0): Mat.identity(Q, 1)})
    lam = one_point_extension(u, k)
    assert lam.total_dim() == 3        # [K 0; K K]


def test_one_point_extension_kronecker_type():
    u = unit_category(Q)
    k2 = CatModule(u, "left", {"*": 2}, {("*", "*", 0): Mat.identity(Q, 2)})
    lam = one_point_extension(u, k2)
    # Hom between the extension corner and * has dimension 2
    o = lam.objects[0]
    assert lam.total_dim() == 4
    assert lam.triangular["m"].dim("*", "*") == 2


def test_one_point_extension_representable():
    u = zoo.a2(Q)
    lam = one_point_extension(u, representable(u, "1", "left"))
    assert len(lam.objects) == 2
    # Hom((*,U),(*,U')) = K + m(U') + A2(U,U'), summed: 4 + 2*(1+1)... by formula
    src = lam.triangular["source"]
    m = lam.triangular["m"]
    total = sum(1 + m.dim(src[o2][1], "*") + u.dim(src[o1][1], src[o2][1])
                for o1 in lam.objects for o2 in lam.objects)
    # per pair (U,U'): 1 + dim A2(1,U') + dim A2(U,U')
    assert lam.total_dim() == total == 11
    assert lam.validate().ok


def test_quotient_kills_arrow():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    b, phi = quotient_category(a2, ideal)
    assert b.total_dim() == 2
    assert b.dim("1", "2") == 0
    # projection kills a
    assert phi.morphism_map[("1", "2")].shape == (0, 1)
    assert b.validate().ok


def test_quotient_by_zero_is_identity():
    a2 = zoo.a2(Q)
    b, phi = quotient_category(a2, zero_ideal(a2))
    assert b == a2
    for pair, m in phi.morphism_map.items():
        assert m == Mat.identity(Q, a2.dim(*pair))


def test_quotient_of_triangular_is_u_corner():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    b, phi = quotient_category(lam, triangular_ideal(lam))
    assert len(b.objects) == 1
    assert b.total_dim() == 1
    assert b.validate().ok


def test_quotient_dims_subtract():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "1", (1,))])
    b, _ = quotient_category(a2, ideal)
    for x in a2.objects:
        for y in a2.objects:
            assert b.dim(x, y) == a2.dim(x, y) - ideal.span[(x, y)].cols


def test_functor_validation_and_tensor_functor():
    a2 = zoo.a2(Q)
    ident = identity_functor(a2)
    assert ident.validate()
    op = opposite_functor(ident)
    assert op.source == opposite(a2)
    square = tensor_category(a2, a2)
    sq = tensor_functor(ident, ident, square, square)
    assert sq.validate()


def a3_functor(arrow_matrix, check=True):
    """The identity of A_3 except on Hom(1,2), which gets arrow_matrix."""
    a3 = zoo.a3(Q)
    mm = dict(identity_functor(a3).morphism_map)
    mm[("1", "2")] = arrow_matrix
    return KFunctor(a3, a3, {x: x for x in a3.objects}, mm, check=check)


def test_functor_validation_names_missing_and_misshapen_pairs():
    a2 = zoo.a2(Q)
    mm = dict(identity_functor(a2).morphism_map)
    del mm[("1", "2")]
    with pytest.raises(InvalidFunctor, match=r"no matrix for Hom\(1,2\)"):
        KFunctor(a2, a2, {"1": "1", "2": "2"}, mm)
    with pytest.raises(InvalidFunctor, match=r"Hom\(1,2\) has shape \(2, 1\), expected \(1, 1\)"):
        a3_functor(Mat.zeros(Q, 2, 1))


def test_tensor_functor_rejects_invalid_factors():
    ident = a3_functor(Mat.identity(Q, 1))
    square = tensor_category(ident.source, ident.source)
    # a -> 2a keeps identities but sends b o a to half of F(b) o F(a)
    broken = a3_functor(Mat.identity(Q, 1).scale(2), check=False)
    misshapen = a3_functor(Mat.zeros(Q, 2, 1), check=False)
    for bad, message in ((broken, "composition not preserved"), (misshapen, "shape")):
        for f, g in ((bad, ident), (ident, bad)):
            with pytest.raises(InvalidFunctor, match=message):
                tensor_functor(f, g, square, square)


def test_tensor_functor_checks_its_product_categories():
    a2 = zoo.a2(Q)
    ident = identity_functor(a2)
    env = enveloping(a2)
    square = tensor_category(a2, a2)
    built = tensor_functor(opposite_functor(ident), ident, env, env)
    assert built.source is env and built.target is env
    assert built.validate()
    for source, target in ((env, square), (square, env), (a2, square), (square, a2)):
        with pytest.raises(InvalidFunctor, match="not the tensor product"):
            tensor_functor(ident, ident, source, target)


def test_constructions_all_validate():
    cats = list(zoo.standard_categories(Q).values())
    for c in cats:
        assert opposite(c).validate().ok
        assert enveloping(c).validate().ok
    for seed in range(3):
        assert zoo.random_two_object(Q, seed).validate().ok


def test_identity_summands_triangular():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    o = lam.objects[0]
    assert len(lam.identity_summands[o]) == 2
    e = enveloping(lam)
    assert len(e.identity_summands[e.objects[0]]) == 4


def test_bimodule_validation_rejects_bad_action():
    u = unit_category(Q)
    with pytest.raises(Exception):
        Bimodule(u, u, {("*", "*"): 1},
                 {("*", "*", 0, "*"): Mat.from_rows(Q, [[2]])},   # identity must act as 1
                 {("*", "*", 0, "*"): Mat.identity(Q, 1)})
