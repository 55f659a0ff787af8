import pytest

from homcat.exactla import Field, Mat
from homcat.kcat import triangular_matrix, unit_category, one_point_extension
from homcat.ideals import (
    CoordinateMismatch, ParentMismatch, TwoSidedIdeal, ideal_from_generators,
    ideal_product, is_idempotent, opposite_ideal, representable_ideal_module,
    triangular_ideal, whole_ideal, zero_ideal,
)
from homcat.kcat import opposite
from homcat.modcat import CatModule, bimodule, is_projective
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
    mod = representable_ideal_module(ideal, "1")
    assert mod.dims == {"1": 0, "2": 1}
    assert representable_ideal_module(zero_ideal(a2), "1").is_zero()


def test_triangular_ideal_modules_projective():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    ideal = triangular_ideal(lam)
    for x in lam.objects:
        assert is_projective(representable_ideal_module(ideal, x))


def test_opposite_ideal_transport():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    op = opposite(a2)
    iop = opposite_ideal(ideal, op)
    assert iop.span[("2", "1")].cols == 1
    assert iop.validate()


def test_closure_validation_catches_bad_span():
    a2 = zoo.a2(Q)
    # span containing e1 but not a is not closed under postcomposition
    bad = {("1", "1"): Mat.identity(Q, 1)}
    with pytest.raises(Exception):
        TwoSidedIdeal(a2, bad)
