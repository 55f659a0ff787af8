import random
import re
from fractions import Fraction

import pytest

from homcat.cli import Workspace, parse
from homcat.exactla import (
    ComplementData, Field, Mat, report_form, sparse_row, unit_vector, vadd, vkron, vscale,
    vzero,
)
from homcat.kcat import (
    EMPTY_ROW, FiniteKCategory, InvalidBimodule, InvalidCategory, ParentMismatch, enveloping,
    one_point_extension, opposite, quotient_category,
    tensor_category, triangular_matrix, triangular_model, unit_category,
    category_from_tables, pair_label, pair_object,
)
from homcat import zoo
from homcat.ideals import ideal_from_generators, triangular_ideal
from homcat.modcat import CatModule, bimodule, over_unit, representable, slot_action
from homcat.reference import compose_basis, zero_ideal

Q = Field.rationals()
FIELDS = [Q, Field.gf(2), Field.gf(3), Field.gf(32003)]


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
                          bimodule(unit_category(Q), unit_category(Q), {}, {}, {}))


def test_triangular_rejects_bimodule_over_other_factors():
    u, a2 = unit_category(Q), zoo.a2(Q)
    k = one_dim_bimodule(u, u)
    with pytest.raises(InvalidBimodule, match="U-factor"):
        triangular_matrix(u, a2, k)
    with pytest.raises(InvalidBimodule, match="T-factor"):
        triangular_matrix(a2, u, k)
    with pytest.raises(InvalidBimodule, match="U-factor"):
        triangular_matrix(u, u, representable(u, "*", "left"))


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


def one_dim_data(field):
    """dims, lact and ract of K as a (unit, unit)-bimodule."""
    one = Mat.identity(field, 1)
    return {("*", "*"): 1}, {("*", "*", 0, "*"): one}, {("*", "*", 0, "*"): one}


def one_dim_bimodule(u, t):
    return bimodule(u, t, *one_dim_data(u.field))


def left_module_data(module):
    """dims, lact and ract of a left U-module as a (U, unit)-bimodule."""
    field = module.base.field
    dims = {(U, "*"): k for U, k in module.dims.items()}
    lact = {(x, y, i, "*"): mat for (x, y, i), mat in module.act.items()}
    ract = {("*", "*", 0, U): Mat.identity(field, k) for U, k in module.dims.items()}
    return dims, lact, ract


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
    lam = triangular_matrix(a2, a2, bimodule(a2, a2, {}, {}, {}))
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
    m = over_unit(m_mod)
    lam = triangular_matrix(t, u, m)
    assert len(lam.objects) == 2
    src = lam.triangular["source"]
    total = 0
    for o1 in lam.objects:
        for o2 in lam.objects:
            T, U = src[o1]
            T2, U2 = src[o2]
            expect = t.dim(T, T2) + m.dims[pair_object(T, U2)] + u.dim(U, U2)
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
    assert lam.triangular["m"].dims[pair_object("*", "*")] == 2


def test_one_point_extension_representable():
    u = zoo.a2(Q)
    lam = one_point_extension(u, representable(u, "1", "left"))
    assert len(lam.objects) == 2
    # Hom((*,U),(*,U')) = K + m(U') + A2(U,U'), summed: 4 + 2*(1+1)... by formula
    src = lam.triangular["source"]
    m = lam.triangular["m"]
    total = sum(1 + m.dims[pair_object("*", src[o2][1])] + u.dim(src[o1][1], src[o2][1])
                for o1 in lam.objects for o2 in lam.objects)
    # per pair (U,U'): 1 + dim A2(1,U') + dim A2(U,U')
    assert lam.total_dim() == total == 11
    assert lam.validate().ok


def test_quotient_kills_arrow():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "2", (1,))])
    b = quotient_category(a2, ideal)
    assert b.total_dim() == 2
    assert b.dim("1", "2") == 0
    # projection kills a
    assert ideal.complement("1", "2").proj.shape == (0, 1)
    assert b.validate().ok


def test_quotient_by_zero_is_identity():
    a2 = zoo.a2(Q)
    ideal = zero_ideal(a2)
    assert quotient_category(a2, ideal) == a2
    for x in a2.objects:
        for y in a2.objects:
            assert ideal.complement(x, y).proj == Mat.identity(Q, a2.dim(x, y))


def test_quotient_of_triangular_is_u_corner():
    u = unit_category(Q)
    lam = triangular_matrix(u, u, one_dim_bimodule(u, u))
    b = quotient_category(lam, triangular_ideal(lam))
    assert len(b.objects) == 1
    assert b.total_dim() == 1
    assert b.validate().ok


def test_quotient_by_an_ideal_of_another_category_is_rejected():
    a2 = zoo.a2(Q)
    with pytest.raises(ParentMismatch, match="ideal does not live in this category"):
        quotient_category(zoo.kronecker(Q), zero_ideal(a2))


def test_quotient_dims_subtract():
    a2 = zoo.a2(Q)
    ideal = ideal_from_generators(a2, [("1", "1", (1,))])
    b = quotient_category(a2, ideal)
    for x in a2.objects:
        for y in a2.objects:
            assert b.dim(x, y) == a2.dim(x, y) - ideal.span[(x, y)].cols


def test_constructions_all_validate():
    cats = list(zoo.standard_categories(Q).values())
    for c in cats:
        assert opposite(c).validate().ok
        assert enveloping(c).validate().ok
    for seed in range(3):
        assert zoo.random_two_object(Q, seed).validate().ok


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_split_model_of_the_classic_triangle_is_a2(field):
    # [K 0; K K] has the pieces [*;] and [;*], with the corner from the
    # first to the second: the path category of 1 -> 2, labelled by
    # Lambda's labels
    u = unit_category(field)
    model = triangular_model(u, u, one_dim_bimodule(u, u))
    assert model.validate().ok
    assert model.objects == ("[*;]", "[;*]")
    t, v = model.objects
    assert (model.hom_basis[(t, t)], model.hom_basis[(t, v)], model.hom_basis[(v, t)],
            model.hom_basis[(v, v)]) == (("t:e",), ("m0",), (), ("u:e",))
    a2 = zoo.a2(field)
    assert [model.dim(x, y) for x in model.objects for y in model.objects] == \
        [a2.dim(x, y) for x in a2.objects for y in a2.objects]
    assert model.triangular["pieces"] == {"[*;*]": (t, v)}


def _block_offsets(lam, model):
    """(x, y, p, q) -> where Hom(p, q) of the model starts inside
    Hom(x, y) of Lambda, for the pieces p of x and q of y: the t-block
    at 0, the m-block after it and the u-block last; Hom([;U],[T';]) is 0."""
    offsets = {}
    for x, (a, b) in model.triangular["pieces"].items():
        for y, (a2, b2) in model.triangular["pieces"].items():
            dt, dm = model.dim(a, a2), model.dim(a, b2)
            offsets.update({(x, y, a, a2): 0, (x, y, a, b2): dt, (x, y, b, b2): dt + dm,
                            (x, y, b, a2): 0})
    return offsets


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_model_is_lambda_on_its_pieces(field):
    # the model is the full subcategory of the idempotent completion of
    # Lambda on the pieces: its labels, composites and identities are
    # Lambda's, read in the blocks of the pieces
    u, a2, d = unit_category(field), zoo.a2(field), zoo.dual_numbers(field)
    triangles = [(u, u, *one_dim_data(field)), _twisted_corner(field),
                 (u, a2, *left_module_data(representable(a2, "1", "left"))),
                 (a2, a2, {}, {}, {}), (u, d, *left_module_data(representable(d, "*", "left")))]
    for t, uu, dims, lact, ract in triangles:
        m = bimodule(uu, t, dims, lact, ract)
        lam, model = triangular_matrix(t, uu, m), triangular_model(t, uu, m)
        assert model.validate().ok
        assert len(model.objects) == len(t.objects) + len(uu.objects)
        pieces = model.triangular["pieces"]
        assert list(pieces) == list(lam.objects)
        at = _block_offsets(lam, model)
        for x, y in [(x, y) for x in lam.objects for y in lam.objects]:
            (a, b), (a2_, b2) = pieces[x], pieces[y]
            assert model.dim(b, a2_) == 0
            assert lam.hom_basis[(x, y)] == (model.hom_basis[(a, a2_)]
                                             + model.hom_basis[(a, b2)]
                                             + model.hom_basis[(b, b2)])
            for z in lam.objects:
                for p in pieces[x]:
                    for q in pieces[y]:
                        for r in pieces[z]:
                            for i in range(model.dim(p, q)):
                                for j in range(model.dim(q, r)):
                                    got = lam.basis_row(x, y, z, at[x, y, p, q] + i,
                                                        at[y, z, q, r] + j)
                                    off = at[x, z, p, r]
                                    assert got == {k + off: v for k, v in
                                                   model.basis_row(p, q, r, i, j).items()}
        for x, (a, b) in pieces.items():
            assert lam.identity[x] == (model.identity[a]
                                       + report_form(field, vzero(field, lam.dim(x, x)
                                                                  - model.dim(a, a)
                                                                  - model.dim(b, b)))
                                       + model.identity[b])


def test_bimodule_validation_rejects_bad_action():
    for field in FIELDS:
        u, d = unit_category(field), zoo.dual_numbers(field)
        one, two = Mat.identity(field, 1), Mat.identity(field, 2)
        shear = Mat.from_rows(field, [[1, 1], [0, 1]])
        low, high = (Mat.from_rows(field, rows) for rows in ([[0, 0], [1, 0]], [[0, 1], [0, 0]]))
        bad = [
            # identity must act as 1: shear times its inverse is 1, but
            # each side alone is not
            (u, u, {("*", "*"): 2}, {("*", "*", 0, "*"): shear},
             {("*", "*", 0, "*"): Mat.from_rows(field, [[1, -1], [0, 1]])},
             "U-action on M(-,*): identity at * does not act as the identity"),
            (u, u, {("*", "*"): 1}, {("*", "*", 0, "*"): Mat.zeros(field, 1, 1)},
             {("*", "*", 0, "*"): one},
             "U-action on M(-,*): identity at * does not act as the identity"),
            # x acts as low on the left and as high on the right: each side
            # is functorial but they do not commute
            (d, d, {("*", "*"): 2}, {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): low},
             {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): high},
             "U-arrow x: * -> * and T-arrow x: * -> * do not commute"),
            # x * x = 0 but x acts as the identity, on either side
            (d, u, {("*", "*"): 2}, {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): two},
             {("*", "*", 0, "*"): two},
             "U-action on M(-,*): action not functorial at (*,*,*) on x*x"),
            (u, d, {("*", "*"): 2}, {("*", "*", 0, "*"): two},
             {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): two},
             "T-action on M(*,-): action not functorial at (*,*,*) on x*x"),
        ]
        # each failure is named by its side, objects and arrows
        for uu, t, dims, lact, ract, message in bad:
            with pytest.raises(InvalidBimodule, match=re.escape(message)):
                bimodule(uu, t, dims, lact, ract)
        # the same actions with x acting as low on both sides commute
        bimodule(d, d, {("*", "*"): 2}, {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): low},
                 {("*", "*", 0, "*"): two, ("*", "*", 1, "*"): low})


# ---------------------------------------------------------------------------
# rejection: every failure kind, in the order the dense check reported it

def _failures(objects, hom, comp, ids):
    with pytest.raises(InvalidCategory) as err:
        category_from_tables(Q, objects, hom, comp, ids)
    return err.value.report.failures


# basis e, a, b of End(*): a*a = b and b*a = a, every other product of a
# and b zero; the unit laws hold and associativity fails
_Z = (0, 0, 0)
NON_ASSOCIATIVE = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                   [(0, 1, 0), (0, 0, 1), (0, 1, 0)],
                   [(0, 0, 1), _Z, _Z]]


def _assoc(where, i, j, k):
    return ("associativity", where, f"(h o g) o f != h o (g o f) at basis ({i},{j},{k})")


def test_validate_rejects_a_non_associative_table():
    failures = _failures(("*",), {("*", "*"): ("e", "a", "b")},
                         {("*", "*", "*"): NON_ASSOCIATIVE}, {"*": (1, 0, 0)})
    star = ("*",) * 4
    assert failures == [_assoc(star, 1, 1, 1), _assoc(star, 1, 1, 2),
                        _assoc(star, 1, 2, 1), _assoc(star, 1, 2, 2)]


def test_validate_reports_failures_in_object_then_basis_order():
    # the algebra at both objects, and c: 1 -> 2 with c*a1 = a2*c = c,
    # c*b1 = b2*c = 0
    hom = {("1", "1"): ("e1", "a1", "b1"), ("2", "2"): ("e2", "a2", "b2"),
           ("1", "2"): ("c",)}
    comp = {("1", "1", "1"): NON_ASSOCIATIVE, ("2", "2", "2"): NON_ASSOCIATIVE,
            ("1", "1", "2"): [[(1,)], [(1,)], [(0,)]],
            ("1", "2", "2"): [[(1,), (1,), (0,)]]}
    failures = _failures(("1", "2"), hom, comp, {"1": (1, 0, 0), "2": (1, 0, 0)})
    assert failures == [
        _assoc(("1", "1", "1", "1"), 1, 1, 1), _assoc(("1", "1", "1", "1"), 1, 1, 2),
        _assoc(("1", "1", "1", "1"), 1, 2, 1), _assoc(("1", "1", "1", "1"), 1, 2, 2),
        _assoc(("1", "1", "1", "2"), 1, 1, 0), _assoc(("1", "1", "1", "2"), 1, 2, 0),
        _assoc(("1", "2", "2", "2"), 0, 1, 1), _assoc(("1", "2", "2", "2"), 0, 1, 2),
        _assoc(("2", "2", "2", "2"), 1, 1, 1), _assoc(("2", "2", "2", "2"), 1, 1, 2),
        _assoc(("2", "2", "2", "2"), 1, 2, 1), _assoc(("2", "2", "2", "2"), 1, 2, 2)]


def _a2_tables():
    objects = ("1", "2")
    hom = {("1", "1"): ("e1",), ("2", "2"): ("e2",), ("1", "2"): ("a",)}
    one = ((Q.one(),),)
    comp = {("1", "1", "1"): (one,), ("2", "2", "2"): (one,),
            ("1", "1", "2"): (one,), ("1", "2", "2"): (one,)}
    return objects, hom, comp, {"1": (Q.one(),), "2": (Q.one(),)}


def test_validate_rejects_a_table_of_the_wrong_shape():
    objects, hom, comp, ids = _a2_tables()
    comp[("1", "1", "2")] = ((), ())             # two rows for one basis vector
    comp[("1", "2", "2")] = (((Q.one(), Q.one()),),)   # a vector of length 2
    assert _failures(objects, hom, comp, ids) == [
        ("comp-shape", ("1", "1", "2"), "wrong first index range"),
        ("comp-shape", ("1", "2", "2"), "wrong table shape")]


def test_dense_input_with_a_vector_of_the_wrong_length_is_a_shape_fault():
    # a sparse row keeps no length, so category_from_tables checks each
    # vector against dim(x, z), as the dense check did
    long_e1 = (((Q.one(), Q.zero()),),)          # e1 o e1 given with two coordinates
    empty_a = (((),),)                           # e2 o a given with none
    for key, table in ((("1", "1", "1"), long_e1), (("1", "2", "2"), empty_a)):
        objects, hom, comp, ids = _a2_tables()
        comp[key] = table
        expect = [("comp-shape", key, "wrong table shape")]
        assert _dense_validate(_DenseTables(Q, objects, hom, comp, ids)) == expect
        assert _failures(objects, hom, comp, ids) == expect


def test_dense_input_with_too_few_composites_is_a_shape_fault():
    objects, hom, _, ids = _a2_tables()
    assert _failures(objects, hom, {("1", "1", "2"): [[]]}, ids) == [
        ("comp-shape", ("1", "1", "2"), "wrong table shape")]


def test_validate_rejects_a_missing_table():
    objects, hom, comp, ids = _a2_tables()
    rows = dict(category_from_tables(Q, objects, hom, comp, ids).rows)
    del rows[("1", "2", "2")]
    # the missing table composes to zero, so 1_2 o a fails too
    assert FiniteKCategory(Q, objects, hom, rows, ids).validate().failures == [
        ("comp-missing", ("1", "2", "2"), "no composition table"),
        ("unit-left", ("1", "2"), "1_2 o a != a")]


def test_validate_rejects_bad_identity_coordinates():
    objects, hom, comp, ids = _a2_tables()
    ids["1"] = (Q.one(), Q.zero())
    ids["2"] = ()
    assert _failures(objects, hom, comp, ids) == [
        ("identity", "1", "missing or wrong-length identity coordinates"),
        ("identity", "2", "missing or wrong-length identity coordinates")]


def test_validate_rejects_a_missing_identity():
    # the default identity summands read identity[x]: they must wait for
    # the identity check
    objects, hom, comp, ids = _a2_tables()
    rows = category_from_tables(Q, objects, hom, comp, ids).rows
    del ids["2"]
    expect = [("identity", "2", "missing or wrong-length identity coordinates")]
    assert _failures(objects, hom, comp, ids) == expect
    assert FiniteKCategory(Q, objects, hom, rows, ids).validate().failures == expect


def test_validate_report_is_kept_on_the_category():
    cat = zoo.a2(Q)
    assert cat.validate() is cat.validate()
    assert enveloping(cat).validate().ok


def test_product_validate_reports_its_factors_failures():
    bad = FiniteKCategory(Q, ("*",), {("*", "*"): ("e", "a", "b")},
                          {("*", "*", "*"): tuple(tuple(sparse_row(Q, vec) for vec in row)
                                                  for row in NON_ASSOCIATIVE)},
                          {"*": (Q.one(), Q.zero(), Q.zero())})
    failures = bad.validate().failures
    assert len(failures) == 4
    assert tensor_category(zoo.a2(Q), bad).validate().failures == failures
    assert tensor_category(bad, bad).validate().failures == failures + failures


# ---------------------------------------------------------------------------
# the sparse check against the dense one it replaced

def _dense_table(cat):
    """The composition of cat as dense coordinate tuples [i][j] per object
    triple, read through compose_basis in the order of the stored rows."""
    return {(x, y, z): tuple(tuple(compose_basis(cat, x, y, z, i, j) for j in range(cat.dim(y, z)))
                             for i in range(cat.dim(x, y)))
            for x, y, z in cat.rows}


class _DenseTables:
    """Dense composition tables as given to category_from_tables, with
    the accessors the dense check reads."""

    def __init__(self, field, objects, hom, comp, identity):
        self.field, self.objects, self.comp, self.identity = field, objects, comp, identity
        self.hom_basis = {(x, y): hom.get((x, y), ()) for x in objects for y in objects}

    def dim(self, x, y):
        return len(self.hom_basis[(x, y)])

    def basis_morphisms(self):
        for x in self.objects:
            for y in self.objects:
                for i, label in enumerate(self.hom_basis[(x, y)]):
                    yield x, y, i, label


def _dense_compose(cat, x, y, z, f, g):
    field = cat.field
    out = vzero(field, cat.dim(x, z))
    table = cat.comp.get((x, y, z))
    if table is None:
        return out
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out = vadd(field, out, vscale(field, field.mul(a, b), table[i][j]))
    return out


def _dense_validate(cat):
    """Every check of FiniteKCategory.validate on dense coordinate vectors."""
    out = []
    objs = cat.objects
    for x in objs:
        if x not in cat.identity or len(cat.identity[x]) != cat.dim(x, x):
            out.append(("identity", x, "missing or wrong-length identity coordinates"))
    for (x, y, z), table in cat.comp.items():
        if len(table) != cat.dim(x, y):
            out.append(("comp-shape", (x, y, z), "wrong first index range"))
            continue
        for row in table:
            if len(row) != cat.dim(y, z) or any(len(v) != cat.dim(x, z) for v in row):
                out.append(("comp-shape", (x, y, z), "wrong table shape"))
    if out:
        return out
    for x in objs:
        for y in objs:
            if (x, y, y) not in cat.comp and cat.dim(x, y) and cat.dim(y, y):
                out.append(("comp-missing", (x, y, y), "no composition table"))
    for x, y, i, label in cat.basis_morphisms():
        f = unit_vector(cat.field, cat.dim(x, y), i)
        if _dense_compose(cat, x, y, y, f, cat.identity[y]) != f:
            out.append(("unit-left", (x, y), f"1_{y} o {label} != {label}"))
        if _dense_compose(cat, x, x, y, cat.identity[x], f) != f:
            out.append(("unit-right", (x, y), f"{label} o 1_{x} != {label}"))
    for x in objs:
        for y in objs:
            for z in objs:
                for w in objs:
                    dxy, dyz, dzw = cat.dim(x, y), cat.dim(y, z), cat.dim(z, w)
                    if not (dxy and dyz and dzw):
                        continue
                    for i in range(dxy):
                        f = unit_vector(cat.field, dxy, i)
                        for j in range(dyz):
                            g = unit_vector(cat.field, dyz, j)
                            gf = cat.comp[(x, y, z)][i][j]
                            for k in range(dzw):
                                h = unit_vector(cat.field, dzw, k)
                                lhs = _dense_compose(cat, x, z, w, gf, h)
                                hg = _dense_compose(cat, y, z, w, g, h)
                                if lhs != _dense_compose(cat, x, y, w, f, hg):
                                    out.append(_assoc((x, y, z, w), i, j, k))
    return out


QUIVERS = {
    "A3": "object 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n",
    "kronecker": "object 1 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n",
    # x*x lies beyond the bound, so it is zero without being reduced
    "dual-bound1": "object s\narrow x: s -> s\nrel x*x = 0\nbound 1\n",
    "square": ("object 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\n"
               "arrow d: 3 -> 4\nrel b*a - d*c = 0\n"),
    "cycle": ("object 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\nrel b*a = 0\n"
              "rel a*b*a = 0\nrel b*a*b = 0\n"),
}


def _certified(field, name):
    source = f"category C over {field!r}\nquiver\n" + QUIVERS[name]
    return Workspace(parse(source)).categories["C"]


def _k_times_k_in_another_basis(field):
    # basis b1 = e1, b2 = e1 - e2 of K x K: the identity is 2*b1 - b2 and
    # b2*b2 = 2*b1 - b2, so the unit law at b2 cancels the b1 coordinate
    return category_from_tables(field, ("*",), {("*", "*"): ("b1", "b2")},
                                {("*", "*", "*"): [[(1, 0), (1, 0)], [(1, 0), (2, -1)]]},
                                {"*": (2, -1)})


def _tables(field):
    cats = list(zoo.standard_categories(field).values()) + [_k_times_k_in_another_basis(field)]
    cats += [zoo.random_two_object(field, seed) for seed in range(3)]
    return cats + [_certified(field, name) for name in sorted(QUIVERS)]


def _failures_in(field, dense):
    """The validation failures of the dense tables, built through the dense
    entry point; [] when they make a category."""
    try:
        category_from_tables(field, dense.objects, dense.hom_basis, dense.comp, dense.identity)
    except InvalidCategory as err:
        return err.report.failures
    return []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_sparse_validate_matches_the_dense_one_on_perturbed_tables(field):
    rng = random.Random(7 + field.p)
    failing = 0
    for cat in _tables(field):
        dense = _dense_table(cat)
        filled = [key for key, table in sorted(dense.items()) if table and table[0]]
        for _ in range(12):
            comp = {key: [[list(v) for v in row] for row in table]
                    for key, table in dense.items()}
            ids = {x: list(v) for x, v in cat.identity.items()}
            if rng.random() < 0.2:
                x = rng.choice(cat.objects)
                vec = ids[x]
            else:
                key = rng.choice(filled)
                table = comp[key]
                vec = rng.choice(rng.choice(table))
            t = rng.randrange(len(vec))
            if rng.random() < 0.15:
                # a vector of the wrong length: one coordinate short or one too many
                if rng.random() < 0.5:
                    del vec[t]
                else:
                    vec.append(field.of(rng.randrange(field.p or 5)))
            else:
                vec[t] = field.of(vec[t] + rng.randrange(1, field.p or 5))
            bad = _DenseTables(
                field, cat.objects, cat.hom_basis,
                {key: tuple(tuple(tuple(v) for v in row) for row in table)
                 for key, table in comp.items()},
                {x: tuple(v) for x, v in ids.items()})
            expect = _dense_validate(bad)
            assert _failures_in(field, bad) == expect
            failing += bool(expect)
        original = _DenseTables(field, cat.objects, cat.hom_basis, dense, cat.identity)
        assert _dense_validate(original) == [] and cat.validate().ok
    assert failing >= 120


# ---------------------------------------------------------------------------
# product categories answer from their factors, as the dense table did

def _dense_product_table(c, d):
    """The composition table tensor_category used to build: every triple
    of pair objects, vkron of the factor products."""
    field = c.field
    table = {}
    pairs = [(a, b) for a in c.objects for b in d.objects]
    for a, b in pairs:
        for a2, b2 in pairs:
            d1 = c.dim(a, a2) * d.dim(b, b2)
            for a3, b3 in pairs:
                d2 = c.dim(a2, a3) * d.dim(b2, b3)
                if not (d1 and d2):
                    continue
                rows = []
                for i in range(d1):
                    ic, id_ = divmod(i, d.dim(b, b2))
                    rows.append(tuple(
                        vkron(field, compose_basis(c, a, a2, a3, ic, j // d.dim(b2, b3)),
                              compose_basis(d, b, b2, b3, id_, j % d.dim(b2, b3)))
                        for j in range(d2)))
                key = (pair_object(a, b), pair_object(a2, b2), pair_object(a3, b3))
                table[key] = tuple(rows)
    return table


def _transposed(table):
    """The composition table of the opposite category."""
    return {(z, y, x): tuple(tuple(t[j][i] for j in range(len(t)))
                             for i in range(len(t[0])))
            for (x, y, z), t in table.items()}


def _random_vector(rng, field, n):
    return tuple(field.of(rng.choice((0, 0, 1, 2, -1))) for _ in range(n))


def _check_against_table(prod, table, rng):
    field = prod.field
    for (x, y, z), t in sorted(table.items()):
        dxy, dyz, dxz = prod.dim(x, y), prod.dim(y, z), prod.dim(x, z)
        for i in range(dxy):
            for j in range(dyz):
                # entry types included: Fractions over Q, ints over GF(p)
                assert repr(compose_basis(prod, x, y, z, i, j)) == repr(report_form(field, t[i][j]))
                _assert_working_form(field, prod.basis_row(x, y, z, i, j))
        for j in range(dyz):
            expect = Mat.from_cols(field, [t[i][j] for i in range(dxy)], rows=dxz)
            assert prod.post_matrix_basis(x, y, z, j) == expect
        for i in range(dxy):
            expect = Mat.from_cols(field, [t[i][j] for j in range(dyz)], rows=dxz)
            assert prod.pre_matrix_basis(x, y, z, i) == expect
        f = _random_vector(rng, field, dxy)
        g = _random_vector(rng, field, dyz)
        expect = vzero(field, dxz)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                if a and b:
                    expect = vadd(field, expect, vscale(field, field.mul(a, b), t[i][j]))
        assert prod.compose(x, y, z, f, g) == expect


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_categories_match_the_dense_product_table(field):
    rng = random.Random(3 + field.p)
    cats = list(zoo.standard_categories(field).values())
    cats += [_certified(field, "A3"), _certified(field, "kronecker")]
    pairs = [(opposite(c), c) for c in cats]
    pairs += [(zoo.a2(field), zoo.dual_numbers(field)),
              (_certified(field, "A3"), zoo.kronecker(field))]
    for c, d in pairs:
        prod = tensor_category(c, d)
        table = _dense_product_table(c, d)
        _check_against_table(prod, table, rng)
        op = opposite(prod)
        assert op.product_of == (opposite(c), opposite(d))
        assert op.hom_basis == {(x, y): prod.hom_basis[(y, x)]
                                for x in prod.objects for y in prod.objects}
        _check_against_table(op, _transposed(table), rng)
        assert opposite(op) == prod


def _eager_labels(cat):
    """Every Hom label tuple of cat, those of a product paired eagerly
    from its factors' as tensor_category once built them."""
    if cat.product_of is None:
        return cat.hom_basis
    c, d = cat.product_of
    hc, hd = _eager_labels(c), _eager_labels(d)
    source = {pair_object(a, b): (a, b) for a in c.objects for b in d.objects}
    return {(o1, o2): tuple(pair_label(f, g) for f in hc[(a, a2)] for g in hd[(b, b2)])
            for o1, (a, b) in source.items() for o2, (a2, b2) in source.items()}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_labels_are_paired_when_first_read(field):
    # a product answers Hom dimensions from its factors and builds no
    # label until hom_basis is read; then the labels are the eager ones
    prods = [enveloping(c) for c in zoo.standard_categories(field).values()]
    prods.append(enveloping(_certified(field, "A3")))
    prods.append(opposite(tensor_category(zoo.a2(field), zoo.dual_numbers(field))))
    env = enveloping(zoo.kronecker(field))
    prods.append(tensor_category(opposite(env), env))
    for prod in prods:
        want = _eager_labels(prod)
        assert prod.total_dim() == sum(map(len, want.values()))
        for x in prod.objects:
            for y in prod.objects:
                assert prod.dim(x, y) == len(want[(x, y)])
        assert prod._hom_basis is None
        assert prod.hom_basis == want
        assert [label for *_, label in prod.basis_morphisms()] == [
            label for x in prod.objects for y in prod.objects for label in want[(x, y)]]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_product_composition_matrices_with_an_empty_end_skip_the_factors(field, monkeypatch):
    env = enveloping(_certified(field, "A3"))

    def untouched(*args):
        raise AssertionError("a factor was read for an empty block")

    for factor in env.product_of:
        monkeypatch.setattr(factor, "post_matrix_basis", untouched)
        monkeypatch.setattr(factor, "pre_matrix_basis", untouched)
    empty = 0
    for x in env.objects:
        for y in env.objects:
            for z in env.objects:
                dxy, dyz, dxz = env.dim(x, y), env.dim(y, z), env.dim(x, z)
                if not (dxy and dxz):
                    for j in range(dyz):
                        m = env.post_matrix_basis(x, y, z, j)
                        assert m.shape == (dxz, dxy) and m.is_zero()
                        empty += 1
                if not (dyz and dxz):
                    for i in range(dxy):
                        m = env.pre_matrix_basis(x, y, z, i)
                        assert m.shape == (dxz, dyz) and m.is_zero()
                        empty += 1
    assert empty > 100


def test_certified_q_composites_are_fractions():
    # a composite past the bound is zero without lying in the ideal; over
    # Q it is still Fraction(0), not the int 0
    for name in sorted(QUIVERS):
        cat = _certified(Q, name)
        for table in _dense_table(cat).values():
            for row in table:
                for vec in row:
                    assert all(type(a) is Fraction for a in vec), (name, vec)


def _k_times_k_scaled(field, c):
    """K x K in the basis b1 = c*e1, b2 = e2: b1 o b1 = c*b1, 1 = b1/c + b2."""
    return category_from_tables(field, ("*",), {("*", "*"): ("b1", "b2")},
                                {("*", "*", "*"): [[(c, 0), (0, 0)], [(0, 0), (0, 1)]]},
                                {"*": (field.inv(c), 1)})


def test_q_constants_whose_products_are_integral_are_kept_as_ints():
    # the constants 1/2 and 2 meet in the product's rows and identity, and
    # in a composite with coefficient 2
    half, double = _k_times_k_scaled(Q, Fraction(1, 2)), _k_times_k_scaled(Q, 2)
    prod = tensor_category(half, double)
    o = prod.objects[0]
    assert prod.basis_row(o, o, o, 0, 0) == {0: 1}
    assert prod.id_coords(o) == (1, 2, Fraction(1, 2), 1)
    assert half.compose("*", "*", "*", (2, 0), (1, 0)) == (1, 0)
    quot = quotient_category(prod, ideal_from_generators(prod, [(o, o, (0, 0, 0, 1))]))
    for vec in [prod.id_coords(o), half.compose("*", "*", "*", (2, 0), (1, 0)),
                quot.id_coords(o)]:
        _assert_working_form(Q, dict(enumerate(vec)))
    for i in range(4):
        for j in range(4):
            _assert_working_form(Q, prod.basis_row(o, o, o, i, j))
    _check_row_format(quot)
    assert all(type(a) is Fraction for a in prod.identity[o])
    assert compose_basis(prod, o, o, o, 0, 0) == (Fraction(1), Fraction(0), Fraction(0),
                                                  Fraction(0))


# ---------------------------------------------------------------------------
# the constructors that write rows, against the dense tables they wrote

def _dense_quotient_table(c, ideal):
    """The table quotient_category used to build: section columns composed
    densely in C, each composite projected with proj.mul_vec."""
    comps = {(x, y): ComplementData(ideal.span[(x, y)]) for x in c.objects for y in c.objects}
    table = {}
    for x in c.objects:
        for y in c.objects:
            cxy = comps[(x, y)]
            for z in c.objects:
                cyz, cxz = comps[(y, z)], comps[(x, z)]
                if cxy.dim and cyz.dim:
                    table[(x, y, z)] = tuple(
                        tuple(cxz.proj.mul_vec(c.compose(x, y, z, cxy.section.col(i),
                                                         cyz.section.col(j)))
                              for j in range(cyz.dim))
                        for i in range(cxy.dim))
    return table


def _dense_triangular(t, u, dims, lact, ract):
    """The table and identities triangular_matrix used to build from the
    bimodule with these one-sided actions, every composite embedded
    densely into its three blocks."""
    field = t.field
    src = {}
    for T in t.objects:
        for U in u.objects:
            src[f"[{T};{U}]"] = (T, U)

    def blocks(o1, o2):
        (T, U), (T2, U2) = src[o1], src[o2]
        return t.dim(T, T2), dims.get((U2, T), 0), u.dim(U, U2)

    def action(table, key, rows, cols):
        mat = table.get(key)
        return Mat.zeros(field, rows, cols) if mat is None else mat

    def embed(dt, dm, du, tpart=None, mpart=None, upart=None):
        vec = [field.zero()] * (dt + dm + du)
        if tpart is not None:
            vec[:dt] = tpart
        if mpart is not None:
            vec[dt:dt + dm] = mpart
        if upart is not None:
            vec[dt + dm:] = upart
        return tuple(vec)

    table = {}
    for o1, (T, U) in src.items():
        for o2, (T2, U2) in src.items():
            d1t, d1m, d1u = blocks(o1, o2)
            for o3, (T3, U3) in src.items():
                d2t, d2m, d2u = blocks(o2, o3)
                if not (d1t + d1m + d1u and d2t + d2m + d2u):
                    continue
                dc = blocks(o1, o3)
                rows = [[vzero(field, sum(dc))] * (d2t + d2m + d2u)
                        for _ in range(d1t + d1m + d1u)]
                for i in range(d1t):
                    for j in range(d2t):
                        rows[i][j] = embed(*dc, tpart=compose_basis(t, T, T2, T3, i, j))
                    rmat = action(ract, (T, T2, i, U3), dc[1], d2m)
                    for k in range(d2m):
                        rows[i][d2t + k] = embed(*dc, mpart=rmat.col(k))
                for j in range(d2u):
                    lmat = action(lact, (U2, U3, j, T), dc[1], d1m)
                    for k in range(d1m):
                        rows[d1t + k][d2t + d2m + j] = embed(*dc, mpart=lmat.col(k))
                for i in range(d1u):
                    for j in range(d2u):
                        rows[d1t + d1m + i][d2t + d2m + j] = embed(
                            *dc, upart=compose_basis(u, U, U2, U3, i, j))
                table[(o1, o2, o3)] = tuple(tuple(row) for row in rows)
    identity = {}
    for o, (T, U) in src.items():
        identity[o] = embed(*blocks(o, o), tpart=t.id_coords(T), upart=u.id_coords(U))
    return table, identity


def _seeded_ideal(rng, c):
    pairs = [(x, y) for x in c.objects for y in c.objects if c.dim(x, y)]
    gens = []
    for _ in range(rng.randint(1, 2)):
        x, y = rng.choice(pairs)
        gens.append((x, y, tuple(rng.choice((0, 0, 1, 2, -1)) for _ in range(c.dim(x, y)))))
    return ideal_from_generators(c, gens)


def _twisted_corner(field):
    """The two-object cmp case: T = A2, U = dual numbers, and a corner of
    dimension 2 at (*, 2) on which x acts nilpotently."""
    a2, d = zoo.a2(field), zoo.dual_numbers(field)
    dims = {("*", "1"): 0, ("*", "2"): 2}
    lact = {("*", "*", 0, "2"): Mat.identity(field, 2),
            ("*", "*", 1, "2"): Mat.from_rows(field, [[0, 0], [1, 0]])}
    ract = {("2", "2", 0, "*"): Mat.identity(field, 2),
            ("1", "2", 0, "*"): Mat.zeros(field, 0, 2)}
    return a2, d, dims, lact, ract


def _assert_working_form(field, row):
    """Over Q a coefficient is an int when integral and otherwise a
    Fraction; over GF(p) an int in [0, p)."""
    for v in row.values():
        if field.p:
            assert type(v) is int and 0 <= v < field.p, v
        else:
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


def _check_row_format(cat):
    """Every stored composite is a sparse row with keys ascending and no
    zero, its coefficients in working form; a zero composite is the shared
    empty row."""
    for table in cat.rows.values():
        for row in table:
            for r in row:
                assert list(r) == sorted(r) and all(r.values())
                assert r or r is EMPTY_ROW
                _assert_working_form(cat.field, r)


def _check_rows(cat, table, rng):
    assert list(cat.rows) == list(table)
    _check_row_format(cat)
    _check_against_table(cat, table, rng)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_constructors_match_the_dense_tables_they_wrote(field):
    rng = random.Random(11 + field.p)
    u = unit_category(field)
    a2 = zoo.a2(field)
    triangles = [(u, u, *one_dim_data(field)), _twisted_corner(field),
                 (u, a2, *left_module_data(representable(a2, "1", "left")))]
    lams = []
    for t, uu, dims, lact, ract in triangles:
        lam = triangular_matrix(t, uu, bimodule(uu, t, dims, lact, ract))
        table, identity = _dense_triangular(t, uu, dims, lact, ract)
        _check_rows(lam, table, rng)
        assert repr(lam.identity) == repr({o: report_form(field, v) for o, v in identity.items()})
        _check_row_format(triangular_model(t, uu, bimodule(uu, t, dims, lact, ract)))
        lams.append(lam)
    assert one_point_extension(a2, representable(a2, "1", "left")) == lams[-1]
    cats = list(zoo.standard_categories(field).values()) + [zoo.a3(field)]
    cats += [zoo.random_two_object(field, seed) for seed in range(4)]
    for c in _tables(field):
        _check_row_format(c)
    for c in cats + lams:
        _check_rows(opposite(c), _transposed(_dense_table(c)), rng)
    # composites of this product are sums: modulo b1#a + b2#b some of them
    # project to rows whose keys come out of order
    product = tensor_category(_k_times_k_in_another_basis(field), zoo.kronecker(field))
    sums = ideal_from_generators(product, [(pair_object("*", "1"), pair_object("*", "2"),
                                            (1, 0, 0, 1))])
    cases = [(c, _seeded_ideal(rng, c)) for c in cats + lams for _ in range(2)]
    cases += [(lam, triangular_ideal(lam)) for lam in lams] + [(product, sums)]
    for c, ideal in cases:
        quot = quotient_category(c, ideal)
        _check_rows(quot, _dense_quotient_table(c, ideal), rng)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_bimodule_slot_actions_are_the_given_actions(field):
    u, a2 = unit_category(field), zoo.a2(field)
    point = representable(a2, "1", "left")
    fixtures = [(u, u, *one_dim_data(field)), _twisted_corner(field),
                (u, a2, *left_module_data(point)), (a2, a2, {}, {}, {})]
    for t, uu, dims, lact, ract in fixtures:
        m = bimodule(uu, t, dims, lact, ract)
        assert m.dims == {pair_object(T, U): dims.get((U, T), 0)
                          for T in t.objects for U in uu.objects}
        for U, U2, i, _ in uu.basis_morphisms():
            for T in t.objects:
                shape = dims.get((U2, T), 0), dims.get((U, T), 0)
                given = lact.get((U, U2, i, T), Mat.zeros(field, *shape))
                assert slot_action(m, False, U, U2, i, T) == given
        for T, T2, j, _ in t.basis_morphisms():
            for U in uu.objects:
                shape = dims.get((U, T), 0), dims.get((U, T2), 0)
                given = ract.get((T, T2, j, U), Mat.zeros(field, *shape))
                assert slot_action(m, True, T2, T, j, U) == given
    # the lift of a left module is the bimodule of its one-sided actions
    assert over_unit(point) == bimodule(a2, u, *left_module_data(point))
