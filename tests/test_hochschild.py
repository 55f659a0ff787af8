from itertools import product as iproduct
from math import comb

import pytest

from homcat.certify import build_quiver_category
from homcat.cli import Workspace, parse
from homcat.exactla import Field, Mat, add_to_row, complex_cohomology_dims
from homcat.ideals import ideal_from_generators, triangular_ideal
from homcat.kcat import (FiniteKCategory, category_from_tables, enveloping, one_point_data,
                         one_point_extension, pair_object, quotient_category,
                         tensor_category, triangular_model)
from homcat.modcat import (ext, ext_data, ideal_bimodule, module_hom, regular_bimodule,
                           slot_action)
from homcat.hochschild import (
    InvalidCoefficient, _Layout, _chains, bar_resolution, center,
    hochschild_cochain_complex, hochschild_cohomology,
)
from homcat.reference import verify_dd, verify_resolution
from homcat.theorems import canonical_ses
from homcat import zoo

Q = Field.rationals()
F = Field.gf(32003)
FIELDS = [Q, Field.gf(2), Field.gf(3), F]
RANDOM_SEEDS = (1, 2, 3)


def route_categories(field):
    """The zoo battery, A_3 and seeded random two-object categories."""
    cats = dict(zoo.standard_categories(field))
    cats["A3"] = zoo.a3(field)
    for seed in RANDOM_SEEDS:
        cats[f"random{seed}"] = zoo.random_two_object(field, seed)
    return cats


def linear_an(field, n):
    objects = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return build_quiver_category(field, objects, arrows, [], n + 1)


def linear_a5(field):
    return linear_an(field, 5)


def test_bar_resolution_exact_low_degrees():
    for cat in (zoo.a2(Q), zoo.dual_numbers(Q), zoo.discrete(Q, 2)):
        env = enveloping(cat)
        reg = regular_bimodule(cat, env)
        res = bar_resolution(cat, 3, env=env, regular=reg)
        assert verify_resolution(res, 2) == []


def test_cochain_spaces_unit():
    u = zoo.unit_category(Q)
    cx = hochschild_cochain_complex(u, regular_bimodule(u), 3)
    assert cx.dims == [1, 1, 1, 1, 1]
    assert verify_dd(cx) == []


def test_cochain_space_degree0_a2():
    a2 = zoo.a2(Q)
    cx = hochschild_cochain_complex(a2, regular_bimodule(a2), 2)
    assert cx.dims[0] == 2          # sum of dim C(p,p)


def test_cochain_dims_dual_numbers_and_hom_crosscheck():
    d = zoo.dual_numbers(F)
    env = enveloping(d)
    reg = regular_bimodule(d, env)
    cx = hochschild_cochain_complex(d, reg, 3)
    assert cx.dims == [2 ** (n + 1) for n in range(5)]
    # independent check: materialize the bar terms and solve Hom spaces
    res = bar_resolution(d, 3, env=env, regular=reg)
    for n in range(4):
        assert module_hom(res.term(n), reg).dim == cx.dims[n]


def test_dd_zero_everywhere():
    for name, cat in zoo.standard_categories(F).items():
        cx = hochschild_cochain_complex(cat, regular_bimodule(cat), 4)
        assert verify_dd(cx) == [], name


def test_known_cohomology():
    assert hochschild_cohomology(zoo.unit_category(Q), 3) == [1, 0, 0, 0]
    assert hochschild_cohomology(zoo.a2(Q), 3) == [1, 0, 0, 0]
    assert hochschild_cohomology(zoo.a3(F), 3) == [1, 0, 0, 0]
    assert hochschild_cohomology(zoo.discrete(Q, 2), 3) == [2, 0, 0, 0]
    assert hochschild_cohomology(zoo.kronecker(Q), 3) == [1, 3, 0, 0]
    # the dual numbers: center is 2-dimensional, higher groups are lines
    assert hochschild_cohomology(zoo.dual_numbers(F), 3) == [2, 1, 1, 1]


def test_center_examples():
    assert center(zoo.unit_category(Q))[0] == 1
    assert center(zoo.a2(Q))[0] == 1
    assert center(zoo.discrete(Q, 2))[0] == 2
    assert center(zoo.dual_numbers(Q))[0] == 2
    dim, families = center(zoo.a2(Q))
    fam = families[0]
    assert fam["1"] == fam["2"]     # the same scalar on both objects


def test_h0_equals_center():
    for name, cat in zoo.standard_categories(F).items():
        assert hochschild_cohomology(cat, 0)[0] == center(cat)[0], name
    for seed in (1, 2):
        cat = zoo.random_two_object(F, seed)
        assert hochschild_cohomology(cat, 0)[0] == center(cat)[0]


def test_cochain_path_matches_bar_and_minimal_resolution():
    for field in FIELDS:
        for name, cat in route_categories(field).items():
            env = enveloping(cat)
            reg = regular_bimodule(cat, env)
            cochain = hochschild_cohomology(cat, 3, coeff=reg)
            data = ext_data(bar_resolution(cat, 5, env=env, regular=reg), reg, 3)
            from_bar = complex_cohomology_dims(data.dims, data.diffs, 3)
            from_minres = ext(reg, reg, 3)
            assert cochain == from_bar == from_minres, (field, name)


def test_layout_components_are_the_composable_chains():
    # chain enumeration against the brute-force filter of all object
    # tuples, in content and in lexicographic order
    for field in (Q, Field.gf(2)):
        for name, cat in route_categories(field).items():
            for n in range(4):
                brute = [t for t in iproduct(cat.objects, repeat=n + 1)
                         if all(cat.dim(t[i], t[i + 1]) for i in range(n))]
                layout = _Layout(_chains(cat, 3)[n], cat.dim)
                assert [comp[0] for comp in layout.components] == brute, name


def test_a5_cochain_dims_are_binomial():
    a5 = linear_a5(F)
    cx = hochschild_cochain_complex(a5, regular_bimodule(a5), 6)
    # degree k counts the weakly increasing (k+1)-tuples of 5 objects
    assert cx.dims == [comb(5 + k, k + 1) for k in range(8)]


def test_a5_cochains_skip_zero_hom_tuples(monkeypatch):
    a5 = linear_a5(F)
    reg = regular_bimodule(a5)
    calls = []
    dim = FiniteKCategory.dim

    def counting_dim(self, x, y):
        calls.append(None)
        return dim(self, x, y)

    monkeypatch.setattr(FiniteKCategory, "dim", counting_dim)
    hochschild_cochain_complex(a5, reg, 6)
    # walking all 5^(n+1) object tuples costs millions of lookups
    assert len(calls) < 50_000


def classical_algebra_hh(field, mult, unit_coords, upto):
    """Textbook Hochschild cochain complex of a one-object algebra, written
    independently of the package's tuple machinery: C^n = Hom(A^{x n}, A),
    (df)(a_0..a_n) = a_0 f(...) - f(..a_i a_{i+1}..) + ... +- f(...) a_n.

    mult[i][j] = coordinates of (basis_i * basis_j)."""
    from itertools import product as iproduct
    from homcat.exactla import Mat, rank

    d = len(mult)

    def mul_vec(u, v):
        out = [field.zero()] * d
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for k, c in enumerate(mult[i][j]):
                    out[k] = field.add(out[k], field.mul(field.mul(a, b), c))
        return out

    def basis(n):
        return list(iproduct(range(d), repeat=n))

    dims = [d * d ** n for n in range(upto + 2)]
    diffs = []
    for n in range(upto + 1):
        rows = dims[n + 1]
        cols = dims[n]
        grid = [[field.zero()] * cols for _ in range(rows)]
        for ti, tup in enumerate(basis(n + 1)):
            for out_k in range(d):
                row_idx = ti * d + out_k
                # a_0 . f(a_1..a_n)
                for val_k in range(d):
                    e_val = [field.zero()] * d
                    e_val[val_k] = field.one()
                    e_first = [field.zero()] * d
                    e_first[tup[0]] = field.one()
                    prod = mul_vec(e_first, e_val)
                    src = basis(n).index(tup[1:]) * d + val_k
                    grid[row_idx][src] = field.add(grid[row_idx][src], prod[out_k])
                # inner multiplications
                for i in range(n):
                    sign = field.one() if (i + 1) % 2 == 0 else field.neg(field.one())
                    e1 = [field.zero()] * d
                    e1[tup[i]] = field.one()
                    e2 = [field.zero()] * d
                    e2[tup[i + 1]] = field.one()
                    prod = mul_vec(e1, e2)
                    for m_k, c in enumerate(prod):
                        if not c:
                            continue
                        new = tup[:i] + (m_k,) + tup[i + 2:]
                        src = basis(n).index(new) * d + out_k
                        grid[row_idx][src] = field.add(grid[row_idx][src],
                                                       field.mul(sign, c))
                # f(a_0..a_{n-1}) . a_n
                sign = field.one() if (n + 1) % 2 == 0 else field.neg(field.one())
                for val_k in range(d):
                    e_val = [field.zero()] * d
                    e_val[val_k] = field.one()
                    e_last = [field.zero()] * d
                    e_last[tup[-1]] = field.one()
                    prod = mul_vec(e_val, e_last)
                    src = basis(n).index(tup[:-1]) * d + val_k
                    grid[row_idx][src] = field.add(grid[row_idx][src],
                                                   field.mul(sign, prod[out_k]))
        diffs.append(Mat(field, rows, cols, tuple(tuple(r) for r in grid)))
    return complex_cohomology_dims(dims, diffs, upto)


def test_classical_algebra_oracle_dual_numbers():
    # K[x]/(x^2): mult table in the basis (1, x)
    field = F
    mult = [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    mult = [[tuple(map(field.of, v)) for v in row] for row in mult]
    classical = classical_algebra_hh(field, mult, (1, 0), 3)
    ours = hochschild_cohomology(zoo.dual_numbers(field), 3)
    assert classical == ours == [2, 1, 1, 1]


def test_classical_algebra_oracle_triangular():
    # the 3-dimensional algebra [K 0; K K] in the basis (e1, e2, m),
    # m = e2 m e1
    field = F
    z3 = (0, 0, 0)
    mult = [
        # left factor e1:   e1*e1=e1  e1*e2=0   e1*m=0
        [(1, 0, 0), z3, z3],
        # e2:               e2*e1=0   e2*e2=e2  e2*m=m
        [z3, (0, 1, 0), (0, 0, 1)],
        # m:                m*e1=m    m*e2=0    m*m=0
        [(0, 0, 1), z3, z3],
    ]
    mult = [[tuple(map(field.of, v)) for v in row] for row in mult]
    classical = classical_algebra_hh(field, mult, (1, 1, 0), 3)
    from homcat.kcat import triangular_matrix, unit_category
    from homcat.modcat import bimodule
    from homcat.exactla import Mat
    u = unit_category(field)
    one = Mat.identity(field, 1)
    lam = triangular_matrix(u, u, bimodule(
        u, u, {("*", "*"): 1}, {("*", "*", 0, "*"): one}, {("*", "*", 0, "*"): one}))
    assert classical == hochschild_cohomology(lam, 3) == [1, 0, 0, 0]


def test_center_families_are_central():
    for cat in (zoo.a2(Q), zoo.dual_numbers(Q), zoo.kronecker(Q)):
        _, families = center(cat)
        from homcat.exactla import unit_vector
        for fam in families:
            for x, y, i, _ in cat.basis_morphisms():
                f = unit_vector(cat.field, cat.dim(x, y), i)
                left = cat.compose(x, y, y, f, fam[y])
                right = cat.compose(x, x, y, fam[x], f)
                assert left == right


def test_invalid_coefficient_rejected():
    a2 = zoo.a2(Q)
    with pytest.raises(InvalidCoefficient):
        hochschild_cochain_complex(a2, regular_bimodule(zoo.dual_numbers(Q)), 2)
    # both quivers name their objects 1 and 2, so every pair object exists
    # in the other's enveloping category
    with pytest.raises(InvalidCoefficient):
        hochschild_cohomology(a2, 2, coeff=regular_bimodule(zoo.kronecker(Q)))
    with pytest.raises(InvalidCoefficient):
        hochschild_cohomology(zoo.kronecker(Q), 2, coeff=regular_bimodule(a2))


def first_arrow_ideal(cat):
    """The ideal generated by the first non-identity basis morphism."""
    for x, y, i, _ in cat.basis_morphisms():
        if x != y or i > 0:
            coords = [0] * cat.dim(x, y)
            coords[i] = 1
            return ideal_from_generators(cat, [(x, y, tuple(coords))])


def test_twisted_coefficients_ideal_bimodule():
    # coefficients other than the regular bimodule flow through the same
    # complex, and the outer actions are those of the ideal bimodule
    for field in FIELDS:
        cats = {"A2": zoo.a2(field), "A3": zoo.a3(field), "kronecker": zoo.kronecker(field)}
        for seed in RANDOM_SEEDS:
            cats[f"random{seed}"] = zoo.random_two_object(field, seed)
        for name, cat in cats.items():
            env = enveloping(cat)
            reg = regular_bimodule(cat, env)
            sub, _ = ideal_bimodule(cat, first_arrow_ideal(cat), env=env, regular=reg)
            cx = hochschild_cochain_complex(cat, sub, 3)
            assert verify_dd(cx) == [], (field, name)
            data = ext_data(bar_resolution(cat, 5, env=env, regular=reg), sub, 3)
            from_bar = complex_cohomology_dims(data.dims, data.diffs, 3)
            assert cx.cohomology(3) == from_bar == ext(reg, sub, 3), (field, name)


# ---------------------------------------------------------------------------
# the assembly against a face-by-face reference

def reference_cochain_complex(c, coeff, max_deg):
    """The reduced cochain complex assembled face by face: every face of
    every cell is evaluated and added in, those the unit law cancels
    included.  Returns (dims, differentials)."""
    field = c.field
    layouts = []
    for n in range(max_deg + 2):
        comps, index, off = [], {}, 0
        for tup in iproduct(c.objects, repeat=n + 1):
            if not all(c.dim(tup[i], tup[i + 1]) for i in range(n)):
                continue
            inner = list(iproduct(*[range(c.dim(tup[i], tup[i + 1])) for i in range(n)]))
            cdim = coeff.dims[pair_object(tup[0], tup[-1])]
            comps.append((tup, inner, cdim, off))
            index[tup] = (off, cdim, {w: k for k, w in enumerate(inner)})
            off += len(inner) * cdim
        layouts.append((comps, index, off))

    def offset(index, tup, w):
        off, cdim, pos = index[tup]
        return off + pos[w] * cdim

    def outer(first, x, y, i, far):
        # the first slot is C^op, where C(x,y) is C^op(y,x)
        a, b = (y, x) if first else (x, y)
        mat = slot_action(coeff, first, a, b, i, far)
        return [(r, s, v) for r, row in enumerate(mat.nz) for s, v in row.items()]

    diffs = []
    for n in range(max_deg + 1):
        (_, index, cols), (comps, _, rows) = layouts[n], layouts[n + 1]
        grid = [{} for _ in range(rows)]
        last = field.one() if (n + 1) % 2 == 0 else field.neg(field.one())
        for tup, inner, cdim, toff in comps:
            for wi, w in enumerate(inner):
                row0 = toff + wi * cdim
                col0 = offset(index, tup[1:], w[1:])
                for r, s, a in outer(True, tup[0], tup[1], w[0], tup[-1]):
                    add_to_row(field, grid[row0 + r], col0 + s, a)
                for i in range(1, n + 1):
                    sign = field.one() if i % 2 == 0 else field.neg(field.one())
                    comp = c.basis_row(tup[i - 1], tup[i], tup[i + 1], w[i - 1], w[i])
                    for h, a in comp.items():
                        col0 = offset(index, tup[:i] + tup[i + 1:], w[:i - 1] + (h,) + w[i + 1:])
                        for r in range(cdim):
                            add_to_row(field, grid[row0 + r], col0 + r, field.mul(sign, a))
                col0 = offset(index, tup[:-1], w[:-1])
                for r, s, a in outer(False, tup[-2], tup[-1], w[-1], tup[0]):
                    add_to_row(field, grid[row0 + r], col0 + s, field.mul(last, a))
        diffs.append(Mat.from_sparse(field, rows, cols, tuple(grid)))
    return [l[2] for l in layouts], diffs


def dual_numbers_shifted_basis(field):
    """K[x]/(x^2) on the basis b0 = 1 + x, b1 = x, so 1 = b0 - b1 is not a
    basis element: b0 b0 = b0 + b1, b0 b1 = b1 b0 = b1, b1 b1 = 0."""
    one, zero = field.one(), field.zero()
    table = [[(one, one), (zero, one)], [(zero, one), (zero, zero)]]
    return category_from_tables(field, ["*"], {("*", "*"): ("b0", "b1")},
                                {("*", "*", "*"): table}, {"*": (one, field.neg(one))})


# the cmp and happel inputs of the benchmark, computed on their split models
TRIANGULAR_SOURCES = {
    "cmp-tum": ("category U over Q\nquiver\nobject s\narrow x: s -> s\nrel x*x = 0\n"
                "category T over Q\nquiver\nobject 1\n"
                "bimodule M over (U,T)\ndim s 1 = 2\nlact x 1 = [[0,0],[1,0]]\n"),
    "happel-dual": ("category U over Q\nquiver\nobject s\narrow x: s -> s\nrel x*x = 0\n"
                    "module S over U left\ndim s = 1\nact x = [[0]]\n"),
    "happel-kronecker": ("category U over Q\nquiver\nobject 1 2\narrow a: 1 -> 2\n"
                         "arrow b: 1 -> 2\nmodule S over U left\ndim 1 = 1\ndim 2 = 1\n"
                         "act a = [[1]]\nact b = [[0]]\n"),
}
for _dim in (1, 2):
    TRIANGULAR_SOURCES[f"point-happel-{_dim}"] = (
        f"category U over Q\nquiver\nobject p\nmodule S over U left\ndim p = {_dim}\n")
    TRIANGULAR_SOURCES[f"point-cmp-{_dim}"] = (
        "category U over Q\nquiver\nobject u\ncategory T over Q\nquiver\nobject t\n"
        f"bimodule M over (U,T)\ndim u t = {_dim}\n")


def triangular_models(field):
    models = {}
    for name, src in TRIANGULAR_SOURCES.items():
        ws = Workspace(parse(src), field_override=field)
        u = ws.categories["U"]
        if "M" in ws.bimodules:
            models[name] = triangular_model(ws.categories["T"], u, ws.bimodules["M"])
        else:
            models[name] = triangular_model(*one_point_data(u, ws.modules["S"]))
    return models


def assembly_categories(field):
    """The categories of the assembly oracle, by name."""
    cats = dict(route_categories(field))
    cats.update(triangular_models(field))
    for n in (3, 4):
        an = linear_an(field, n)
        for x in an.objects:
            ideal = ideal_from_generators(an, [(x, x, an.id_coords(x))])
            cats[f"A{n}/<e{x}>"] = quotient_category(an, ideal)
    cats["shifted dual"] = dual_numbers_shifted_basis(field)
    # a product category keeps no composition rows and answers from its factors
    cats["dual x A2"] = tensor_category(zoo.dual_numbers(field), zoo.a2(field))
    return cats


def assembly_cases(field):
    """(name, category, coefficient bimodule) for the assembly oracle."""
    for name, cat in assembly_categories(field).items():
        yield name, cat, regular_bimodule(cat)
    twisted = {"A2": zoo.a2(field), "A3": zoo.a3(field), "kronecker": zoo.kronecker(field)}
    for seed in RANDOM_SEEDS:
        twisted[f"random{seed}"] = zoo.random_two_object(field, seed)
    for name, cat in twisted.items():
        ses = canonical_ses(cat, first_arrow_ideal(cat))
        yield f"{name} I", cat, ses.sub
        yield f"{name} H", cat, ses.quot


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_assembly_matches_the_face_by_face_reference(field):
    # every differential d^0..d^4, entry for entry, with the faces that
    # the unit law cancels left out of the assembly
    count = 0
    for name, cat, coeff in assembly_cases(field):
        dims, diffs = reference_cochain_complex(cat, coeff, 4)
        cx = hochschild_cochain_complex(cat, coeff, 4)
        assert cx.dims == dims, name
        for n, (got, want) in enumerate(zip(cx.diffs, diffs)):
            assert got == want, (name, n)
        count += 1
    assert count == 37


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_regular_coefficients_are_the_regular_bimodule(field):
    # the route that reads C's own composition matrices against the one
    # that acts through the regular bimodule over C^e, entry for entry;
    # the shifted dual numbers have no identity slot, the product's middle
    # faces are answered from its factors, and on the one object of
    # [K 0; K K] pre- and post-composition by a loop differ
    cats = assembly_categories(field)
    ws = Workspace(parse(TRIANGULAR_SOURCES["point-happel-1"]), field_override=field)
    cats["[K 0; K K]"] = one_point_extension(ws.categories["U"], ws.modules["S"])
    for name, cat in cats.items():
        got = hochschild_cochain_complex(cat, None, 4)
        want = hochschild_cochain_complex(cat, regular_bimodule(cat), 4)
        assert got.dims == want.dims, name
        for n, (mine, theirs) in enumerate(zip(got.diffs, want.diffs)):
            assert mine == theirs, (name, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_category_whose_identity_is_not_a_basis_element(field):
    # no slot is an identity slot, so every face is evaluated; the table is
    # that of the dual numbers: (2,1,1,...) off characteristic 2, 2 in
    # every degree over GF(2)
    cat = dual_numbers_shifted_basis(field)
    assert cat.id_coords("*") == (1, field.neg(1))
    env = enveloping(cat)
    reg = regular_bimodule(cat, env)
    cochain = hochschild_cohomology(cat, 4, coeff=reg)
    data = ext_data(bar_resolution(cat, 6, env=env, regular=reg), reg, 4)
    assert cochain == complex_cohomology_dims(data.dims, data.diffs, 4) == ext(reg, reg, 4)
    assert cochain == hochschild_cohomology(zoo.dual_numbers(field), 4)
    assert cochain == ([2] * 5 if field.p == 2 else [2, 1, 1, 1, 1])
