import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import homcat.exactla
from homcat.exactla import (
    ComplementData, EchelonSpace, Field, Mat,
    block_diag, hstack, kernel_basis, kron, rank, rref, solve,
)

Q = Field.rationals()
F5 = Field.gf(5)


def naive_rank(m):
    # independent oracle: plain fraction Gaussian elimination, no Bareiss
    p = m.field.p
    rows = [[Fraction(int(x) % p) if p else Fraction(x) for x in row] for row in m.data]
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p:
            inv = pow(int(rows[r][c]) % p, -1, p)
            rows[r] = [Fraction((int(x) * inv) % p) for x in rows[r]]
            for i in range(len(rows)):
                if i != r and int(rows[i][c]) % p:
                    f = int(rows[i][c]) % p
                    rows[i] = [Fraction((int(x) - f * int(y)) % p)
                               for x, y in zip(rows[i], rows[r])]
        else:
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def naive_rref(m):
    # independent oracle: plain Fraction Gauss-Jordan, reduced mod p over GF(p)
    p = m.field.p
    if p:
        def norm(x):
            return Fraction(x.numerator * pow(x.denominator, -1, p) % p)
    else:
        def norm(x):
            return x
    rows = [[Fraction(x) for x in row] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if norm(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [norm(x / lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and norm(rows[i][c]):
                f = rows[i][c]
                rows[i] = [norm(x - f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if p:
        rows = [[int(norm(x)) for x in row] for row in rows]
    return tuple(tuple(row) for row in rows), tuple(pivots)


def random_mat(field, rng, rows, cols, scale=5):
    return Mat.from_rows(field, [[rng.randrange(-scale, scale + 1) for _ in range(cols)]
                                 for _ in range(rows)])


def test_rank_trivial_cases():
    assert rank(Mat.identity(Q, 2)) == 2
    assert rank(Mat.zeros(Q, 2, 2)) == 0
    assert rank(Mat.from_rows(Q, [[1, 2], [2, 4]])) == 1


def test_kernel_trivial_cases():
    k = kernel_basis(Mat.from_rows(Q, [[1, 1]]))
    assert k.shape == (2, 1)
    assert k.col(0) == (Fraction(-1), Fraction(1))
    assert kernel_basis(Mat.identity(Q, 3)).cols == 0
    k5 = kernel_basis(Mat.from_rows(F5, [[1, 2], [2, 4]]))
    assert k5.cols == 1


def test_solve_trivial_cases():
    b = Mat.from_rows(Q, [[3], [7]])
    assert solve(Mat.identity(Q, 2), b) == b
    assert solve(Mat.from_rows(Q, [[1], [0]]), Mat.from_rows(Q, [[0], [1]])) is None
    x = solve(Mat.from_rows(F5, [[2]]), Mat.from_rows(F5, [[1]]))
    assert x.data == ((3,),)
    with pytest.raises(ValueError):
        solve(Mat.identity(Q, 2), Mat.identity(Q, 3))


def test_empty_shapes():
    z = Mat.zeros(Q, 0, 3)
    assert rank(z) == 0
    assert kernel_basis(z).cols == 3
    assert rank(Mat.zeros(Q, 3, 0)) == 0
    assert solve(Mat.zeros(Q, 2, 0), Mat.zeros(Q, 2, 1)) == Mat.zeros(Q, 0, 1)
    assert solve(Mat.zeros(Q, 2, 0), Mat.from_rows(Q, [[0], [1]])) is None


@pytest.mark.parametrize("field", [Q, F5, Field.gf(32003)])
def test_rank_properties_random(field):
    rng = random.Random(1234 + field.p)
    for _ in range(25):
        m = random_mat(field, rng, rng.randrange(0, 6), rng.randrange(0, 6))
        r = rank(m)
        assert r == rank(m.transpose())
        assert r == naive_rank(m)
        assert m.cols == r + kernel_basis(m).cols
        k = kernel_basis(m)
        if m.rows and k.cols:
            assert m.mul(k).is_zero()


@pytest.mark.parametrize("field", [Q, F5])
def test_solve_reproduces_rhs(field):
    rng = random.Random(77)
    for _ in range(25):
        a = random_mat(field, rng, rng.randrange(1, 5), rng.randrange(1, 5))
        xs = random_mat(field, rng, a.cols, 2)
        b = a.mul(xs)
        x = solve(a, b)
        assert x is not None
        assert a.mul(x) == b


def test_determinism_bit_identical():
    rng = random.Random(5)
    m = random_mat(Q, rng, 6, 7, scale=30)
    r1, p1 = rref(m)
    r2, p2 = rref(Mat.from_rows(Q, m.data))
    assert r1 == r2 and p1 == p2
    # fraction inputs go through the same integer-scaled pipeline
    m3 = m.scale(Fraction(1, 6))
    r3, p3 = rref(m3)
    assert p3 == p1


def test_rref_canonical_form():
    m = Mat.from_rows(Q, [[0, 2, 4], [1, 3, 5]])
    r, pivots = rref(m)
    assert pivots == (0, 1)
    assert r.data[0][0] == 1 and r.data[1][1] == 1 and r.data[0][1] == 0


def test_complement_data():
    span = Mat.from_cols(Q, [(1, 0, 0), (0, 1, 0)])
    comp = ComplementData(span)
    assert comp.dim == 1
    v = (Fraction(2), Fraction(3), Fraction(4))
    coords = comp.proj.mul_vec(v)
    back = comp.section.mul_vec(coords)
    # v - back must lie in the span
    diff = tuple(a - b for a, b in zip(v, back))
    assert solve(span, Mat.from_cols(Q, [diff])) is not None
    assert comp.proj.mul(comp.section) == Mat.identity(Q, 1)


def test_echelon_space():
    sp = EchelonSpace(F5, 3)
    assert sp.add((1, 2, 3))
    assert not sp.add((2, 4, 1 % 5 + 5))  # 2*(1,2,3) mod 5
    assert sp.add((0, 1, 0))
    assert sp.contains((1, 0, 3))
    assert sp.dim == 2
    assert rank(sp.basis_matrix()) == 2


def test_kron_ordering():
    a = Mat.from_rows(Q, [[1, 2]])
    b = Mat.from_rows(Q, [[3], [4]])
    k = kron(a, b)
    assert k.shape == (2, 2)
    assert k.data == ((Fraction(3), Fraction(6)), (Fraction(4), Fraction(8)))


def test_field_of_and_gf_parse():
    assert F5.of("3/2") == 3 * pow(2, -1, 5) % 5
    assert Q.of("3/2") == Fraction(3, 2)
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ZeroDivisionError):
        F5.of(Fraction(1, 5))


def test_q_values_are_made_in_working_form():
    # an int when integral, else a Fraction: never a float, a bool or a
    # Fraction with denominator 1
    for x in (Q.zero(), Q.one(), Q.of(7), Q.of("4/2"), Q.of(Fraction(6, 3)), Q.of(True)):
        assert type(x) is int
    assert Q.of("3/6") == Fraction(1, 2) and type(Q.of("3/6")) is Fraction
    for a in (1, -1, 2, -3, 10 ** 12, Fraction(1, 2), Fraction(-1, 3), Fraction(-5, 3)):
        inv = Q.inv(a)
        assert inv == 1 / Fraction(a)
        assert_working_form(Q, inv)
    for a, b in ((6, 3), (3, 6), (-4, 2), (Fraction(1, 2), Fraction(1, 4)), (1, Fraction(-1, 5))):
        q = Q.div(a, b)
        assert q == Fraction(a) / Fraction(b)
        assert_working_form(Q, q)
    assert type(Q.div(6, 3)) is int and type(Q.div(3, 6)) is Fraction
    assert type(Q.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(Q.mul(Fraction(1, 2), 2)) is int
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


# entries of the sparse differential matrices over Q: negative leads, huge
# and tiny non-integers, so that row scaling and gcd removal both matter,
# and half-integers, whose sums with each other and with ints can be ints
Q_ENTRIES = [1, -1, 2, -3, Fraction(-5, 3), 10 ** 12, Fraction(-1, 10 ** 9), Fraction(7, 2),
             Fraction(1, 2), Fraction(-3, 2)]
DIFF_FIELDS = [Q, Field.gf(2), Field.gf(3), Field.gf(32003)]


def sparse_mats(field, seed, count=40):
    """Seeded sparse matrices up to 40x30 at 3-10% density, each with
    forced dependent rows (combinations of earlier rows) and zero rows."""
    rng = random.Random(seed)
    if field.p:
        entries = [x for x in (1, 2, field.p - 1, 12345, -7) if field.of(x)]
        coeffs = [x % field.p for x in (1, -1, 2, 5) if x % field.p]
    else:
        entries = Q_ENTRIES
        coeffs = [1, -1, Fraction(-5, 3), 10 ** 12]
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 40), rng.randint(1, 30)
        density = rng.uniform(0.03, 0.10)
        data = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)]
        for i in range(rows):
            dice = rng.random()
            if dice < 0.15 and i >= 2:
                a, b = rng.sample(range(i), 2)
                ca, cb = rng.choice(coeffs), rng.choice(coeffs)
                data[i] = [ca * x + cb * y for x, y in zip(data[a], data[b])]
            elif dice < 0.25:
                data[i] = [0] * cols
        out.append(Mat.from_rows(field, data))
    return out


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=repr)
def test_sparse_elimination_matches_naive(field):
    for m in sparse_mats(field, 4100 + field.p):
        r, pivots = rref(m)
        assert (r.data, pivots) == naive_rref(m)
        assert_canonical(r)
        k = rank(m)
        assert k == naive_rank(m) == len(pivots)
        assert k == rank(m.transpose())


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=repr)
def test_rank_does_not_build_rref(field, monkeypatch):
    mats = sparse_mats(field, 4200 + field.p, count=15)
    expected = [naive_rank(m) for m in mats]

    def refuse(m):
        raise AssertionError("rank must not run the reduced echelon form")

    monkeypatch.setattr(homcat.exactla, "rref", refuse)
    assert [rank(m) for m in mats] == expected



def test_wide_sparse_gf_elimination_costs_nonzeros():
    # 20 x 100000 over GF(32003) with two nonzeros a row: a dense
    # elimination holds two million entries (16 MiB), the sparse one 40
    f = Field.gf(32003)
    rng = random.Random(4700)
    nz = tuple({j: rng.randrange(1, f.p) for j in rng.sample(range(100000), 2)}
               for _ in range(20))
    m = Mat.from_sparse(f, 20, 100000, nz)
    tracemalloc.start()
    try:
        k = rank(m)
        r, pivots = rref(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the same elimination on the columns that hold a nonzero
    used = sorted({j for row in nz for j in row})
    small = Mat.from_sparse(f, 20, len(used),
                            tuple({used.index(j): x for j, x in row.items()} for row in nz))
    small_rows, small_pivots = naive_rref(small)
    assert k == len(pivots) == naive_rank(small)
    assert pivots == tuple(used[c] for c in small_pivots)
    assert r.nz == tuple({used[c]: x for c, x in enumerate(row) if x} for row in small_rows)

def test_dense_q_entries_stay_within_hadamard_bound(monkeypatch):
    # every row of the fraction-free elimination stands for a vector of
    # minors, so no intermediate entry may outgrow Hadamard's bound on the
    # integer matrix (as with Bareiss); rows that keep the content of each
    # pivot lead they were scaled by break it by hundreds of bits
    rng = random.Random(4300)
    data = [[rng.randint(-50, 50) for _ in range(24)] for _ in range(24)]
    hadamard = math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in data)
    widest = 0
    combine = homcat.exactla._combine

    def spy(r, q, a, b):
        nonlocal widest
        out = combine(r, q, a, b)
        widest = max(widest, *map(abs, out.values()))
        return out

    monkeypatch.setattr(homcat.exactla, "_combine", spy)
    m = Mat.from_rows(Q, data)
    assert rank(m) == naive_rank(m) == 24
    assert rref(m)[0].data == naive_rref(m)[0]
    assert 0 < widest <= hadamard


@st.composite
def matrix_and_row_ops(draw):
    field = draw(st.sampled_from([Q, Field.gf(2), Field.gf(3)]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(-5, 3), Fraction(1, 7)])
    if field.p:
        entry = st.integers(0, field.p - 1)
    m = Mat.from_rows(field, draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                           min_size=rows, max_size=rows)))
    scalar = (st.sampled_from([1, -1, 2, Fraction(-5, 3), Fraction(3, 7)]) if not field.p
              else st.integers(1, field.p - 1))
    ops = draw(st.lists(st.tuples(st.sampled_from(["swap", "scale", "add"]),
                                  st.integers(0, rows - 1), st.integers(0, rows - 1),
                                  scalar), max_size=8))
    return m, ops


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_and_row_ops())
def test_rref_invariant_under_invertible_row_ops(case):
    m, ops = case
    f = m.field
    rows = [list(r) for r in m.data]
    for kind, i, j, c in ops:
        c = f.of(c)
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale":
            rows[i] = [f.mul(c, x) for x in rows[i]]
        elif i != j:
            rows[i] = [f.add(x, f.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    assert rref(Mat(f, m.rows, m.cols, tuple(map(tuple, rows)))) == rref(m)


# ---------------------------------------------------------------------------
# sparse kernels against dense oracles on `.data`

SPARSE_FIELDS = [Q, Field.gf(2), Field.gf(3), Field.gf(32003)]
SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (6, 2), (7, 7)]


def canon(field, x):
    # independent coercion: Fraction over Q, int in [0, p) over GF(p)
    x = Fraction(x)
    if field.p:
        return x.numerator * pow(x.denominator, -1, field.p) % field.p
    return x


def seeded_mat(field, rng, rows, cols, density=0.35):
    # over Q ints and half-integers meet in every product, sum and elimination
    entries = ([1, -1, 2, Fraction(-5, 3), 7, Fraction(1, 4), Fraction(1, 2), Fraction(-3, 2)]
               if not field.p else [1, 2, -1, 5, 10 ** 6])
    data = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]
    if rows > 1:
        data[rng.randrange(rows)] = [0] * cols      # a zero row
    return Mat.from_rows(field, data, cols=cols)


def assert_working_form(field, x):
    """A value as the kernels keep it: over GF(p) an int in [0, p); over Q
    an int when integral and otherwise a Fraction, never a Fraction with
    denominator 1, a float or a bool."""
    if field.p:
        assert type(x) is int and 0 <= x < field.p, x
    else:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def assert_report_form(field, values):
    """Values as they leave the package: Fractions over Q, ints over GF(p)."""
    assert all(type(x) is (int if field.p else Fraction) for x in values), values


def assert_canonical(m):
    assert len(m.nz) == m.rows
    for row in m.nz:
        for j, x in row.items():
            assert 0 <= j < m.cols
            assert_working_form(m.field, x)
            assert x != 0
    dense = Mat(m.field, m.rows, m.cols, m.data)
    assert dense == m and hash(dense) == hash(m)
    for row in m.data:
        assert_report_form(m.field, row)


def naive_mul(a, b):
    f = a.field
    return [[canon(f, sum((Fraction(a.data[i][k]) * Fraction(b.data[k][j])
                           for k in range(a.cols)), Fraction(0)))
             for j in range(b.cols)] for i in range(a.rows)]


def grid(m, data):
    return Mat.from_rows(m.field, data, cols=m.cols)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
def test_sparse_kernels_match_dense_oracle(field):
    rng = random.Random(4400 + field.p)
    f = field
    for rows, cols in SHAPES * 3:
        a = seeded_mat(f, rng, rows, cols)
        b = seeded_mat(f, rng, rows, cols)
        inner = rng.randrange(0, 5)
        c = seeded_mat(f, rng, cols, inner)
        for m in (a, b, c):
            assert_canonical(m)
        dense_a = [[canon(f, x) for x in row] for row in a.data]
        dense_b = [[canon(f, x) for x in row] for row in b.data]

        prod = a.mul(c)
        assert prod.shape == (rows, inner)
        assert prod.data == tuple(map(tuple, naive_mul(a, c)))
        # over Q the vector holds Fractions, integral ones among them
        vec = tuple(canon(f, rng.choice([0, 0, 1, -2, Fraction(3, 5) if not f.p else 4,
                                         Fraction(1, 2) if not f.p else 3]))
                    for _ in range(cols))
        assert a.mul_vec(vec) == tuple(
            canon(f, sum((Fraction(x) * Fraction(v) for x, v in zip(row, vec)), Fraction(0)))
            for row in dense_a)
        for x in a.mul_vec(vec):
            assert_working_form(f, x)

        assert a.add(b).data == tuple(tuple(canon(f, x + y) for x, y in zip(r, s))
                                      for r, s in zip(dense_a, dense_b))
        assert a.sub(b).data == tuple(tuple(canon(f, x - y) for x, y in zip(r, s))
                                      for r, s in zip(dense_a, dense_b))
        s = rng.choice([0, 2, -1, Fraction(7, 3), Fraction(2), Fraction(-1, 2)] if not f.p
                       else [0, 1, 2, f.p - 1])
        assert a.scale(s).data == tuple(tuple(canon(f, canon(f, s) * x) for x in r)
                                        for r in dense_a)
        assert a.transpose().data == tuple(tuple(r[i] for r in dense_a) for i in range(cols))
        assert Mat.from_cols(f, a.columns(), rows=rows) == a
        assert a.columns() == [a.col(j) for j in range(cols)]
        assert [a.row(i) for i in range(rows)] == list(a.data)

        assert a.sub(a).is_zero() and a.add(a.scale(-1)).is_zero()
        assert a.is_zero() == all(x == 0 for r in dense_a for x in r)
        assert Mat.zeros(f, rows, cols).data == ((f.zero(),) * cols,) * rows
        assert Mat.identity(f, cols).data == tuple(
            tuple(f.one() if i == j else f.zero() for j in range(cols)) for i in range(cols))

        assert hstack([a, b]).data == tuple(tuple(r) + tuple(s) for r, s in zip(dense_a, dense_b))
        bd = block_diag(f, [a, c, b])
        width = cols + inner + cols
        expect = [list(r) + [f.zero()] * (width - cols) for r in dense_a]
        expect += [[f.zero()] * cols + list(r) + [f.zero()] * cols for r in c.data]
        expect += [[f.zero()] * (cols + inner) + list(r) for r in dense_b]
        assert bd.data == tuple(map(tuple, expect))
        small = seeded_mat(f, rng, rng.randrange(0, 3), rng.randrange(0, 3))
        k = kron(small, c)
        assert k.data == tuple(
            tuple(canon(f, x * y) for x in sr for y in cr)
            for sr in small.data for cr in c.data)

        for m in (prod, a.add(b), a.sub(b), a.scale(s), a.transpose(),
                  hstack([a, b]), bd, k, Mat.zeros(f, rows, cols),
                  Mat.identity(f, cols)):
            assert_canonical(m)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
def test_sparse_sums_that_cancel_store_no_zero(field):
    f = field
    if f.p == 2:
        a = Mat.from_rows(f, [[1, 1, 0], [0, 1, 1]])
        assert a.add(a).is_zero() and a.add(a).nz == ({}, {})
        # 1 + 1 = 0 inside a product: (1 1) times (1 1)^T
        assert Mat.from_rows(f, [[1, 1]]).mul(Mat.from_rows(f, [[1], [1]])).nz == ({},)
    half = f.of(Fraction(1, 2)) if f.p != 2 else f.one()
    a = Mat.from_rows(f, [[half, 1, 0], [0, 0, 0]])
    b = Mat.from_rows(f, [[half, 1, 3], [0, 0, 0]])
    d = a.sub(b)
    assert d.nz == ({2: f.of(-3)} if f.of(-3) else {}, {})
    assert_canonical(d)
    # a - a inside a product: (1 -1) times (1 1)^T, and a row that cancels in mul_vec
    assert Mat.from_rows(f, [[1, -1]]).mul(Mat.from_rows(f, [[1], [1]])).nz == ({},)
    assert Mat.from_rows(f, [[1, -1]]).mul_vec((f.one(), f.one())) == (f.zero(),)
    assert_working_form(f, Mat.from_rows(f, [[1, -1]]).mul_vec((f.one(), f.one()))[0])
    # halves that add up to an int, in a sum, a product and a matrix-vector product
    s = a.add(Mat.from_rows(f, [[half, 0, 0], [0, 0, 0]]))
    assert s.data[0][:2] == (f.add(half, half), f.one())
    assert_canonical(s)
    two = Mat.from_rows(f, [[half, half]])
    assert_canonical(two.mul(Mat.from_rows(f, [[1], [1]])))
    assert_working_form(f, two.mul_vec((f.one(), f.one()))[0])
    # dense input with zeros (and, over GF(p), multiples of p) stores none of them
    m = Mat(f, 2, 3, ((0, 1, 0), (0, 0, 0)))
    assert m.nz == ({1: f.one()}, {})
    if f.p:
        assert Mat.from_rows(f, [[f.p, 2 * f.p + 1]]).nz == ({1: 1},)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
def test_elimination_results_are_canonical_sparse_rows(field):
    rng = random.Random(4500 + field.p)
    for rows, cols in SHAPES * 2:
        a = seeded_mat(field, rng, rows, cols)
        r, pivots = rref(a)
        assert (r.data, pivots) == naive_rref(a)
        k = kernel_basis(a)
        b = seeded_mat(field, rng, rows, 2)
        x = solve(a, b)
        comp = ComplementData(a)
        for m in (r, k, comp.proj, comp.section) + ((x,) if x is not None else ()):
            assert_canonical(m)
        assert a.mul(k).is_zero() and k.cols == cols - len(pivots)
        if x is not None:
            assert a.mul(x) == b
        else:
            assert rank(hstack([a, b])) > rank(a)
        assert comp.proj.mul(a).is_zero() and comp.dim == rows - rank(a)
        assert comp.proj.mul(comp.section) == Mat.identity(field, comp.dim)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
def test_echelon_space_matches_rref(field):
    rng = random.Random(4600 + field.p)
    for n in (0, 1, 4, 9):
        for count in (0, 1, 3, 8, 12):
            vecs = seeded_mat(field, rng, count, n, density=0.3)
            sp = EchelonSpace(field, n)
            for i in range(count):
                # dense rows in report form and sparse rows in working form
                sp.add(vecs.row(i) if i % 2 else vecs.nz[i])
            r, pivots = rref(vecs)
            basis = sp.basis_matrix()
            assert_canonical(basis)
            assert basis.shape == (n, len(pivots))
            assert basis.transpose().data == r.data[:len(pivots)]
            assert sp.dim == rank(vecs)
            for _ in range(5):
                probe = seeded_mat(field, rng, 1, n, density=0.4)
                if rng.random() < 0.5 and count:
                    # a combination of the inserted vectors
                    coeffs = seeded_mat(field, rng, 1, count, density=0.6)
                    probe = coeffs.mul(vecs)
                stacked = Mat.from_sparse(field, count + 1, n, vecs.nz + probe.nz)
                inside = rank(stacked) == rank(vecs)
                assert sp.contains(probe.row(0)) == inside
                assert sp.contains(probe.nz[0]) == inside


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=repr)
def test_kernel_of_an_empty_matrix_is_the_identity_without_elimination(field, monkeypatch):
    # every column of a zero matrix is free, so the canonical basis the
    # elimination route gives is the identity on the columns; an empty
    # matrix, with no rows or no columns, gets it with no rref
    want = {}
    for rows in range(4):
        for cols in range(4):
            reduced, pivots = rref(Mat.zeros(field, rows, cols))
            _, vecs = homcat.exactla._free_rows(field, reduced, pivots, cols)
            want[rows, cols] = Mat.from_sparse(field, len(vecs), cols, tuple(vecs)).transpose()
            assert want[rows, cols] == Mat.identity(field, cols)
            assert kernel_basis(Mat.zeros(field, rows, cols)) == want[rows, cols]
            # dense rows of entries that vanish in the field store nothing
            dense = Mat(field, rows, cols, [[field.p] * cols] * rows)
            assert kernel_basis(dense) == want[rows, cols]

    def refuse(m):
        raise AssertionError("an empty matrix needs no elimination")

    monkeypatch.setattr(homcat.exactla, "rref", refuse)
    for n in range(4):
        assert kernel_basis(Mat.zeros(field, 0, n)) == want[0, n]
        assert kernel_basis(Mat.zeros(field, n, 0)) == want[n, 0]
    # a matrix with rows and columns is eliminated, even a zero one
    for m in (Mat.zeros(field, 1, 2), Mat.from_rows(field, [[0, 1]])):
        with pytest.raises(AssertionError, match="no elimination"):
            kernel_basis(m)
