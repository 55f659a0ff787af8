"""Exact linear algebra over Q and GF(p).

Everything downstream (structure constants, resolutions, cochain ranks)
reduces to the handful of primitives here: rank, kernel bases, solving,
and canonical complements of subspaces.  All results are deterministic:
the pivot rule is "leftmost nonzero column, topmost nonzero row", kernel
bases come out of the reduced echelon form in free-column order, and no
randomization is used anywhere.

Over GF(p) elements are plain ints in [0, p).  Over the rationals an
element is kept in working form: a Python int when it is integral and a
`Fraction` (denominator > 1) only when it is not, so the products and
sums of the kernels are int arithmetic wherever the data are integral.
Every value made here is put in that form (`Field.of`, `inv`, the
kernels' sums and products, the division by the leads in `rref`), and a
value leaves as a `Fraction` through `report_form` wherever it reaches
a report or a public accessor (`Mat.data`, `Mat.row`).

A matrix keeps its rows sparse, as dicts column -> nonzero entry,
because structure-constant blocks, cochain differentials and resolution
matrices are mostly zero: products, sums, transposes, stacks and
Kronecker products cost their nonzero entries, not their shape.  The
dense rows (`Mat.data`) are built only on request.

One sparse elimination serves both fields and starts from the matrix's
own rows: `rank` is the forward elimination alone and never builds the
reduced form, and `rref` back-reduces the same rows.  Over GF(p) the
rows are kept monic.  Over Q they are kept as primitive integer rows
(fraction-free), and `rref` divides by the leads only when it writes the
result.  GF(p) elimination and `EchelonSpace` share one sparse row
operation, r - a*q; Q keeps its fraction-free one, `_combine`.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldMismatch(ValueError):
    pass


class VerificationFailed(AssertionError):
    """A computed result failed one of the engine's own consistency checks
    (exit 3 from the command line).  An explicit raise, so `python -O`
    keeps it."""


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _q(v):
    """A rational in working form: its int when it is integral."""
    return v.numerator if v.denominator == 1 else v


def q_row(acc):
    """The nonzero entries of a sparse sum over Q, each in working form;
    an int sum needs no check beyond its class."""
    return {j: v if v.__class__ is int else _q(v) for j, v in acc.items() if v}


def report_form(field, vec):
    """A dense vector as it leaves the package: every entry a `Fraction`
    over Q; over GF(p) the ints as they are."""
    if field.p:
        return tuple(vec)
    return tuple(map(Fraction, vec))


class Field:
    """The ground field: rationals when p == 0, otherwise GF(p)."""

    __slots__ = ("p",)

    def __init__(self, p=0):
        if p != 0:
            if not (_is_prime(p) and p < 2 ** 31):
                raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {p}")
        self.p = p

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def gf(cls, p):
        if p == 0:
            raise ValueError("GF(p) needs a prime p, got 0")
        return cls(p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, value):
        """Coerce an int, Fraction or 'a/b' string to a canonical element:
        the working form over Q, an int in [0, p) over GF(p)."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.p == 0:
            if value.__class__ is int:
                return value
            return _q(Fraction(value))
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes in GF({self.p})")
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else _q(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _q(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _q(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # n/d in lowest terms inverts to d/n, an int exactly when n is 1 or -1
        n, d = a.numerator, a.denominator
        if n == 1 or n == -1:
            return n * d
        return Fraction(d, n)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


# ---------------------------------------------------------------------------
# vectors (coordinate tuples)

def vzero(field, n):
    return (field.zero(),) * n


def vadd(field, u, v):
    if field.p:
        p = field.p
        return tuple((a + b) % p for a, b in zip(u, v))
    return tuple(_q(a + b) for a, b in zip(u, v))


def vscale(field, c, v):
    if field.p:
        p = field.p
        c %= p
        return tuple(c * a % p for a in v)
    return tuple(_q(c * a) for a in v)


def vkron(field, u, v):
    """Kronecker product of coordinate vectors, u-major; over Q a zero
    factor gives 0 without a product, and an int product needs no check."""
    if field.p:
        p = field.p
        return tuple(a * b % p for a in u for b in v)
    zeros = (0,) * len(v)
    out = []
    for a in u:
        if a:
            for b in v:
                x = a * b
                out.append(x if x.__class__ is int else _q(x))
        else:
            out.extend(zeros)
    return tuple(out)


def dense_row(field, row, n):
    """The sparse row as a dense tuple of length n, in working form."""
    out = [field.zero()] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def unit_vector(field, n, i):
    one = field.one()
    zero = field.zero()
    return tuple(one if j == i else zero for j in range(n))


class Mat:
    """Immutable matrix stored by sparse rows.

    `nz` holds one dict per row, column -> entry in working form, with
    no zero stored; rows are shared between matrices and never mutated.
    `data` and `row` are the dense rows in report form (Fractions over
    Q), built on demand; `col` and `columns` hand dense columns to other
    kernels in working form.
    """

    __slots__ = ("field", "rows", "cols", "nz")

    def __init__(self, field, rows, cols, data):
        """A matrix from dense rows `data`; only nonzero entries are coerced."""
        self.field = field
        self.rows = rows
        self.cols = cols
        self.nz = tuple(sparse_row(field, row) for row in data)

    @classmethod
    def from_sparse(cls, field, rows, cols, nz):
        """A matrix from rows already in `nz` form: nonzero entries in
        working form that nothing will mutate."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.nz = nz
        return m

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = list(rows)
        if rows:
            cols = len(rows[0])
            for row in rows:
                if len(row) != cols:
                    raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(field, len(rows), cols, rows)

    @classmethod
    def from_cols(cls, field, cols, rows=None):
        cols = list(cols)
        if cols:
            rows = len(cols[0])
            for col in cols:
                if len(col) != rows:
                    raise ValueError("ragged columns")
        elif rows is None:
            rows = 0
        nz = [{} for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, x in sparse_row(field, col).items():
                nz[i][j] = x
        return cls.from_sparse(field, rows, len(cols), tuple(nz))

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls.from_sparse(field, rows, cols, ({},) * rows)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls.from_sparse(field, n, n, tuple({i: one} for i in range(n)))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def data(self):
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i):
        return report_form(self.field, dense_row(self.field, self.nz[i], self.cols))

    def col(self, j):
        z = self.field.zero()
        return tuple(r.get(j, z) for r in self.nz)

    def columns(self):
        f = self.field
        return [dense_row(f, r, self.rows) for r in self.transpose().nz]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.nz == other.nz)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.nz)))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def is_zero(self):
        return not any(self.nz)

    def mul(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrix product over different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        p = self.field.p
        b = other.nz
        out = []
        for row in self.nz:
            acc = {}
            for k, x in row.items():
                for j, y in b[k].items():
                    if j in acc:
                        acc[j] += x * y
                    else:
                        acc[j] = x * y
            if p:
                out.append({j: v % p for j, v in acc.items() if v % p})
            else:
                out.append(q_row(acc))
        return Mat.from_sparse(self.field, self.rows, other.cols, tuple(out))

    def __mul__(self, other):
        return self.mul(other)

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        if p:
            return tuple(sum(x * vec[j] for j, x in r.items()) % p for r in self.nz)
        return tuple(_q(sum(x * vec[j] for j, x in r.items() if vec[j]))
                     for r in self.nz)

    def add(self, other):
        self._same_shape(other)
        return Mat.from_sparse(self.field, self.rows, self.cols,
                               tuple(_merge(self.field, r1, r2)
                                     for r1, r2 in zip(self.nz, other.nz)))

    def sub(self, other):
        self._same_shape(other)
        return Mat.from_sparse(self.field, self.rows, self.cols,
                               tuple(_merge(self.field, r1, r2, neg=True)
                                     for r1, r2 in zip(self.nz, other.nz)))

    def scale(self, c):
        f = self.field
        c = f.of(c)
        if not c:
            return Mat.zeros(f, self.rows, self.cols)
        p = f.p
        if p:
            nz = tuple({j: c * x % p for j, x in r.items()} for r in self.nz)
        else:
            nz = tuple(q_row({j: c * x for j, x in r.items()}) for r in self.nz)
        return Mat.from_sparse(f, self.rows, self.cols, nz)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                out[j][i] = x
        return Mat.from_sparse(self.field, self.cols, self.rows, tuple(out))

    def _same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def sparse_row(field, vec):
    """The nonzero entries of a dense vector as column -> canonical value."""
    of = field.of
    out = {}
    for j, x in enumerate(vec):
        if x:
            x = of(x)
            if x:
                out[j] = x
    return out


def add_to_row(field, row, j, x):
    """row[j] += x in a sparse row, dropping the entry when it cancels."""
    x = field.add(row.get(j, 0), x)
    if x:
        row[j] = x
    else:
        row.pop(j, None)


def _merge(field, r1, r2, neg=False):
    """The sparse row r1 + r2, or r1 - r2 with `neg`; may return r1 or r2."""
    if not r2:
        return r1
    if not r1 and not neg:
        return r2
    out = dict(r1)
    for j, y in r2.items():
        add_to_row(field, out, j, field.neg(y) if neg else y)
    return out


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    field, rows = mats[0].field, mats[0].rows
    for m in mats:
        if m.rows != rows or m.field != field:
            raise ValueError("hstack shape/field mismatch")
    nz = [{} for _ in range(rows)]
    off = 0
    for m in mats:
        for out, r in zip(nz, m.nz):
            for j, x in r.items():
                out[off + j] = x
        off += m.cols
    return Mat.from_sparse(field, rows, off, tuple(nz))


def block_diag(field, mats, rows=0, cols=0):
    """Block diagonal matrix; `rows`/`cols` only matter when mats is empty."""
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, rows, cols)
    nz = []
    c0 = 0
    for m in mats:
        if c0:
            nz.extend({c0 + j: x for j, x in r.items()} for r in m.nz)
        else:
            nz.extend(m.nz)
        c0 += m.cols
    return Mat.from_sparse(field, len(nz), c0, tuple(nz))


def product(a, b):
    """a * b, or the zero matrix of its shape, with no product taken, when
    a factor is empty: no rows, no columns or no inner dimension."""
    if a.rows and a.cols and b.cols:
        return a.mul(b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} * {b.shape}")
    return Mat.zeros(a.field, a.rows, b.cols)


def kron(a, b):
    """Kronecker product, a-major: index (i,k) -> i*b.rows + k."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields")
    f = a.field
    if not (a.rows and a.cols and b.rows and b.cols):
        return Mat.zeros(f, a.rows * b.rows, a.cols * b.cols)
    p = f.p
    w = b.cols
    out = []
    for arow in a.nz:
        for brow in b.nz:
            if p:
                out.append({i * w + k: x * y % p for i, x in arow.items() for k, y in brow.items()})
            else:
                out.append(q_row({i * w + k: x * y for i, x in arow.items()
                                   for k, y in brow.items()}))
    return Mat.from_sparse(f, a.rows * b.rows, a.cols * w, tuple(out))


# ---------------------------------------------------------------------------
# elimination
#
# One forward elimination serves both fields and leaves {pivot column:
# row}, each row led by its pivot: `rank` counts the pivots, and `rref`
# back-reduces the same rows from the right.

def _sub_multiple(r, a, q, p):
    """r - a*q on sparse rows, in place on r, a row nothing else holds;
    entries reduced mod p over GF(p) (p > 0), in working form over Q
    (p == 0)."""
    for j, y in q.items():
        v = r.get(j, 0) - a * y
        if p:
            v %= p
        elif v.__class__ is not int:
            v = _q(v)
        if v:
            r[j] = v
        else:
            r.pop(j, None)


def _echelon(nz, p):
    """Sparse forward elimination of the rows `nz` of a matrix over GF(p),
    or over Q when p == 0; returns {pivot column: row}.

    Each row is reduced against the pivots found so far until its
    leftmost entry lies in a new pivot column.  Over GF(p) a pivot row is
    monic.  Over Q the elimination is fraction-free: a row is cleared of
    denominators first and a pivot row is a primitive integer vector
    (column -> nonzero int, gcd 1, lead positive), so no `Fraction` is
    built.
    """
    pivots = {}
    for row in nz:
        if not row:
            continue
        if p:
            r = dict(row)
        else:
            den = math.lcm(*[x.denominator for x in row.values()])
            if den == 1:
                r = dict(row)
            else:
                r = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
        while r:
            c = min(r)
            q = pivots.get(c)
            if q is None:
                if not p:
                    r = _primitive(r, r[c])
                elif r[c] != 1:
                    inv = pow(r[c], -1, p)
                    r = {j: v * inv % p for j, v in r.items()}
                pivots[c] = r
                break
            if p:
                _sub_multiple(r, r[c], q, p)
            else:
                r = _combine(r, q, r[c], q[c])
    return pivots


def _combine(r, q, a, b):
    """b*r - a*q with the common factor of a and b removed; a/b is the
    ratio that clears q's lead from r.  Integer rows over Q.

    When b != 1 the result is divided by the gcd of its entries.  Without
    that, a row reduced against k pivots gains the bits of each of their
    leads, quadratically in k on a dense matrix; the content-free row is
    bounded by the minors it represents, linearly in k as with Bareiss.
    """
    g = math.gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if b != 1:
        r = {j: b * v for j, v in r.items()}
    for j, y in q.items():
        v = r.get(j, 0) - a * y
        if v:
            r[j] = v
        else:
            r.pop(j, None)
    if b != 1 and r:
        g = math.gcd(*r.values())
        if g != 1:
            r = {j: v // g for j, v in r.items()}
    return r


def _primitive(r, lead):
    """r divided by the gcd of its entries, with the sign of `lead` made positive."""
    g = math.gcd(*r.values())
    if lead < 0:
        g = -g
    if g == 1:
        return r
    return {j: v // g for j, v in r.items()}


def rref(m):
    """Reduced row echelon form and pivot columns (deterministic).

    The rows of `_echelon` are back-reduced from the right, so each is
    cleared only by pivot rows that are already reduced.  Over Q this
    stays in integers, and each row is divided by its lead only when the
    result is written: an entry the lead divides stays an int."""
    p = m.field.p
    pivots = _echelon(m.nz, p)
    order = sorted(pivots)
    for c in reversed(order):
        r = pivots[c]
        hits = [j for j in r if j != c and j in pivots]
        if not hits:
            continue
        for j in hits:
            q = pivots[j]
            if p:
                _sub_multiple(r, r[j], q, p)
            else:
                r = _combine(r, q, r[j], q[j])
        if not p:
            pivots[c] = _primitive(r, r[c])
    if p:
        rows = [pivots[c] for c in order]
    else:
        rows = []
        for c in order:
            r = pivots[c]
            lead = r[c]
            if lead != 1:
                # lead > 0: an entry it divides is written as the int quotient
                r = {j: v // lead if v % lead == 0 else Fraction(v, lead)
                     for j, v in r.items()}
            rows.append(r)
    rows.extend([{}] * (m.rows - len(order)))
    return Mat.from_sparse(m.field, m.rows, m.cols, tuple(rows)), tuple(order)


def rank(m):
    """Number of pivots of the forward elimination; no reduced form is built."""
    return len(_echelon(m.nz, m.field.p))


def _free_rows(f, r, pivots, n):
    """For the RREF `r` (pivot columns `pivots`) of a matrix with n
    columns: the free columns and, for each, the row of the kernel basis
    vector it leads (1 at the free column, minus the free column of r at
    each pivot), as sparse rows indexed by free-column position."""
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    at = {j: t for t, j in enumerate(free)}
    one = f.one()
    out = [{j: one} for j in free]
    for k, pc in enumerate(pivots):
        for j, x in r.nz[k].items():
            t = at.get(j)
            if t is not None:
                out[t][pc] = f.neg(x)
    return free, out


def kernel_basis(m):
    """Columns form the canonical basis of ker(m), echelonized so that
    results are reproducible (one column per free variable, taken in
    ascending column order).  An empty matrix, with no rows or no columns,
    has every column free: its basis is the identity, with no elimination."""
    if not (m.rows and m.cols):
        return Mat.identity(m.field, m.cols)
    r, pivots = rref(m)
    _, vecs = _free_rows(m.field, r, pivots, m.cols)
    return Mat.from_sparse(m.field, len(vecs), m.cols, tuple(vecs)).transpose()


def solve(a, b):
    """Canonical particular solution of a*x = b (free variables zero),
    or None when the system is inconsistent."""
    if a.field != b.field:
        raise FieldMismatch("solve over different fields")
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    f = a.field
    if b.cols == 0:
        return Mat.zeros(f, a.cols, 0)
    n = a.cols
    r, pivots = rref(hstack([a, b]))
    if pivots and pivots[-1] >= n:
        return None
    sol = [{}] * n
    for k, pc in enumerate(pivots):
        sol[pc] = {j - n: x for j, x in r.nz[k].items() if j >= n}
    return Mat.from_sparse(f, n, b.cols, tuple(sol))


class ComplementData:
    """Canonical complement of a column span S (`span`) inside K^n.

    `proj` maps K^n onto coordinates of the complement (kernel = S), and
    `section` embeds those coordinates back as representing vectors,
    supported off the pivot coordinates.
    """

    __slots__ = ("span", "dim", "ambient", "pivots", "free", "proj", "section")

    def __init__(self, span):
        self.span = span
        f = span.field
        n = span.rows
        r, pivots = rref(span.transpose())
        free, proj = _free_rows(f, r, pivots, n)
        self.dim = len(free)
        self.ambient = n
        self.pivots = pivots
        self.free = tuple(free)
        self.proj = Mat.from_sparse(f, self.dim, n, tuple(proj))
        section = [{}] * n
        one = f.one()
        for t, j in enumerate(free):
            section[j] = {t: one}
        self.section = Mat.from_sparse(f, n, self.dim, tuple(section))


def unit_rows(span):
    """For each column t of a reduced basis, a row of it that is the unit
    row e_t: a reduced echelon basis has one at each leading entry, a
    kernel basis at each free variable.  A vector of the span has its
    coordinates there, so no elimination is needed to read them."""
    at = {}
    for j, row in enumerate(span.nz):
        if len(row) == 1 and 1 in row.values():
            at.setdefault(next(iter(row)), j)
    if len(at) != span.cols:
        raise ValueError("span basis is not reduced: no identity among its rows")
    return [at[t] for t in range(span.cols)]


def complex_cohomology_dims(space_dims, diffs, upto):
    """Cohomology dimensions of a complex given by rank counting.

    diffs[k] maps degree k to degree k+1; H^k = dim_k - rk d^k - rk d^{k-1}.
    Requires diffs[k] for k <= upto (missing trailing maps count as zero).
    """
    ranks = [rank(d) for d in diffs]
    out = []
    for k in range(upto + 1):
        h = space_dims[k]
        if k < len(ranks):
            h -= ranks[k]
        if k >= 1 and k - 1 < len(ranks):
            h -= ranks[k - 1]
        out.append(h)
    return out


class EchelonSpace:
    """A growing subspace of K^n kept in reduced echelon form.

    Used for two-sided-ideal saturation and for the module generator
    search, where membership tests and insertions alternate heavily.
    `rows` maps each pivot column to its basis row, a sparse row with
    entry 1 at the pivot and 0 at every other pivot.  The rows are
    updated in place, so none is handed out.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        """vec (dense, or a sparse row) minus its part along the pivots."""
        p = self.field.p
        if isinstance(vec, dict):
            v = dict(vec)
        elif p:
            v = {j: x % p for j, x in enumerate(vec) if x % p}
        else:
            v = q_row(dict(enumerate(vec)))
        rows = self.rows
        for pc in [j for j in v if j in rows]:
            _sub_multiple(v, v[pc], rows[pc], p)
        return v

    def contains(self, vec):
        return not self._reduce(vec)

    def copy(self):
        """An independent copy: `add` updates rows in place."""
        out = EchelonSpace(self.field, self.n)
        out.rows = {pc: dict(row) for pc, row in self.rows.items()}
        return out

    def add(self, vec):
        """Insert vec (dense, or a sparse row); returns True when the space grew."""
        f = self.field
        v = self._reduce(vec)
        if not v:
            return False
        pivot = min(v)
        inv = f.inv(v[pivot])
        v = {j: f.mul(inv, x) for j, x in v.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c:
                _sub_multiple(row, c, v, f.p)
        self.rows[pivot] = v
        return True

    def basis_matrix(self):
        """Canonical basis of the subspace as columns, in pivot order."""
        cols = [{} for _ in range(self.n)]
        for t, pc in enumerate(sorted(self.rows)):
            for j, x in self.rows[pc].items():
                cols[j][t] = x
        return Mat.from_sparse(self.field, self.n, len(self.rows), tuple(cols))
