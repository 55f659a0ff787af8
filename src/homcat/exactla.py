"""Exact linear algebra over Q and GF(p).

Everything downstream (structure constants, resolutions, cochain ranks)
reduces to the handful of primitives here: rank, kernel bases, solving,
and canonical complements of subspaces.  All results are deterministic:
the pivot rule is "leftmost nonzero column, topmost nonzero row", kernel
bases come out of the reduced echelon form in free-column order, and no
randomization is used anywhere.

Elements are `Fraction` over the rationals and plain ints in [0, p) over
GF(p); matrices are dense tuples of rows.  Over Q, elimination works on
sparse rows (column -> value), since cochain and resolution matrices are
mostly zero, and is fraction-free on primitive integer rows: `rank` is
the forward elimination alone and never builds the reduced form, and
`rref` back-reduces in integers as well, dividing by the leads only when
it writes the result.  Over GF(p), `rank` and `rref` share one dense
Gauss-Jordan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress


class FieldMismatch(ValueError):
    pass


class ContainmentViolation(ValueError):
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

    @property
    def kind(self):
        return "rationals" if self.p == 0 else "prime-field"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else f"GF({self.p})"

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def of(self, value):
        """Coerce an int, Fraction or 'a/b' string to a canonical element."""
        if isinstance(value, str):
            value = Fraction(value)
        if self.p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes in GF({self.p})")
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a

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
    return tuple(a + b for a, b in zip(u, v))


def vscale(field, c, v):
    if field.p:
        p = field.p
        c %= p
        return tuple(c * a % p for a in v)
    return tuple(c * a for a in v)


def vkron(field, u, v):
    """Kronecker product of coordinate vectors, u-major."""
    if field.p:
        p = field.p
        return tuple(a * b % p for a in u for b in v)
    return tuple(a * b for a in u for b in v)


def unit_vector(field, n, i):
    one = field.one()
    zero = field.zero()
    return tuple(one if j == i else zero for j in range(n))


class Mat:
    """Immutable dense matrix; `data` is a tuple of row tuples."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = [tuple(field.of(x) for x in row) for row in rows]
        if rows:
            cols = len(rows[0])
            for row in rows:
                if len(row) != cols:
                    raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(field, len(rows), cols, tuple(rows))

    @classmethod
    def from_cols(cls, field, cols, rows=None):
        cols = [tuple(field.of(x) for x in col) for col in cols]
        if cols:
            rows = len(cols[0])
            for col in cols:
                if len(col) != rows:
                    raise ValueError("ragged columns")
        elif rows is None:
            rows = 0
        data = tuple(tuple(col[i] for col in cols) for i in range(rows))
        return cls(field, rows, len(cols), data)

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field, n):
        one, z = field.one(), field.zero()
        return cls(field, n, n, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def to_lists(self):
        return [list(r) for r in self.data]

    def is_zero(self):
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def mul(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrix product over different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        p = self.field.p
        bt = list(zip(*other.data)) if other.data else [()] * other.cols
        if other.rows == 0:
            return Mat.zeros(self.field, self.rows, other.cols)
        if p:
            data = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % p for col in bt)
                for row in self.data)
        else:
            data = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.data)
        return Mat(self.field, self.rows, other.cols, data)

    def __mul__(self, other):
        return self.mul(other)

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        if p:
            return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.data)
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def add(self, other):
        self._same_shape(other)
        f = self.field
        return Mat(f, self.rows, self.cols,
                   tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def sub(self, other):
        self._same_shape(other)
        f = self.field
        return Mat(f, self.rows, self.cols,
                   tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def neg(self):
        f = self.field
        return Mat(f, self.rows, self.cols,
                   tuple(tuple(f.neg(a) for a in r) for r in self.data))

    def scale(self, c):
        f = self.field
        c = f.of(c)
        return Mat(f, self.rows, self.cols,
                   tuple(tuple(f.mul(c, a) for a in r) for r in self.data))

    def transpose(self):
        return Mat(self.field, self.cols, self.rows,
                   tuple(zip(*self.data)) if self.data else tuple(() for _ in range(self.cols)))

    def _same_shape(self, other):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def hstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    field, rows = mats[0].field, mats[0].rows
    for m in mats:
        if m.rows != rows or m.field != field:
            raise ValueError("hstack shape/field mismatch")
    data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
    return Mat(field, rows, sum(m.cols for m in mats), data)


def vstack(mats):
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    field, cols = mats[0].field, mats[0].cols
    for m in mats:
        if m.cols != cols or m.field != field:
            raise ValueError("vstack shape/field mismatch")
    return Mat(field, sum(m.rows for m in mats), cols,
               tuple(row for m in mats for row in m.data))


def block_diag(field, mats, rows=0, cols=0):
    """Block diagonal matrix; `rows`/`cols` only matter when mats is empty."""
    mats = list(mats)
    if not mats:
        return Mat.zeros(field, rows, cols)
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    z = field.zero()
    grid = [[z] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            grid[r0 + i][c0:c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return Mat(field, total_r, total_c, tuple(tuple(r) for r in grid))


def kron(a, b):
    """Kronecker product, a-major: index (i,k) -> i*b.rows + k."""
    if a.field != b.field:
        raise FieldMismatch("mixed fields")
    f = a.field
    p = f.p
    out = []
    for arow in a.data:
        for brow in b.data:
            if p:
                out.append(tuple(x * y % p for x in arow for y in brow))
            else:
                out.append(tuple(x * y for x in arow for y in brow))
    return Mat(f, a.rows * b.rows, a.cols * b.cols, tuple(out))


# ---------------------------------------------------------------------------
# elimination

def _rref_gf(rows, p):
    """In-place RREF over GF(p); returns pivot column list."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return pivots


def _echelon(data):
    """Sparse fraction-free forward elimination of the rows of `data` over
    Q; returns {pivot column: row}, each row a primitive integer vector
    (column -> nonzero int, gcd 1, lead positive) led by its pivot.

    Each row is cleared of denominators and reduced against the pivots
    found so far until its leftmost entry lies in a new pivot column, so
    no `Fraction` is built.
    """
    pivots = {}
    cols = range(len(data[0]) if data else 0)
    for row in data:
        nz = list(compress(cols, row))
        den = math.lcm(*[row[j].denominator for j in nz]) if nz else 1
        r = {j: row[j].numerator * (den // row[j].denominator) for j in nz}
        while r:
            c = min(r)
            q = pivots.get(c)
            if q is None:
                pivots[c] = _primitive(r, r[c])
                break
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


def _rref_q(m):
    """RREF rows and pivots over Q: `_echelon`, then back-reduction from
    the right in integers; each row is divided by its lead only at the end."""
    pivots = _echelon(m.data)
    order = sorted(pivots)
    for c in reversed(order):
        r = pivots[c]
        hits = [j for j in r if j != c and j in pivots]
        if hits:
            for j in hits:
                q = pivots[j]
                r = _combine(r, q, r[j], q[j])
            pivots[c] = _primitive(r, r[c])
    zero = Fraction(0)
    rows = []
    for c in order:
        r = pivots[c]
        lead = r[c]
        row = [zero] * m.cols
        for j, v in r.items():
            row[j] = Fraction(v, lead)
        rows.append(tuple(row))
    rows.extend([(zero,) * m.cols] * (m.rows - len(order)))
    return tuple(rows), tuple(order)


def rref(m):
    """Reduced row echelon form and pivot columns (deterministic)."""
    if m.field.p:
        rows = [list(r) for r in m.data]
        pivots = tuple(_rref_gf(rows, m.field.p))
        data = tuple(tuple(r) for r in rows)
    else:
        data, pivots = _rref_q(m)
    return Mat(m.field, m.rows, m.cols, data), pivots


def rank(m):
    """Number of pivots; over Q from the forward elimination alone."""
    p = m.field.p
    if p:
        return len(_rref_gf([list(r) for r in m.data], p))
    return len(_echelon(m.data))


def kernel_basis(m):
    """Columns form the canonical basis of ker(m), echelonized so that
    results are reproducible (one column per free variable, taken in
    ascending column order)."""
    r, pivots = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    f = m.field
    one, zero = f.one(), f.zero()
    cols = []
    for j in free:
        v = [zero] * m.cols
        v[j] = one
        for k, pc in enumerate(pivots):
            v[pc] = f.neg(r.data[k][j])
        cols.append(tuple(v))
    return Mat.from_cols(f, cols, rows=m.cols)


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
    aug = hstack([a, b])
    r, pivots = rref(aug)
    for pc in pivots:
        if pc >= a.cols:
            return None
    zero = f.zero()
    sol = [[zero] * b.cols for _ in range(a.cols)]
    for k, pc in enumerate(pivots):
        sol[pc] = list(r.data[k][a.cols:])
    return Mat(f, a.cols, b.cols, tuple(tuple(row) for row in sol))


def subquotient_dim(span_a, span_b):
    """dim(A/B) for column spans with B contained in A (containment checked)."""
    if span_a.field != span_b.field:
        raise FieldMismatch("spans over different fields")
    if span_a.rows != span_b.rows:
        raise ValueError("spans live in different ambient spaces")
    ra = rank(span_a)
    if span_b.cols:
        if rank(hstack([span_a, span_b])) != ra:
            raise ContainmentViolation("second span is not contained in the first")
    return ra - rank(span_b)


class ComplementData:
    """Canonical complement of a column span S inside K^n.

    `proj` maps K^n onto coordinates of the complement (kernel = S),
    `section` embeds those coordinates back as representing vectors,
    and `reduce` sends v to its canonical representative v - s, s in S,
    supported off the pivot coordinates.
    """

    __slots__ = ("dim", "ambient", "pivots", "free", "proj", "section", "_rref_rows")

    def __init__(self, span):
        f = span.field
        n = span.rows
        r, pivots = rref(span.transpose())
        free = [j for j in range(n) if j not in pivots]
        self.dim = len(free)
        self.ambient = n
        self.pivots = pivots
        self.free = tuple(free)
        zero, one = f.zero(), f.one()
        proj = []
        for fi in free:
            row = [zero] * n
            row[fi] = one
            for k, pc in enumerate(pivots):
                row[pc] = f.neg(r.data[k][fi])
            proj.append(tuple(row))
        self.proj = Mat(f, self.dim, n, tuple(proj))
        self.section = Mat.from_cols(f, [unit_vector(f, n, fi) for fi in free], rows=n)
        self._rref_rows = r


def column_space_basis(m):
    """Canonical (reduced-echelon) basis of the column space."""
    sp = EchelonSpace(m.field, m.rows)
    for j in range(m.cols):
        sp.add(m.col(j))
    return sp.basis_matrix()


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

    Used for two-sided-ideal saturation and for greedy module generator
    searches, where membership tests and insertions alternate heavily.
    """

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec):
        f = self.field
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                for j in range(self.n):
                    v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def contains(self, vec):
        zero = self.field.zero()
        return all(x == zero for x in self._reduce(vec))

    def add(self, vec):
        """Insert vec; returns True when the space grew."""
        f = self.field
        v = self._reduce(vec)
        pivot = None
        for j in range(self.n):
            if v[j]:
                pivot = j
                break
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pivot:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, pivot)
        return True

    def basis_matrix(self):
        """Canonical basis of the subspace as columns."""
        return Mat.from_cols(self.field, [tuple(r) for r in self.rows], rows=self.n)
