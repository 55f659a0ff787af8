"""Finite K-linear categories and the constructions on them.

A category is stored by structure constants: ordered objects, an ordered
basis for every Hom space, a composition tensor per object triple, and
identity coordinate vectors.  Conventions used throughout the package:

  * morphisms compose right-to-left: rows[(x,y,z)][i][j] holds g_j o f_i
    for f_i in Hom(x,y), g_j in Hom(y,z);
  * all orderings (objects, bases, tensor pairs) are explicit, so every
    matrix derived downstream is reproducible;
  * a category is validated where its data enters: `category_from_tables`
    rejects an invalid table, never repairing it, and the triangular
    builder checks what it builds; quotients by two-sided ideals, certified
    quivers, opposites and tensor products hold the laws by construction.

The composition tensor is kept in one sparse form only: each composite
rows[(x,y,z)][i][j] is a row {k: coefficient} with keys ascending and no
zero, the `Mat.nz` form, and the shared empty row for a zero composite.
Every constructor here writes these rows directly; dense coordinate
tables (the zoo, `.kcat` tables, tests) enter through
`category_from_tables` alone.  Validation (unit laws, associativity),
`compose` and the pre/post-composition matrices read the rows, so they cost nonzero structure constants, not dense vectors.
Entries are in the working form of `exactla` (ints where integral over
Q); `identity` gives the identity coordinates in report form (Fractions
over Q).

A tensor product category A tensor B (C^e = C^op tensor C among them)
keeps no rows at all (`rows` is None): basis index ic * dim + id pairs
the factors' bases, Hom dimensions are products of the factors', labels
are paired only when `hom_basis` is first read, composites are Kronecker
products of the factors' rows, its pre/post-composition matrices are
`kron`s of theirs, and its opposite is A^op tensor B^op.

Tensor products, opposites, enveloping categories, quotients by ideals,
triangular matrix categories and their models, and one-point extensions
are all built here.  The M of a triangular matrix category [T 0; M U] is
a (U,T)-bimodule, held like every other bimodule as a left module over a
product category, here T^op tensor U (`modcat.bimodule`); the corner
reads its slot actions.  The pipelines never build the triangular matrix
category Lambda itself: its split model `triangular_model` has one object
[T;] per object of T and one [;U] per object of U, the summands of
1 = e_T + e_U, and is Morita equivalent to Lambda.  Lambda and its model share one block
builder.
"""

from __future__ import annotations

from .exactla import (
    FieldMismatch, Mat, VerificationFailed, kron, sparse_row, vkron, vzero, dense_row,
    report_form, q_row,
)


class InvalidCategory(ValueError):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class UnknownObject(KeyError):
    pass


class NotTriangular(ValueError):
    pass


class InvalidBimodule(ValueError):
    pass


class InvalidModule(ValueError):
    pass


class ParentMismatch(ValueError):
    pass


class ValidationReport:
    """Accumulated axiom violations; empty report means the data is a
    genuine K-linear category."""

    def __init__(self):
        self.failures = []

    @property
    def ok(self):
        return not self.failures

    def fail(self, kind, where, message):
        self.failures.append((kind, where, message))

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{kind} at {where}: {msg}" for kind, where, msg in self.failures]
        return f"{len(self.failures)} violation(s):\n  " + "\n  ".join(lines)

    def __len__(self):
        return len(self.failures)


class FiniteKCategory:

    def __init__(self, field, objects, hom_basis, rows, identity,
                 product_of=None, triangular=None, paths=None):
        self.field = field
        self.objects = tuple(objects)
        self.rows = rows             # None for a product category
        self._identity = identity    # working form; `identity` reports it
        self.product_of = product_of
        self.triangular = triangular
        self.paths = paths
        self._report = None          # validate()'s report, once computed
        self._post_cache = {}
        self._pre_cache = {}
        if len(set(self.objects)) != len(self.objects) or not self.objects:
            raise InvalidCategory(_quick_report("objects", "object list empty or duplicated"))
        if product_of is None:
            self._hom_basis = {k: tuple(v) for k, v in hom_basis.items()}
            for pair in [(x, y) for x in self.objects for y in self.objects]:
                self._hom_basis.setdefault(pair, ())
            for (x, y), labels in self._hom_basis.items():
                if len(set(labels)) != len(labels):
                    raise InvalidCategory(_quick_report((x, y), "duplicate basis labels"))
            self.hom_dims = {k: len(v) for k, v in self._hom_basis.items()}
        else:
            # Hom dimensions come from the factors, labels only when read
            a, b = product_of
            self._factors = f = {pair_object(u, v): (u, v) for u in a.objects for v in b.objects}
            self._hom_basis = None
            self.hom_dims = {(o1, o2): a.dim(u1, u2) * b.dim(v1, v2)
                             for o1, (u1, v1) in f.items() for o2, (u2, v2) in f.items()}

    # -- basic accessors ---------------------------------------------------

    @property
    def hom_basis(self):
        """The basis labels of every Hom space; a product pairs its
        factors' labels, built on the first read."""
        if self._hom_basis is None:
            (a, b), f = self.product_of, self._factors
            self._hom_basis = {(o1, o2): tuple(pair_label(g, h) for g in a.hom_basis[(u1, u2)]
                                               for h in b.hom_basis[(v1, v2)])
                               for o1, (u1, v1) in f.items() for o2, (u2, v2) in f.items()}
        return self._hom_basis

    def dim(self, x, y):
        return self.hom_dims[(x, y)]

    def total_dim(self):
        return sum(self.hom_dims.values())

    @property
    def identity(self):
        """The identity coordinates of every object, in report form."""
        return {x: report_form(self.field, v) for x, v in self._identity.items()}

    def id_coords(self, x):
        """The identity coordinates of x in working form, for computing."""
        if x not in self._identity:
            raise UnknownObject(x)
        return self._identity[x]

    def basis_morphisms(self):
        """Yield (x, y, index, label) over all Hom-space bases."""
        for x in self.objects:
            for y in self.objects:
                for i, label in enumerate(self.hom_basis[(x, y)]):
                    yield x, y, i, label

    def _factor_triples(self, x, y, z):
        """The object triples of the two factors under a product triple."""
        f = self._factors
        (a, b), (a2, b2), (a3, b3) = f[x], f[y], f[z]
        return (a, a2, a3), (b, b2, b3)

    def basis_row(self, x, y, z, i, j):
        """g_j o f_i as a sparse row {k: coefficient}, never mutated.  A
        product multiplies its factors' rows: basis index ic * dim + id."""
        if self.product_of is None:
            table = self.rows.get((x, y, z))
            return EMPTY_ROW if table is None else table[i][j]
        c, d = self.product_of
        ct, dt = self._factor_triples(x, y, z)
        ic, id_ = divmod(i, d.dim(*dt[:2]))
        jc, jd = divmod(j, d.dim(*dt[1:]))
        w = d.dim(dt[0], dt[2])
        p = self.field.p
        rc = c.basis_row(*ct, ic, jc)
        rd = d.basis_row(*dt, id_, jd)
        if p:
            return {kc * w + kd: u * v % p for kc, u in rc.items() for kd, v in rd.items()}
        return q_row({kc * w + kd: u * v for kc, u in rc.items() for kd, v in rd.items()})

    def _compose_rows(self, x, y, z, f, g):
        """g o f for sparse f in Hom(x,y) and g in Hom(y,z), as a sparse row."""
        row = self.basis_row
        return _lincomb(self.field.p, ((a * b, row(x, y, z, i, j))
                                       for i, a in f.items() for j, b in g.items()))

    def compose(self, x, y, z, f_coords, g_coords):
        """Bilinear extension of the composition table, in working form."""
        f = {i: a for i, a in enumerate(f_coords) if a}
        g = {j: b for j, b in enumerate(g_coords) if b}
        return dense_row(self.field, self._compose_rows(x, y, z, f, g), self.dim(x, z))

    def _table_matrix(self, x, y, z, cells):
        """The matrix whose column c holds g_j o f_i for (i, j) = cells[c]."""
        nz = [{} for _ in range(self.dim(x, z))]
        for col, (i, j) in enumerate(cells):
            for k, v in self.basis_row(x, y, z, i, j).items():
                nz[k][col] = v
        return Mat.from_sparse(self.field, len(nz), len(cells), tuple(nz))

    def post_matrix_basis(self, x, y, z, j):
        """Matrix of (g_j o -): Hom(x,y) -> Hom(x,z); the zero matrix,
        with the factors untouched, when either Hom space is 0."""
        key = (x, y, z, j)
        m = self._post_cache.get(key)
        if m is None:
            rows, cols = self.dim(x, z), self.dim(x, y)
            if not (rows and cols):
                m = Mat.zeros(self.field, rows, cols)
            elif self.product_of is None:
                m = self._table_matrix(x, y, z, [(i, j) for i in range(cols)])
            else:
                c, d = self.product_of
                ct, dt = self._factor_triples(x, y, z)
                jc, jd = divmod(j, d.dim(*dt[1:]))
                m = kron(c.post_matrix_basis(*ct, jc), d.post_matrix_basis(*dt, jd))
            self._post_cache[key] = m
        return m

    def pre_matrix_basis(self, x, y, z, i):
        """Matrix of (- o f_i): Hom(y,z) -> Hom(x,z) for f_i in Hom(x,y);
        the zero matrix, with the factors untouched, when either Hom space
        is 0."""
        key = (x, y, z, i)
        m = self._pre_cache.get(key)
        if m is None:
            rows, cols = self.dim(x, z), self.dim(y, z)
            if not (rows and cols):
                m = Mat.zeros(self.field, rows, cols)
            elif self.product_of is None:
                m = self._table_matrix(x, y, z, [(i, j) for j in range(cols)])
            else:
                c, d = self.product_of
                ct, dt = self._factor_triples(x, y, z)
                ic, id_ = divmod(i, d.dim(*dt[:2]))
                m = kron(c.pre_matrix_basis(*ct, ic), d.pre_matrix_basis(*dt, id_))
            self._pre_cache[key] = m
        return m

    # -- validation --------------------------------------------------------

    def validate(self):
        """The axiom violations; a category does not change after
        construction, so the report is computed once and kept."""
        if self._report is None:
            self._report = self._check()
        return self._report

    def _check(self):
        report = ValidationReport()
        if self.product_of is not None:
            # A tensor B is a category exactly when A and B are
            for factor in self.product_of:
                report.failures.extend(factor.validate().failures)
            return report
        objs = self.objects
        for x in objs:
            if x not in self._identity or len(self._identity[x]) != self.dim(x, x):
                report.fail("identity", x, "missing or wrong-length identity coordinates")
        for (x, y, z), table in self.rows.items():
            if len(table) != self.dim(x, y):
                report.fail("comp-shape", (x, y, z), "wrong first index range")
                continue
            dyz, dxz = self.dim(y, z), self.dim(x, z)
            for row in table:
                if len(row) != dyz or any(k >= dxz for v in row for k in v):
                    report.fail("comp-shape", (x, y, z), "wrong table shape")
        if not report.ok:
            return report
        for x in objs:
            for y in objs:
                if (x, y, y) not in self.rows and self.dim(x, y) and self.dim(y, y):
                    report.fail("comp-missing", (x, y, y), "no composition table")
        # unit laws
        one = self.field.one()
        ids = {x: {i: a for i, a in enumerate(self._identity[x]) if a} for x in objs}
        for x, y, i, label in self.basis_morphisms():
            f = {i: one}
            if self._compose_rows(x, y, y, f, ids[y]) != f:
                report.fail("unit-left", (x, y), f"1_{y} o {label} != {label}")
            if self._compose_rows(x, x, y, ids[x], f) != f:
                report.fail("unit-right", (x, y), f"{label} o 1_{x} != {label}")
        # associativity on basis triples: h_k o (g_j o f_i) is read off
        # the rows of (x,z,w), (h_k o g_j) o f_i off those of (x,y,w)
        view = self.rows
        p = self.field.p
        after = {x: [(y, self.dim(x, y)) for y in objs if self.dim(x, y)] for x in objs}
        for x in objs:
            for y, dxy in after[x]:
                for z, dyz in after[y]:
                    gfs = view.get((x, y, z))
                    for w, dzw in after[z]:
                        hgs = view.get((y, z, w))
                        left = view.get((x, z, w))
                        right = view.get((x, y, w))
                        for i in range(dxy):
                            for j in range(dyz):
                                gf = gfs[i][j] if gfs else EMPTY_ROW
                                for k in range(dzw):
                                    hg = hgs[j][k] if hgs else EMPTY_ROW
                                    if not gf and not hg:
                                        continue
                                    lhs = _lincomb(p, ((a, left[m][k]) for m, a in gf.items())
                                                   ) if left else EMPTY_ROW
                                    rhs = _lincomb(p, ((b, right[i][n]) for n, b in hg.items())
                                                   ) if right else EMPTY_ROW
                                    if lhs != rhs:
                                        report.fail(
                                            "associativity", (x, y, z, w),
                                            f"(h o g) o f != h o (g o f) at basis ({i},{j},{k})")
        return report

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteKCategory):
            return False
        if self.product_of is not None or other.product_of is not None:
            # a product keeps no rows: its factors determine it
            return self.product_of == other.product_of
        return (self.field == other.field
                and self.objects == other.objects
                and self.hom_basis == other.hom_basis
                and self.rows == other.rows
                and self._identity == other._identity)

    __hash__ = None

    def __repr__(self):
        return (f"FiniteKCategory({len(self.objects)} objects, "
                f"total hom dim {self.total_dim()}, over {self.field})")


# the empty sparse row, shared by every zero composite; never mutated
EMPTY_ROW = {}


def _lincomb(p, terms):
    """The sum of a * row over (a, row) pairs as a sparse row, no zero kept."""
    acc = {}
    for a, row in terms:
        scaled = a != 1          # a Fraction product costs a gcd
        for k, v in row.items():
            if scaled:
                v = a * v
            if k in acc:
                acc[k] += v
            else:
                acc[k] = v
    if p:
        return {k: v % p for k, v in acc.items() if v % p}
    return q_row(acc)


def _sorted_row(row):
    """A sparse row with its keys put in ascending order; the shared empty
    row when it has none."""
    return dict(sorted(row.items())) if row else EMPTY_ROW


def _quick_report(where, message):
    r = ValidationReport()
    r.fail("structure", where, message)
    return r


# ---------------------------------------------------------------------------
# basic constructions

def unit_category(field):
    """One object '*', Hom = K with 1*1 = 1."""
    one = field.one()
    return FiniteKCategory(
        field, ("*",), {("*", "*"): ("e",)},
        {("*", "*", "*"): (({0: one},),)},
        {"*": (one,)})


def category_from_tables(field, objects, hom_basis, comp_entries, identities):
    """Build a category from dense composition data; the one place where
    dense coordinate vectors become the sparse rows a category keeps.

    comp_entries maps (x,y,z) to the coordinate vectors of g_j o f_i,
    either as a nested list [i][j] or as a dict {(i, j): vector} whose
    absent pairs compose to zero.  Missing triples compose to zero (only
    legal when that is right; validation decides).  A nested list is read
    as given, so a table of the wrong shape is reported rather than cut or
    padded.  The sparse rows keep no vector lengths, so the shape checks
    that validation makes first are made here on the dense input, vector
    lengths included, with the same failures in the same order.
    """
    hb = {k: tuple(v) for k, v in hom_basis.items()}
    ids = {x: tuple(field.of(v) for v in identities[x]) for x in objects if x in identities}
    report = ValidationReport()
    for x in objects:
        if x not in ids or len(ids[x]) != len(hb.get((x, x), ())):
            report.fail("identity", x, "missing or wrong-length identity coordinates")
    rows = {}
    for x in objects:
        for y in objects:
            dxy = len(hb.get((x, y), ()))
            if not dxy:
                continue
            for z in objects:
                dyz = len(hb.get((y, z), ()))
                if not dyz:
                    continue
                dxz = len(hb.get((x, z), ()))
                given = comp_entries.get((x, y, z), {})
                if isinstance(given, dict):
                    zero = (0,) * dxz
                    given = [[given.get((i, j), zero) for j in range(dyz)] for i in range(dxy)]
                if len(given) != dxy:
                    report.fail("comp-shape", (x, y, z), "wrong first index range")
                    continue
                for row in given:
                    if len(row) != dyz or any(len(v) != dxz for v in row):
                        report.fail("comp-shape", (x, y, z), "wrong table shape")
                rows[(x, y, z)] = tuple(tuple(sparse_row(field, v) or EMPTY_ROW for v in row)
                                        for row in given)
    if report.ok:
        cat = FiniteKCategory(field, objects, hb, rows, ids)
        report = cat.validate()
    if not report.ok:
        raise InvalidCategory(report)
    return cat


def opposite(c):
    """Same objects and labels, reversed Hom spaces and composition; the
    opposite of A tensor B is A^op tensor B^op."""
    if c.product_of is not None:
        a, b = c.product_of
        return tensor_category(opposite(a), opposite(b))
    hom = {(x, y): c.hom_basis[(y, x)] for x in c.objects for y in c.objects}
    # op-composition of f in op(x,y)=C(y,x), g in op(y,z)=C(z,y) is f o g
    rows = {(x, y, z): tuple(zip(*table)) for (z, y, x), table in c.rows.items()}
    return FiniteKCategory(c.field, c.objects, hom, rows, dict(c._identity))


def pair_object(a, b):
    return f"({a},{b})"


def pair_label(f, g):
    return f"{f}#{g}"


def tensor_category(c, d):
    """Mitchell's tensor product category: objects are pairs, Hom spaces
    are tensor products, composition is componentwise.  It keeps no
    composition table and no labels: Hom dimensions and composites are
    answered from the factors, and labels are paired when first read."""
    if c.field != d.field:
        raise FieldMismatch("tensor product over different fields")
    field = c.field
    objects = [pair_object(a, b) for a in c.objects for b in d.objects]
    identity = {pair_object(a, b): vkron(field, c.id_coords(a), d.id_coords(b))
                for a in c.objects for b in d.objects}
    return FiniteKCategory(field, objects, None, None, identity, product_of=(c, d))


def enveloping(c):
    """C^e = C^op tensor C; bimodules over C are left modules over it."""
    return tensor_category(opposite(c), c)


# ---------------------------------------------------------------------------
# quotient by a two-sided ideal

def quotient_category(c, ideal):
    """C/I, the target of the quotient functor C -> C/I.

    Hom bases of the quotient are the ideal's canonical complements of its
    spans inside the standard bases of C (`TwoSidedIdeal.complement`), so
    quotient basis labels are the surviving labels of C.  The functor is
    the ideal's own: on Hom(x,y) it is `ideal.complement(x, y).proj`, a
    functor because I is a two-sided ideal, and `modcat.restrict_module`
    pulls C/I-modules back along it.
    """
    if ideal.parent is not c and ideal.parent != c:
        raise ParentMismatch("ideal does not live in this category")
    field = c.field
    comps = {(x, y): ideal.complement(x, y) for x in c.objects for y in c.objects}
    hom = {pair: tuple(c.hom_basis[pair][i] for i in cd.free) for pair, cd in comps.items()}
    # the section sends quotient basis vector i to basis vector free[i] of
    # C, so a composite is a row of C, projected column by column
    proj_cols = {pair: cd.proj.transpose().nz for pair, cd in comps.items()}
    p = field.p
    rows = {}
    for x in c.objects:
        for y in c.objects:
            fxy = comps[(x, y)].free
            if not fxy:
                continue
            for z in c.objects:
                fyz = comps[(y, z)].free
                if not fyz:
                    continue
                cols = proj_cols[(x, z)]
                rows[(x, y, z)] = tuple(
                    tuple(_sorted_row(_lincomb(p, ((v, cols[k]) for k, v in
                                                   c.basis_row(x, y, z, fi, gj).items())))
                          for gj in fyz)
                    for fi in fxy)
    identity = {x: comps[(x, x)].proj.mul_vec(c.id_coords(x)) for x in c.objects}
    return FiniteKCategory(field, c.objects, hom, rows, identity)


# ---------------------------------------------------------------------------
# the triangular matrix category

def triangular_object(T, U):
    """[T;U], or [T;] and [;U] for the pieces of the model, whose other
    component is None."""
    return f"[{'' if T is None else T};{'' if U is None else U}]"


def triangular_blocks(info, o1, o2):
    """The dimensions (t, m, u) of the three blocks of Hom(o1, o2) in the
    category whose `triangular` metadata is info, a triangular matrix
    category or its model; a block with an absent component is
    0-dimensional."""
    (T, U), (T2, U2) = info["source"][o1], info["source"][o2]
    return (0 if T is None or T2 is None else info["t"].dim(T, T2),
            0 if T is None or U2 is None else info["m"].dims[pair_object(T, U2)],
            0 if U is None or U2 is None else info["u"].dim(U, U2))


def triangular_matrix(t, u, m):
    """The triangular matrix category with underlying (U,T)-bimodule M, a
    left module over T^op tensor U (`modcat.bimodule`).

    Objects are pairs [T;U]; Hom([T;U],[T';U']) is the direct sum of
    Hom_T(T,T'), M(U',T) and Hom_U(U,U'), composed block-triangularly
    (the corner receives m2 after t1 plus u2 acting on m1).

    This is the reference construction that tests compare the model
    against.  Its identities split, so resolving over it by whole
    representables is not minimal and grows with the degree; the
    pipelines take `triangular_model` instead.
    """
    src = {triangular_object(T, U): (T, U) for T in t.objects for U in u.objects}
    return _triangular(t, u, m, src, None)


def triangular_model(t, u, m):
    """The split model of [T 0; M U]: one object [T;] per object of T
    and one [;U] per object of U, with Hom([T;],[T';]) = T(T,T'),
    Hom([T;],[;U']) = M(U',T), Hom([;U],[;U']) = U(U,U') and
    Hom([;U],[T';]) = 0, labelled as in the triangular matrix category.

    It is the full subcategory of the idempotent completion of Lambda on
    the summands of 1 = e_T + e_U, one per isomorphism class, so it is
    Morita equivalent to Lambda: Hochschild-Mitchell cohomology and Ext
    over the enveloping category are the same on both (Loday, Cyclic
    Homology, 1.2.7; Mitchell, "Rings with several objects", 1972).
    `triangular["pieces"]` maps each object [T;U] of Lambda to its pieces
    ([T;], [;U]).
    """
    src = {triangular_object(T, None): (T, None) for T in t.objects}
    src.update({triangular_object(None, U): (None, U) for U in u.objects})
    pieces = {triangular_object(T, U): (triangular_object(T, None), triangular_object(None, U))
              for T in t.objects for U in u.objects}
    return _triangular(t, u, m, src, pieces)


def _triangular(t, u, m, src, pieces):
    """The block-triangular category on the objects src, each naming its
    components (T, U) of which either may be None.  T, U and M are
    validated already, so a category that fails validation here is an
    internal fault."""
    from .modcat import slot_action
    if t.field != u.field:
        raise FieldMismatch("triangular factors over different fields")
    t_op, m_u = m.base.product_of or (None, None)
    if m_u is not u and m_u != u:
        raise InvalidBimodule("bimodule U-factor mismatch")
    if t_op != opposite(t):
        raise InvalidBimodule("bimodule T-factor mismatch")
    field = t.field
    objects = tuple(src)
    info = {"t": t, "u": u, "m": m, "source": src, "pieces": pieces}
    blocks = {(o1, o2): triangular_blocks(info, o1, o2)
              for o1 in objects for o2 in objects}

    hom = {}
    for (o1, o2), (dt, dm, du) in blocks.items():
        (T, U), (T2, U2) = src[o1], src[o2]
        hom[(o1, o2)] = (tuple(f"t:{l}" for l in (t.hom_basis[(T, T2)] if dt else ()))
                         + tuple(f"m{k}" for k in range(dm))
                         + tuple(f"u:{l}" for l in (u.hom_basis[(U, U2)] if du else ())))

    rows = {}
    for o1 in objects:
        T, U = src[o1]
        for o2 in objects:
            T2, U2 = src[o2]
            d1t, d1m, d1u = blocks[o1, o2]
            d1 = d1t + d1m + d1u
            if not d1:
                continue
            for o3 in objects:
                T3, U3 = src[o3]
                d2t, d2m, d2u = blocks[o2, o3]
                d2 = d2t + d2m + d2u
                if not d2:
                    continue
                # the composite's blocks start at 0 (t), dct (m) and dct + dcm (u)
                dct, dcm, _ = blocks[o1, o3]
                table = [[EMPTY_ROW] * d2 for _ in range(d1)]
                for i in range(d1t):
                    # f = t-basis i, g = t-basis j
                    for j in range(d2t):
                        table[i][j] = t.basis_row(T, T2, T3, i, j)
                    # f = t-basis i, g = m-basis k: corner = m2 after t1
                    if d2m:
                        rcols = slot_action(m, True, T2, T, i, U3).transpose().nz
                        for k in range(d2m):
                            table[i][d2t + k] = _shifted(rcols[k], dct)
                # f = m-basis k, g = u-basis j: corner = u2 acting on m1
                if d1m:
                    for j in range(d2u):
                        lcols = slot_action(m, False, U2, U3, j, T).transpose().nz
                        for k in range(d1m):
                            table[d1t + k][d2t + d2m + j] = _shifted(lcols[k], dct)
                # f = u-basis i, g = u-basis j
                for i in range(d1u):
                    for j in range(d2u):
                        table[d1t + d1m + i][d2t + d2m + j] = _shifted(
                            u.basis_row(U, U2, U3, i, j), dct + dcm)
                rows[(o1, o2, o3)] = tuple(tuple(row) for row in table)
    identity = {o: ((() if T is None else t.id_coords(T)) + vzero(field, blocks[o, o][1])
                    + (() if U is None else u.id_coords(U)))
                for o, (T, U) in src.items()}
    cat = FiniteKCategory(field, objects, hom, rows, identity, triangular=info)
    if not cat.validate().ok:
        raise VerificationFailed(f"triangular construction is not a category: {cat.validate()}")
    return cat


def _shifted(row, offset):
    """A sparse row with every key moved up by offset."""
    return {k + offset: v for k, v in row.items()} if row else EMPTY_ROW


def one_point_data(u, module):
    """The T, U and M of the one-point extension of u by a left module:
    T is the unit category and M the module lifted to a (U, unit)-bimodule."""
    from .modcat import over_unit
    if module.base is not u and module.base != u:
        raise InvalidModule("module is not over the given category")
    if module.side != "left":
        raise InvalidModule("one-point extension takes a left module")
    bim = over_unit(module)
    return bim.base.product_of[0], u, bim


def one_point_extension(u, module):
    """The triangular matrix category of `one_point_data`, the reference
    construction; the `happel` pipeline takes its model."""
    return triangular_matrix(*one_point_data(u, module))
