"""Two-sided ideals of a finite K-linear category.

An ideal stores, for every Hom pair, a matrix whose columns are a
canonical (reduced-echelon) basis of the chosen subspace.  Equality of
ideals is then literal matrix equality.  The ideal a morphism v generates
is C.v.C, so generation closes each generator in one pass: its
precomposites with every basis morphism, reduced to an echelon basis,
each postcomposed with every basis morphism.
"""

from __future__ import annotations

from .exactla import EchelonSpace, Mat, rank, solve, unit_vector
from .kcat import NotTriangular, UnknownObject, pair_object


class CoordinateMismatch(ValueError):
    pass


class ParentMismatch(ValueError):
    pass


class InvalidIdeal(ValueError):
    pass


class TwoSidedIdeal:

    def __init__(self, parent, span, check=True):
        self.parent = parent
        self.span = {}
        for x in parent.objects:
            for y in parent.objects:
                m = span.get((x, y))
                if m is None:
                    m = Mat.zeros(parent.field, parent.dim(x, y), 0)
                self.span[(x, y)] = m
        if check:
            self.validate()

    def dim(self, x, y):
        return self.span[(x, y)].cols

    def total_dim(self):
        return sum(m.cols for m in self.span.values())

    def validate(self):
        c = self.parent
        for (x, y), m in self.span.items():
            if m.rows != c.dim(x, y):
                raise InvalidIdeal(f"span at ({x},{y}) has wrong ambient dimension")
            if m.cols and rank(m) != m.cols:
                raise InvalidIdeal(f"span at ({x},{y}) is not a reduced basis")
        # closure under both-sided composition with basis morphisms
        for (x, y), m in self.span.items():
            if not m.cols:
                continue
            for col in m.columns():
                for z in c.objects:
                    for j in range(c.dim(y, z)):
                        g = unit_vector(c.field, c.dim(y, z), j)
                        gf = c.compose(x, y, z, col, g)
                        if not self._contains(x, z, gf):
                            raise InvalidIdeal(
                                f"not closed under postcomposition at ({x},{y})->({x},{z})")
                for w in c.objects:
                    for j in range(c.dim(w, x)):
                        h = unit_vector(c.field, c.dim(w, x), j)
                        fh = c.compose(w, x, y, h, col)
                        if not self._contains(w, y, fh):
                            raise InvalidIdeal(
                                f"not closed under precomposition at ({x},{y})->({w},{y})")
        return True

    def _contains(self, x, y, vec):
        if all(v == self.parent.field.zero() for v in vec):
            return True
        m = self.span[(x, y)]
        if not m.cols:
            return False
        target = Mat.from_cols(self.parent.field, [vec], rows=m.rows)
        return solve(m, target) is not None

    def __eq__(self, other):
        return (isinstance(other, TwoSidedIdeal)
                and self.parent == other.parent
                and self.span == other.span)

    __hash__ = None

    def __repr__(self):
        dims = {k: v.cols for k, v in self.span.items() if v.cols}
        return f"TwoSidedIdeal(total dim {self.total_dim()}, {dims})"


def _saturate(c, seeds):
    """Canonical bases of the smallest two-sided ideal containing the seeds.

    The ideal generated by v in C(x,y) is C.v.C: per w, the products v o h
    over basis morphisms h: w -> x are reduced to an echelon basis, and
    only that basis is postcomposed with the basis morphisms g: y -> z.
    A seed already inside the spans, which form an ideal, adds nothing.
    """
    f = c.field
    spaces = {(x, y): EchelonSpace(f, c.dim(x, y))
              for x in c.objects for y in c.objects}
    for x, y, vec in seeds:
        if spaces[(x, y)].contains(vec):
            continue
        for w in c.objects:
            left = EchelonSpace(f, c.dim(w, y))
            for i in range(c.dim(w, x)):
                left.add(c.pre_matrix_basis(w, x, y, i).mul_vec(vec))
            for u in left.basis_matrix().columns():
                for z in c.objects:
                    for j in range(c.dim(y, z)):
                        spaces[(w, z)].add(c.post_matrix_basis(w, y, z, j).mul_vec(u))
    return {key: sp.basis_matrix() for key, sp in spaces.items()}


def ideal_from_generators(c, gens):
    """Smallest two-sided ideal containing the generators.

    gens: iterable of (x, y, coordinate vector in Hom(x,y))."""
    seeds = []
    for x, y, coords in gens:
        if x not in c.objects or y not in c.objects:
            raise CoordinateMismatch(f"unknown objects ({x},{y})")
        if len(coords) != c.dim(x, y):
            raise CoordinateMismatch(
                f"generator at ({x},{y}) has length {len(coords)}, expected {c.dim(x, y)}")
        seeds.append((x, y, tuple(c.field.of(v) for v in coords)))
    return TwoSidedIdeal(c, _saturate(c, seeds))


def zero_ideal(c):
    return TwoSidedIdeal(c, {}, check=False)


def whole_ideal(c):
    span = {(x, y): Mat.identity(c.field, c.dim(x, y))
            for x in c.objects for y in c.objects}
    return TwoSidedIdeal(c, span, check=False)


def ideal_product(i, j):
    """The ideal I*J spanned by g o f over all middle objects
    (f in J(x,y), g in I(y,z))."""
    if i.parent is not j.parent and i.parent != j.parent:
        raise ParentMismatch("ideal product over different parents")
    c = i.parent
    spaces = {(x, y): EchelonSpace(c.field, c.dim(x, y))
              for x in c.objects for y in c.objects}
    for x in c.objects:
        for y in c.objects:
            jm = j.span[(x, y)]
            if not jm.cols:
                continue
            for z in c.objects:
                im = i.span[(y, z)]
                if not im.cols:
                    continue
                for f in jm.columns():
                    for g in im.columns():
                        spaces[(x, z)].add(c.compose(x, y, z, f, g))
    # a two-sided ideal by construction: I and J absorb composition on either side
    return TwoSidedIdeal(c, {k: sp.basis_matrix() for k, sp in spaces.items()}, check=False)


def is_idempotent(i):
    return ideal_product(i, i).span == i.span


def opposite_ideal(i, parent_op):
    """Transport spans through opposite(): I^op(x,y) = I(y,x), same
    coordinates since opposite() keeps labels and orderings."""
    span = {(x, y): i.span[(y, x)] for x in parent_op.objects for y in parent_op.objects}
    return TwoSidedIdeal(parent_op, span, check=False)


def triangular_ideal(lam):
    """The kernel of the projection of a triangular matrix category onto
    its U factor: the T-block plus the M-block in every Hom space."""
    info = lam.triangular
    if info is None:
        raise NotTriangular("category does not carry triangular block metadata")
    t, u, m, src = info["t"], info["u"], info["m"], info["source"]
    span = {}
    for o1 in lam.objects:
        T, U = src[o1]
        for o2 in lam.objects:
            T2, U2 = src[o2]
            dt = t.dim(T, T2)
            dm = m.dims[pair_object(T, U2)]
            total = lam.dim(o1, o2)
            cols = [unit_vector(lam.field, total, k) for k in range(dt + dm)]
            span[(o1, o2)] = Mat.from_cols(lam.field, cols, rows=total)
    return TwoSidedIdeal(lam, span)


def representable_ideal_module(i, x):
    """The left module y -> I(x,y) with postcomposition action.

    The action is C's postcomposition restricted to the spans, solved
    wherever the span at the source is nonzero, even into an empty span:
    a failed solve means the spans are not closed, and a submodule of the
    functorial C(x,-) needs no functoriality check of its own."""
    from .modcat import CatModule, live_morphisms
    c = i.parent
    if x not in c.objects:
        raise UnknownObject(x)
    dims = {y: i.span[(x, y)].cols for y in c.objects}
    act = {}
    for y, z, g_idx in live_morphisms(c, dims):
        post = c.post_matrix_basis(x, y, z, g_idx)
        restricted = solve(i.span[(x, z)], post.mul(i.span[(x, y)]))
        if restricted is None:
            raise InvalidIdeal("ideal spans are not closed under postcomposition")
        if dims[z]:
            act[(y, z, g_idx)] = restricted
    return CatModule(c, "left", dims, act, check=False)
