"""Two-sided ideals of a finite K-linear category.

An ideal stores, for every Hom pair, a matrix whose columns are a
canonical (reduced-echelon) basis of the chosen subspace.  Equality of
ideals is then literal matrix equality.  The ideal a morphism v generates
is C.v.C, so generation closes each generator in one pass: its
precomposites with every basis morphism, reduced to an echelon basis,
each postcomposed with every basis morphism.
"""

from __future__ import annotations

from .exactla import ComplementData, EchelonSpace, Mat, unit_vector
from .kcat import NotTriangular, ParentMismatch, triangular_blocks


class CoordinateMismatch(ValueError):
    pass


class TwoSidedIdeal:
    """Canonical bases of the spans of an ideal of `parent`.  Every
    constructor here builds a two-sided ideal by construction, so none is
    checked; `homcat.reference.validate_ideal` is the closure test."""

    def __init__(self, parent, span):
        self.parent = parent
        self.span = {}
        for x in parent.objects:
            for y in parent.objects:
                m = span.get((x, y))
                if m is None:
                    m = Mat.zeros(parent.field, parent.dim(x, y), 0)
                self.span[(x, y)] = m
        self._complements = {}       # (x, y), or (y, x) on an opposite, -> ComplementData
        self._flipped = False
        self._quotient_dims = None

    def dim(self, x, y):
        return self.span[(x, y)].cols

    def total_dim(self):
        return sum(m.cols for m in self.span.values())

    def complement(self, x, y):
        """The canonical complement of I(x,y), built on first use: its
        basis is the Hom basis of C/I(x,y) and its projection the quotient
        functor's matrix there, so every construction on C/I reads the
        same one.  The opposite ideal shares the store."""
        key = (y, x) if self._flipped else (x, y)
        if key not in self._complements:
            self._complements[key] = ComplementData(self.span[(x, y)])
        return self._complements[key]

    @property
    def quotient_dims(self):
        """dim C/I(x,y) for every pair (x, y), the Hom dimensions of the
        quotient category, built once."""
        if self._quotient_dims is None:
            c = self.parent
            self._quotient_dims = {k: c.dim(*k) - m.cols for k, m in self.span.items()}
        return self._quotient_dims

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
    # a two-sided ideal by construction: the saturation is closed on both sides
    return TwoSidedIdeal(c, _saturate(c, seeds))


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
    return TwoSidedIdeal(c, {k: sp.basis_matrix() for k, sp in spaces.items()})


def is_idempotent(i):
    return ideal_product(i, i).span == i.span


def opposite_ideal(i, parent_op):
    """Transport spans through opposite(): I^op(x,y) = I(y,x), same
    coordinates since opposite() keeps labels and orderings."""
    span = {(x, y): i.span[(y, x)] for x in parent_op.objects for y in parent_op.objects}
    op = TwoSidedIdeal(parent_op, span)
    # the same spans, so the same complements
    op._complements, op._flipped = i._complements, not i._flipped
    return op


def triangular_ideal(lam):
    """The kernel of the projection of a triangular matrix category, or
    of its model, onto its U factor: the T-block plus the M-block in
    every Hom space."""
    info = lam.triangular
    if info is None:
        raise NotTriangular("category does not carry triangular block metadata")
    span = {}
    for o1 in lam.objects:
        for o2 in lam.objects:
            dt, dm, _ = triangular_blocks(info, o1, o2)
            total = lam.dim(o1, o2)
            cols = [unit_vector(lam.field, total, k) for k in range(dt + dm)]
            span[(o1, o2)] = Mat.from_cols(lam.field, cols, rows=total)
    # a two-sided ideal by construction: the kernel of the functor onto U
    return TwoSidedIdeal(lam, span)

