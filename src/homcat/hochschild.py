"""The standard (bar) resolution and Hochschild-Mitchell cohomology.

Degree-n cochains live on composable chains q_1 -> ... -> q_{n+1} of
objects, those with every C(q_i,q_{i+1}) nonzero (Mitchell, "Rings with
several objects", 1972): the component at a chain is
Hom_K(C(q_1,q_2) x ... x C(q_n,q_{n+1}), X(q_1,q_{n+1})) for a bimodule
coefficient X, and every other object tuple contributes nothing.  This
is the reduced model obtained from Hom out of the standard resolution by
the hom-tensor adjunction; the bimodule terms themselves are only
materialized at low degree, for the oracle cross-checks.

The differential composes adjacent tensor slots with alternating signs;
the outer two slots act on the coefficient through the enveloping
category action, looked up once per basis morphism and far object in
each build.  The unnormalized complex is used throughout (identity
tensor factors are not stripped).  Chains are enumerated in
lexicographic object order so all matrices are reproducible.
"""

from __future__ import annotations

from itertools import product as iproduct

from .exactla import (Mat, add_to_row, complex_cohomology_dims, kernel_basis, unit_vector,
                      vkron)
from .kcat import enveloping, pair_object
from .modcat import BaseMismatch, FreeResolution, regular_bimodule, slot_action


class InvalidCoefficient(BaseMismatch):
    pass


class BarTerm:
    """Dimension summary of one bar term: per-tuple inner dimensions and
    the total dimension as a bimodule."""

    def __init__(self, degree, tuples, total):
        self.degree = degree
        self.tuples = tuples          # list of (tuple, inner_dim, bimodule_dim)
        self.total = total

    def __repr__(self):
        return f"BarTerm(degree={self.degree}, total={self.total})"


class CochainComplex:

    def __init__(self, field, dims, diffs):
        self.field = field
        self.dims = list(dims)        # degrees 0..L
        self.diffs = list(diffs)      # diffs[n]: dims[n] -> dims[n+1]

    def verify_dd(self):
        """Indices n with d^{n+1} o d^n != 0 (empty = complex)."""
        bad = []
        for n in range(len(self.diffs) - 1):
            if not self.diffs[n + 1].mul(self.diffs[n]).is_zero():
                bad.append(n)
        return bad

    def cohomology(self, upto):
        if upto >= len(self.diffs):
            raise ValueError("complex too short for the requested degree")
        return complex_cohomology_dims(self.dims, self.diffs, upto)


def _chains(c, n):
    """Composable chains q_1 -> ... -> q_{n+1}, every C(q_i,q_{i+1})
    nonzero, in lexicographic object order."""
    chains = [(x,) for x in c.objects]
    for _ in range(n):
        chains = [ch + (y,) for ch in chains for y in c.objects if c.dim(ch[-1], y)]
    return chains


def _inner_basis(c, tup):
    """Index tuples for the basis of C(q_1,q_2) x ... x C(q_n,q_{n+1})."""
    ranges = [range(c.dim(tup[i], tup[i + 1])) for i in range(len(tup) - 1)]
    return list(iproduct(*ranges))


def bar_dims(c, max_deg):
    """Dimension summaries of the bar terms, nothing materialized."""
    out = []
    for n in range(max_deg + 1):
        tuples = []
        total = 0
        for tup in _chains(c, n):
            inner = 1
            for i in range(n):
                inner *= c.dim(tup[i], tup[i + 1])
            bim = 0
            for c1 in c.objects:
                for c2 in c.objects:
                    bim += c.dim(c1, tup[0]) * inner * c.dim(tup[-1], c2)
            tuples.append((tup, inner, bim))
            total += bim
        out.append(BarTerm(n, tuples, total))
    return out


def bar_resolution(c, length, env=None, regular=None):
    """The standard resolution, materialized as a free resolution over
    the enveloping category (generator objects are the outer pairs)."""
    if env is None:
        env = enveloping(c)
    if regular is None:
        regular = regular_bimodule(c, env)
    gens = []
    images = []
    layouts = []      # per degree: list of (tuple, inner index tuple)
    for n in range(length + 1):
        layout = []
        for tup in _chains(c, n):
            for w in _inner_basis(c, tup):
                layout.append((tup, w))
        layouts.append(layout)
        gens.append([pair_object(tup[0], tup[-1]) for tup, _ in layout])
    # augmentation: generator (p,) at object (p,p) maps to 1_p in C(p,p)
    images.append([c.id_coords(tup[0]) for tup, _ in layouts[0]])
    res = FreeResolution(env, regular, gens, images)
    for n in range(1, length + 1):
        prev_index = {key: j for j, key in enumerate(layouts[n - 1])}
        images.append([_bar_differential_image(c, env, res, n, tup, w, prev_index)
                       for tup, w in layouts[n]])
    return res


def _bar_differential_image(c, env, res, n, tup, w, index_of):
    """Image of the generator (tup, w) of S_n under d_n, as a vector in
    S_{n-1} evaluated at the outer pair of tup; `index_of` numbers the
    generators (tuple, inner index) of S_{n-1}."""
    field = c.field
    y = pair_object(tup[0], tup[-1])
    # P_{n-1}(y) basis: for each previous generator j at object x_j, the
    # basis of env(x_j, y)
    gen_objs = res.gens[n - 1]
    dim_total = sum(env.dim(x, y) for x in gen_objs)
    vec = [field.zero()] * dim_total
    offsets = []
    off = 0
    for x in gen_objs:
        offsets.append(off)
        off += env.dim(x, y)

    def add(j, coords, scale):
        base = offsets[j]
        for t, a in enumerate(coords):
            if a:
                vec[base + t] = field.add(vec[base + t], field.mul(scale, a))

    # i = 0: first inner morphism becomes the outer-left component
    sub_tup = tup[1:]
    sub_w = w[1:]
    j = index_of[(sub_tup, sub_w)]
    f1 = unit_vector(field, c.dim(tup[0], tup[1]), w[0])
    coords = vkron(field, f1, c.id_coords(tup[-1]))
    add(j, coords, field.one())
    # 1 <= i <= n-1: compose adjacent inner morphisms
    for i in range(1, n):
        s = field.one() if i % 2 == 0 else field.neg(field.one())
        comp = c.basis_row(tup[i - 1], tup[i], tup[i + 1], w[i - 1], w[i])
        new_tup = tup[:i] + tup[i + 1:]
        outer = vkron(field, c.id_coords(tup[0]), c.id_coords(tup[-1]))
        for h, a in comp.items():
            new_w = w[:i - 1] + (h,) + w[i + 1:]
            j = index_of[(new_tup, new_w)]
            add(j, outer, s)
    # i = n: last inner morphism becomes the outer-right component
    s = field.one() if n % 2 == 0 else field.neg(field.one())
    sub_tup = tup[:-1]
    sub_w = w[:-1]
    j = index_of[(sub_tup, sub_w)]
    fn = unit_vector(field, c.dim(tup[-2], tup[-1]), w[-1])
    coords = vkron(field, c.id_coords(tup[0]), fn)
    add(j, coords, s)
    return tuple(vec)


# ---------------------------------------------------------------------------
# the reduced cochain complex

class _Layout:

    def __init__(self, c, coeff, n):
        self.components = []   # (chain, inner basis list, coeff obj, coeff dim, offset)
        self.index = {}        # chain -> (offset, coeff dim, inner index tuple -> position)
        off = 0
        for tup in _chains(c, n):
            inner = _inner_basis(c, tup)
            cobj = pair_object(tup[0], tup[-1])
            cdim = coeff.dims[cobj]
            self.components.append((tup, inner, cobj, cdim, off))
            self.index[tup] = (off, cdim, {w: k for k, w in enumerate(inner)})
            off += len(inner) * cdim
        self.dim = off

    def offset(self, tup, w):
        off, cdim, pos = self.index[tup]
        return off + pos[w] * cdim


def hochschild_cochain_complex(c, coeff, max_deg):
    """Cochain spaces and differentials with bimodule coefficients, for
    degrees 0..max_deg+1 (so cohomology is available through max_deg)."""
    if coeff.side != "left":
        raise InvalidCoefficient("coefficient must be a left module over the enveloping category")
    env = coeff.base
    if env.product_of is None:
        raise InvalidCoefficient("coefficient base is not an enveloping category")
    for x in c.objects:
        if pair_object(x, x) not in env.objects:
            raise InvalidCoefficient("coefficient does not match the category's enveloping")
    field = c.field
    layouts = [_Layout(c, coeff, n) for n in range(max_deg + 2)]
    acts = {}

    def outer(first, x, y, i, far):
        """Nonzero (row, col, value) entries of basis morphism i of C(x,y)
        acting in the first (contravariant) or last slot, with 1_far in
        the other."""
        key = (first, x, y, i, far)
        if key not in acts:
            # the first slot is C^op, where C(x,y) is C^op(y,x)
            a, b = (y, x) if first else (x, y)
            mat = slot_action(coeff, first, a, b, i, far)
            acts[key] = [(r, s, a) for r, row in enumerate(mat.nz)
                         for s, a in row.items()]
        return acts[key]

    diffs = []
    for n in range(max_deg + 1):
        src = layouts[n]
        tgt = layouts[n + 1]
        grid = [{} for _ in range(tgt.dim)]
        last_sign = field.one() if (n + 1) % 2 == 0 else field.neg(field.one())
        for tup, inner, cobj, cdim, toff in tgt.components:
            if cdim == 0:
                continue
            for wi, w in enumerate(inner):
                row0 = toff + wi * cdim
                # term 0: f_1 moves onto the coefficient through the
                # contravariant slot
                col0 = src.offset(tup[1:], w[1:])
                for r, s, a in outer(True, tup[0], tup[1], w[0], tup[-1]):
                    add_to_row(field, grid[row0 + r], col0 + s, a)
                # middle terms: compose adjacent inner slots; a nonzero
                # composite leaves a composable chain
                for i in range(1, n + 1):
                    sign = field.one() if i % 2 == 0 else field.neg(field.one())
                    comp = c.basis_row(tup[i - 1], tup[i], tup[i + 1], w[i - 1], w[i])
                    new_tup = tup[:i] + tup[i + 1:]
                    for h, a in comp.items():
                        col0 = src.offset(new_tup, w[:i - 1] + (h,) + w[i + 1:])
                        a = field.mul(sign, a)
                        for r in range(cdim):
                            add_to_row(field, grid[row0 + r], col0 + r, a)
                # last term: f_{n+1} acts through the covariant slot
                col0 = src.offset(tup[:-1], w[:-1])
                for r, s, a in outer(False, tup[-2], tup[-1], w[-1], tup[0]):
                    add_to_row(field, grid[row0 + r], col0 + s, field.mul(last_sign, a))
        diffs.append(Mat.from_sparse(field, tgt.dim, src.dim, tuple(grid)))
    return CochainComplex(field, [l.dim for l in layouts], diffs)


def hochschild_cohomology(c, max_deg=4, coeff=None, env=None):
    """H^0..H^max_deg with regular coefficients (or any given bimodule)."""
    if coeff is None:
        coeff = regular_bimodule(c, env)
    complex_ = hochschild_cochain_complex(c, coeff, max_deg)
    return complex_.cohomology(max_deg)


def center(c):
    """Families (z_x in C(x,x)) commuting with every basis morphism; the
    dimension equals H^0 with regular coefficients."""
    field = c.field
    offsets = {}
    total = 0
    for x in c.objects:
        offsets[x] = total
        total += c.dim(x, x)
    rows = []
    for x in c.objects:
        for y in c.objects:
            dxy = c.dim(x, y)
            if not dxy:
                continue
            for i in range(dxy):
                # z_y o f - f o z_x = 0 as linear conditions on z, one per
                # coordinate r of Hom(x,y)
                conds = [[field.zero()] * total for _ in range(dxy)]
                for j in range(c.dim(y, y)):
                    for r, val in c.basis_row(x, y, y, i, j).items():
                        conds[r][offsets[y] + j] = field.add(conds[r][offsets[y] + j], val)
                for j in range(c.dim(x, x)):
                    for r, val in c.basis_row(x, x, y, j, i).items():
                        conds[r][offsets[x] + j] = field.sub(conds[r][offsets[x] + j], val)
                rows.extend(conds)
    system = Mat.from_rows(field, rows, cols=total)
    basis = kernel_basis(system)
    families = []
    for k in range(basis.cols):
        col = basis.col(k)
        families.append({x: tuple(col[offsets[x] + t] for t in range(c.dim(x, x)))
                         for x in c.objects})
    return basis.cols, families
