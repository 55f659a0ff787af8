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
each build.  The complex is the unnormalized one (identity tensor
factors are not stripped), but the faces that the unit law cancels are
never evaluated.  A slot s with q_s = q_{s+1} whose basis morphism is
1_{q_s} is an identity slot; over a maximal run of L identity slots
from s the faces d_{s-1}..d_{s+L-1} give one source cell, and they add
up to (-1)^(s-1) times it when L is even and to nothing when L is odd.
The rule needs the unit laws of the category, which every constructor
reaching this route validates, and 1 acting as the identity on the
coefficient, which holds for every bimodule the package builds.  Where
an identity is not a basis vector there is no identity slot, and every
face is evaluated.  Chains are enumerated once, degree by degree, in
lexicographic object order, so all matrices are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import prod

from .exactla import Mat, complex_cohomology_dims, kernel_basis, q_row, unit_vector, vkron
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


def _chains(c, top):
    """Per degree n = 0..top, the composable chains q_1 -> ... -> q_{n+1},
    every C(q_i,q_{i+1}) nonzero, in lexicographic object order, each as
    (chain, the dimensions of its n slots).  Degree n+1 extends degree n,
    and the Hom dimensions are read once."""
    dim = {(x, y): c.dim(x, y) for x in c.objects for y in c.objects}
    level = [((x,), ()) for x in c.objects]
    levels = [level]
    for _ in range(top):
        level = [(ch + (y,), dims + (dim[ch[-1], y],))
                 for ch, dims in level for y in c.objects if dim[ch[-1], y]]
        levels.append(level)
    return levels


def bar_dims(c, max_deg):
    """Dimension summaries of the bar terms, nothing materialized."""
    into = {x: sum(c.dim(y, x) for y in c.objects) for x in c.objects}
    out_of = {x: sum(c.dim(x, y) for y in c.objects) for x in c.objects}
    out = []
    for n, level in enumerate(_chains(c, max_deg)):
        tuples = [(tup, prod(dims), into[tup[0]] * prod(dims) * out_of[tup[-1]])
                  for tup, dims in level]
        out.append(BarTerm(n, tuples, sum(t[2] for t in tuples)))
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
    for level in _chains(c, length):
        layout = [(tup, w) for tup, dims in level for w in iproduct(*map(range, dims))]
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

@lru_cache(maxsize=4096)
def _plan(m, ids):
    """The faces of a cell with m slots and identity slots `ids` that the
    unit law leaves: the middle and the outer faces (j, sign) that touch
    no identity slot (face d_j touches slots j and j+1), and (s, sign)
    for the first slot s of every maximal run of even length, whose
    faces add up to one block.  A pure function of its small arguments,
    memoized because every build meets the same few patterns; the
    result is made of tuples, so no caller can change it."""
    cut = set(ids).union(s - 1 for s in ids)
    kept = []
    for s in ids:
        if s - 1 not in ids:
            end = s
            while end + 1 in ids:
                end += 1
            if (end - s) % 2:
                kept.append((s, 1 if s % 2 else -1))
    live = [(j, -1 if j % 2 else 1) for j in range(m + 1) if j not in cut]
    return (tuple(f for f in live if 0 < f[0] < m), tuple(f for f in live if f[0] in (0, m)),
            tuple(kept))


class _Layout:
    """The degree-n cochain space, one component per composable chain."""

    def __init__(self, level, coeff):
        self.components = []   # (chain, slot dims, inner dim, coeff dim, offset)
        self.index = {}        # chain -> its component
        off = 0
        for tup, dims in level:
            comp = (tup, dims, prod(dims), coeff.dims[pair_object(tup[0], tup[-1])], off)
            self.components.append(comp)
            self.index[tup] = comp
            off += comp[2] * comp[3]
        self.dim = off


def hochschild_cochain_complex(c, coeff, max_deg):
    """Cochain spaces and differentials with bimodule coefficients, for
    degrees 0..max_deg+1 (so cohomology is available through max_deg).

    The matrices are those of the unnormalized complex, entry for entry,
    built without the faces that the unit law cancels (module
    docstring): d_{s-1} and d_s of an identity slot s both give the cell
    without slot s, with opposite signs.  An outer face uses that 1 acts
    as the identity on the coefficient.  Scalar terms are summed per
    source block before they are spread over the coefficient diagonal,
    and each row is reduced once."""
    if coeff.side != "left":
        raise InvalidCoefficient("coefficient must be a left module over the enveloping category")
    env = coeff.base
    if env.product_of is None:
        raise InvalidCoefficient("coefficient base is not an enveloping category")
    for x in c.objects:
        if pair_object(x, x) not in env.objects:
            raise InvalidCoefficient("coefficient does not match the category's enveloping")
    p = c.field.p
    layouts = [_Layout(level, coeff) for level in _chains(c, max_deg + 1)]
    unit = {}                  # object -> basis index of its identity
    for x in c.objects:
        nz = [(i, a) for i, a in enumerate(c.id_coords(x)) if a]
        if len(nz) == 1 and nz[0][1] == 1:
            unit[x] = nz[0][0]
    acts = {}

    def outer(first, x, y, far):
        """Per basis morphism of C(x,y), the nonzero (row, col, value)
        entries of its action in the first (contravariant) or last slot,
        with 1_far in the other.  The identity of a loop is left out: its
        outer face always lies in a run and is never evaluated."""
        key = (first, x, y, far)
        if key not in acts:
            # the first slot is C^op, where C(x,y) is C^op(y,x)
            a, b = (y, x) if first else (x, y)
            skip = unit.get(x) if x == y else None
            acts[key] = [
                None if i == skip else
                [(r, s, v) for r, row in enumerate(slot_action(coeff, first, a, b, i, far).nz)
                 for s, v in row.items()]
                for i in range(c.dim(x, y))]
        return acts[key]

    def face(n, tup, dims, j):
        """Face d_j of the degree-(n+1) chain tup, which drops object j:
        (payload, off, block, high, low, scale), or None when it has no
        terms.  The payload is the composite table of a middle face and
        the action table of an outer one.  At inner position k the source
        column is off + k // block * high + k % low * scale: k // block
        holds the digits of the slots before those the face consumes and
        k % low the digits after them; a middle face adds h * low * scale
        for the digit h of its composite."""
        entry = layouts[n].index.get(tup[:j] + tup[j + 1:])
        if entry is None:
            return None
        _, sdims, inner, scale, off = entry
        if j == 0:
            payload = outer(True, tup[0], tup[1], tup[-1])
            return payload, off, inner * dims[0], 0, inner, scale
        if j == n + 1:
            payload = outer(False, tup[-2], tup[-1], tup[0])
            return payload, off, dims[-1], scale, 1, scale
        triple = tup[j - 1:j + 2]
        if c.rows is not None:
            payload = c.rows.get(triple)
        else:      # a product category answers from its factors
            payload = [[c.basis_row(*triple, i, l) for l in range(dims[j])]
                       for i in range(dims[j - 1])]
        if payload is None:
            return None
        low = prod(dims[j + 1:])
        return payload, off, dims[j - 1] * dims[j] * low, sdims[j - 1] * low * scale, low, scale

    diffs = []
    for n in range(max_deg + 1):
        src, tgt = layouts[n], layouts[n + 1]
        m = n + 1              # slots of a target chain, faces d_0..d_m
        grid = [{} for _ in range(tgt.dim)]
        for tup, dims, inner, cdim, toff in tgt.components:
            if not cdim:
                continue
            loops = [(s, unit[tup[s]]) for s in range(1, m + 1)
                     if tup[s - 1] == tup[s] and tup[s] in unit]
            faces = {}
            plan = _plan(m, ())
            for k, w in enumerate(iproduct(*map(range, dims))):
                if loops:
                    ids = tuple([s for s, e in loops if w[s - 1] == e])
                    plan = _plan(m, ids)
                middle, ends, kept = plan
                row0 = toff + k * cdim
                scalars = {}       # source column block -> coefficient
                for s, sign in kept:
                    # the cell without slot s, read through face d_s
                    if s not in faces:
                        faces[s] = face(n, tup, dims, s)
                    _, off, block, high, low, scale = faces[s]
                    key = off + k // block * high + k % low * scale
                    if s < m:
                        key += w[s] * low * scale
                    scalars[key] = scalars.get(key, 0) + sign
                for j, sign in middle:
                    if j not in faces:
                        faces[j] = face(n, tup, dims, j)
                    if faces[j] is None:
                        continue
                    table, off, block, high, low, scale = faces[j]
                    comp = table[w[j - 1]][w[j]]
                    if comp:
                        base = off + k // block * high + k % low * scale
                        for h, a in comp.items():
                            key = base + h * low * scale
                            scalars[key] = scalars.get(key, 0) + sign * a
                for key, a in scalars.items():
                    if a % p if p else a:
                        for r in range(cdim):
                            row = grid[row0 + r]
                            row[key + r] = row.get(key + r, 0) + a
                for j, sign in ends:
                    if j not in faces:
                        faces[j] = face(n, tup, dims, j)
                    action, off, block, high, low, scale = faces[j]
                    base = off + k // block * high + k % low * scale
                    for r, s, a in action[w[0] if j == 0 else w[-1]]:
                        row = grid[row0 + r]
                        row[base + s] = row.get(base + s, 0) + sign * a
        if p:
            nz = tuple({j: v % p for j, v in row.items() if v % p} for row in grid)
        else:
            nz = tuple(map(q_row, grid))
        diffs.append(Mat.from_sparse(c.field, tgt.dim, src.dim, nz))
    return CochainComplex(c.field, [l.dim for l in layouts], diffs)


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
