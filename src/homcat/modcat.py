"""Modules over a finite K-linear category and their homological algebra.

A CatModule assigns a dimension to every object and a matrix to every
basis morphism (covariant for left modules, contravariant for right
ones).  A module is determined by its actions between nonzero values
(Mitchell, "Rings with several objects", 1972), and only those live
actions are stored: every builder iterates the live basis morphisms of
the values it builds (`live_morphisms`), a read of any other action
answers the zero matrix of its shape, and readers skip the blocks that
are vacuous, those with no rows or no columns.

Bimodules over C are uniformly left modules over enveloping(C),
so the regular bimodule, ideal bimodules and their quotients all live in
one module category and share the resolution machinery.  A (U,T)-bimodule
such as the M of a triangular matrix category is likewise a left module
over T^op tensor U (`bimodule`), and a left module lifted over the unit
category (`over_unit`) is the bimodule of a one-point extension.

Hom(M, N) is the kernel of one intertwining system, which the tensor
over C of `homcat.reference` shares.  Modules over a product category
A tensor B (the regular bimodule, bimodules, lifts over the unit
category) are assembled by one loop over pair objects, and one slot
action gives a basis morphism acting in one factor with an identity in
the other.

Resolutions are presentations by representables: a term is a finite
coproduct of representables C(x,-), and a differential is the list of
generator images in the previous term.  No summand is cut out of a
representable by an idempotent: the triangular pipelines resolve over
the model of [T 0; M U] (`kcat.triangular_model`), on which each summand
of 1 = e_T + e_U is an object with a representable of its own.  One
generator search, a minimal generating set, gives every cover: the cover
that the projectivity test reads (an isomorphism proves projectivity,
and only otherwise is a section searched for), and each term of a
resolution, searched for inside the previous term among the vectors of
its kernel.  A term builds an action on its first read, so a resolution
builds only the actions out of the generator objects of the next level.
By Yoneda the submodule v generates is spanned by its images under the
basis morphisms: every closure is one pass, redundancy is tested at one
object, and a module keeps its cover.  Ext complexes come out of the Yoneda identification
Hom(C(x,-), N) = N(x), so a differential weighs N's own action matrices,
and the dual D(N) is kept on N, which serves every resolution it meets.
Tor complexes are the Ext complexes into D(N), which keeps the cochain
spaces small, the covers minimal, and all bases canonical.  Both stop at
the top nonempty level of the resolution, above which they vanish.
"""

from __future__ import annotations

from .exactla import (
    EchelonSpace, Mat, add_to_row, block_diag, complex_cohomology_dims, dense_row,
    kernel_basis, product, rank, solve, unit_rows,
)
from .kcat import (InvalidBimodule, InvalidModule, UnknownObject, enveloping, opposite,
                   pair_object, tensor_category, unit_category)


class BaseMismatch(ValueError):
    pass


def live_morphisms(c, at_source, at_target=None, side="left"):
    """The basis morphisms (x, y, i) of c, in basis order, whose action on
    a module of the given side reads a nonzero value of at_source and
    lands in a nonzero value of at_target (any value when None).  A left
    module's action of x -> y reads the value at x, a right one's the
    value at y."""
    if side == "right":
        at_source, at_target = at_target, at_source
    for x in c.objects:
        if at_source is None or at_source[x]:
            for y in c.objects:
                if at_target is None or at_target[y]:
                    for i in range(c.dim(x, y)):
                        yield x, y, i


class CatModule:
    """A left or right module over the finite K-linear category base: the
    value dims[x] at each object and, in `act`, the action matrix of a
    basis morphism (x, y, i), keyed as in the base.

    Only live actions are stored: `act` holds a matrix for a basis
    morphism only when its source and target values are both nonzero.
    The builders (check=False) store no other; from a checked module an
    action with no rows or no columns is dropped once validation has read
    it.  `act_mat` answers any other basis morphism with the zero matrix
    of its shape, built once and kept on the module."""

    def __init__(self, base, side, dims, act, check=True):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.base = base
        self.side = side
        self.dims = {x: int(dims.get(x, 0)) for x in base.objects}
        self.act = dict(act)
        # nothing changes a module once built, so what is read off it is kept
        self._dual = self._generators = None
        self._out_arrows = {}        # x -> out_arrows(x)
        self._zeros = {}             # (x, y) -> the zero action of a vacuous block
        if check:
            self.validate()
            # validation has read every given action: keep the live ones
            self.act = {k: m for k, m in self.act.items() if m.rows and m.cols}

    def dim(self, x):
        return self.dims[x]

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return all(d == 0 for d in self.dims.values())

    def _shape(self, x, y):
        if self.side == "left":
            return self.dims[y], self.dims[x]
        return self.dims[x], self.dims[y]

    def act_mat(self, x, y, i):
        m = self.act.get((x, y, i))
        return self._zero(x, y) if m is None else m

    def _zero(self, x, y):
        """The zero action of the block (x, y), built once."""
        m = self._zeros.get((x, y))
        if m is None:
            m = self._zeros[(x, y)] = Mat.zeros(self.base.field, *self._shape(x, y))
        return m

    def out_arrows(self, x):
        """A (y, matrix) pair for every basis morphism acting on M(x) and
        landing in M(y): x -> y for a left module, y -> x for a right one;
        only live ones, since the others carry nothing.  Built per object
        on its first read."""
        arrows = self._out_arrows.get(x)
        if arrows is None:
            arrows = self._out_arrows[x] = []
            if self.dims[x]:
                c = self.base
                for y in c.objects:
                    if self.dims[y]:
                        key = (x, y) if self.side == "left" else (y, x)
                        arrows.extend((y, self.act_mat(*key, i)) for i in range(c.dim(*key)))
        return arrows

    def act_vec(self, x, y, coords):
        return self.act_row(x, y, {i: a for i, a in enumerate(coords) if a})

    def act_row(self, x, y, row):
        """The action of the morphism with sparse coordinates row; a basis
        morphism gets its stored matrix."""
        if len(row) == 1:
            (i, a), = row.items()
            if a == 1:
                return self.act_mat(x, y, i)
        r, c = self._shape(x, y)
        out = Mat.zeros(self.base.field, r, c)
        if r and c:
            for i, a in row.items():
                out = out.add(self.act_mat(x, y, i).scale(a))
        return out

    def validate(self):
        c = self.base
        for (x, y, i), m in self.act.items():
            if (x, y) not in c.hom_dims or i >= c.dim(x, y):
                raise InvalidModule(f"action for unknown basis morphism ({x},{y},{i})")
            if m.shape != self._shape(x, y):
                raise InvalidModule(
                    f"action at ({x},{y},{i}) has shape {m.shape}, expected {self._shape(x, y)}")
        for x in c.objects:
            if self.act_vec(x, x, c.id_coords(x)) != Mat.identity(c.field, self.dims[x]):
                raise InvalidModule(f"identity at {x} does not act as the identity")
        # g o f from x to z acts between the values at x and z: vacuous
        # when one is 0, whatever the value at y
        for x in c.objects:
            if not self.dims[x]:
                continue
            for y in c.objects:
                dxy = c.dim(x, y)
                if not dxy:
                    continue
                for z in c.objects:
                    dyz = c.dim(y, z)
                    if not dyz or not self.dims[z]:
                        continue
                    for i in range(dxy):
                        for j in range(dyz):
                            gf = c.basis_row(x, y, z, i, j)
                            lhs = self.act_row(x, z, gf)
                            if self.side == "left":
                                rhs = self.act_mat(y, z, j).mul(self.act_mat(x, y, i))
                            else:
                                rhs = self.act_mat(x, y, i).mul(self.act_mat(y, z, j))
                            if lhs != rhs:
                                g, f = c.hom_basis[(y, z)][j], c.hom_basis[(x, y)][i]
                                raise InvalidModule(
                                    f"action not functorial at ({x},{y},{z}) on {g}*{f}")
        return True

    def __eq__(self, other):
        if not isinstance(other, CatModule):
            return NotImplemented
        if self.base != other.base or self.side != other.side or self.dims != other.dims:
            return False
        keys = set(self.act) | set(other.act)
        return all(self.act_mat(*k) == other.act_mat(*k) for k in keys)

    __hash__ = None

    def __repr__(self):
        return f"CatModule({self.side}, dims={self.dims})"


class ModuleMap:

    def __init__(self, source, target, comp, check=True):
        if source.base != target.base or source.side != target.side:
            raise BaseMismatch("module map between incompatible modules")
        self.source = source
        self.target = target
        self.comp = {x: comp.get(x, Mat.zeros(source.base.field,
                                              target.dims[x], source.dims[x]))
                     for x in source.base.objects}
        if check:
            self.validate()

    def mat_at(self, x):
        return self.comp[x]

    def validate(self):
        c = self.source.base
        for x, m in self.comp.items():
            if m.shape != (self.target.dims[x], self.source.dims[x]):
                raise InvalidModule(f"component at {x} has wrong shape")
        for x, y, i in live_morphisms(c, self.source.dims, self.target.dims,
                                      self.source.side):
            src, tgt = (x, y) if self.source.side == "left" else (y, x)
            lhs = self.target.act_mat(x, y, i).mul(self.comp[src])
            rhs = self.comp[tgt].mul(self.source.act_mat(x, y, i))
            if lhs != rhs:
                raise InvalidModule(f"not natural at morphism ({x},{y},{i})")
        return True

    def then(self, other):
        """self followed by other."""
        comp = {x: product(other.comp[x], self.comp[x]) for x in self.comp}
        return ModuleMap(self.source, other.target, comp, check=False)

    def flatten(self):
        out = []
        for x in self.source.base.objects:
            m = self.comp[x]
            for row in m.nz:
                out.extend(dense_row(m.field, row, m.cols))
        return tuple(out)


# ---------------------------------------------------------------------------
# basic modules

def representable(c, x, side="left"):
    """C(x,-) as a left module / C(-,x) as a right module."""
    if x not in c.objects:
        raise UnknownObject(x)
    if side == "left":
        dims = {y: c.dim(x, y) for y in c.objects}
        act = {(y, z, j): c.post_matrix_basis(x, y, z, j)
               for y, z, j in live_morphisms(c, dims, dims)}
    else:
        dims = {y: c.dim(y, x) for y in c.objects}
        act = {(y, z, i): c.pre_matrix_basis(y, z, x, i)
               for y, z, i in live_morphisms(c, dims, dims)}
    return CatModule(c, side, dims, act, check=False)


def simple(c, x, side="left"):
    """The one-dimensional module supported at x.

    End(x) acts through the scalar s of a = s * 1 + (nilpotent), which
    exists exactly when End(x) is local: s must be an algebra map, which
    validation checks, with a nilpotent kernel, checked first.  s is trace/d
    of the left multiplication L_a, d = dim End(x), unless d vanishes in
    K = GF(p): then L_a^q = s * 1 for the least power q >= d of p, since
    (s * 1 + n)^q = s^q * 1 = s * 1.
    """
    f = c.field
    d = c.dim(x, x)
    posts = [c.post_matrix_basis(x, x, x, i) for i in range(d)]
    scalars = []
    for post in posts:
        if f.p and d % f.p == 0:
            q = f.p
            while q < d:
                q *= f.p
            power = post
            for _ in range(q - 1):
                power = power.mul(post)
            s = power.nz[0].get(0, f.zero())
        else:
            tr = f.zero()
            for k, row in enumerate(post.nz):
                if k in row:
                    tr = f.add(tr, row[k])
            s = f.div(tr, f.of(d))
        scalars.append(s)
    # the powers of a nilpotent kernel of dimension < d vanish by the d-th
    kern = kernel_basis(Mat.from_rows(f, [scalars]))
    power = [kern.col(k) for k in range(kern.cols)]
    for _ in range(d):
        space = EchelonSpace(f, d)
        for v in power:
            times_v = Mat.from_cols(f, [post.mul_vec(v) for post in posts], rows=d)
            for k in range(kern.cols):
                space.add(times_v.mul_vec(kern.col(k)))
        basis = space.basis_matrix()
        power = [basis.col(k) for k in range(basis.cols)]
    if power:
        raise InvalidModule(f"no simple module supported at {x}: End({x}) is not local")
    dims = {y: 1 if y == x else 0 for y in c.objects}
    act = {(x, x, i): Mat.from_rows(f, [[s]]) for i, s in enumerate(scalars)}
    try:
        return CatModule(c, side, dims, act)
    except InvalidModule as exc:
        raise InvalidModule(f"no simple module supported at {x}: {exc}") from exc


def dualize(m):
    """Value-wise linear dual with transposed actions (opposite side),
    built once and kept on m."""
    if m._dual is None:
        side = "right" if m.side == "left" else "left"
        act = {k: mat.transpose() for k, mat in m.act.items()}
        m._dual = CatModule(m.base, side, dict(m.dims), act, check=False)
    return m._dual


def as_left_over_op(m, base_op=None):
    """A right C-module is the same thing as a left module over C^op."""
    return _over_op(m, "right", "left", base_op)


def _over_op(m, side, op_side, base_op):
    if m.side != side:
        raise BaseMismatch(f"expected a {side} module")
    act = {(y, x, i): mat for (x, y, i), mat in m.act.items()}
    return CatModule(opposite(m.base) if base_op is None else base_op, op_side,
                     dict(m.dims), act, check=False)


def restrict_module(m, ideal):
    """Pull a C/I-module back to C along the quotient functor: basis
    morphism i of C(x,y) acts as m's action of column i of the ideal's
    `complement(x, y).proj`."""
    c = ideal.parent
    if m.base.objects != c.objects or m.base.hom_dims != ideal.quotient_dims:
        raise BaseMismatch("module does not live over the quotient by this ideal")
    dims = dict(m.dims)
    cols = {}
    act = {}
    for x, y, i in live_morphisms(c, dims, dims):
        if (x, y) not in cols:
            cols[(x, y)] = ideal.complement(x, y).proj.transpose().nz
        act[(x, y, i)] = m.act_row(x, y, cols[(x, y)][i])
    return CatModule(c, m.side, dims, act, check=False)


# ---------------------------------------------------------------------------
# submodules, quotients, generators

def submodule_module(m, spans):
    """The submodule with the given reduced column spans (`unit_rows`).
    The spans are tested wherever the span at the source and the value
    of m at the target are nonzero, even into an empty span."""
    c = m.base
    dims = {x: spans[x].cols for x in c.objects}
    units = {x: unit_rows(spans[x]) for x in c.objects}
    act = {}
    for x, y, i in live_morphisms(c, dims, m.dims, m.side):
        src, tgt = (x, y) if m.side == "left" else (y, x)
        image = m.act_mat(x, y, i).mul(spans[src])
        # a vector of the span is the span applied to its entries at the unit rows
        restricted = Mat.from_sparse(c.field, dims[tgt], dims[src],
                                     tuple(image.nz[j] for j in units[tgt]))
        if not (spans[tgt].mul(restricted) == image if dims[tgt] else image.is_zero()):
            raise InvalidModule(f"spans are not a submodule at ({x},{y},{i})")
        if dims[tgt]:
            act[(x, y, i)] = restricted
    return CatModule(m.base, m.side, dims, act, check=False)


def quotient_module(m, comps):
    """Quotient by the spans of the given complements (`ComplementData`
    per object), in the complement bases.  Stability is tested wherever
    the quotient at the target is nonzero, even from a quotient that is 0
    at the source."""
    c = m.base
    dims = {x: comps[x].dim for x in c.objects}
    act = {}
    for x, y, i in live_morphisms(c, m.dims, dims, m.side):
        src, tgt = (x, y) if m.side == "left" else (y, x)
        # proj has kernel exactly the span: stable iff proj . act kills it
        pa = comps[tgt].proj.mul(m.act_mat(x, y, i))
        span = comps[src].span
        if span.cols and not pa.mul(span).is_zero():
            raise InvalidModule(f"spans not stable at ({x},{y},{i})")
        if dims[src]:
            act[(x, y, i)] = pa.mul(comps[src].section)
    return CatModule(m.base, m.side, dims, act, check=False)


def ideal_representable(c, ideal, x, side="left"):
    """I(x,-) inside C(x,-) (left) or I(-,x) inside C(-,x) (right)."""
    spans = {y: ideal.span[(x, y) if side == "left" else (y, x)] for y in c.objects}
    return submodule_module(representable(c, x, side), spans)


def quotient_representable(c, ideal, x, side="left"):
    """C(x,-)/I(x,-) (left) or C(-,x)/I(-,x) (right)."""
    comps = {y: ideal.complement(*((x, y) if side == "left" else (y, x))) for y in c.objects}
    return quotient_module(representable(c, x, side), comps)


# ---------------------------------------------------------------------------
# Hom

def _intertwining_system(source, target):
    """Block offsets and the linear system whose kernel is
    Hom(source, target): component x of a map is the target(x) by
    source(x) block at offsets[x], row-major, and every basis morphism
    contributes the rows of a * C_src - C_tgt * b = 0."""
    c = source.base
    f = c.field
    offsets = {}
    total = 0
    for x in c.objects:
        offsets[x] = total
        total += target.dims[x] * source.dims[x]
    rows = []
    # a block has target(tgt) x source(src) rows: none when either is 0
    for x, y, i in live_morphisms(c, source.dims, target.dims, source.side):
        a = target.act_mat(x, y, i)
        b = source.act_mat(x, y, i)
        src_obj, tgt_obj = (x, y) if source.side == "left" else (y, x)
        ms = source.dims[src_obj]
        nt = target.dims[tgt_obj]
        mt = source.dims[tgt_obj]
        bt = b.transpose().nz
        for r in range(nt):
            for cc in range(ms):
                row = {offsets[src_obj] + s * ms + cc: v for s, v in a.nz[r].items()}
                for t, v in bt[cc].items():
                    add_to_row(f, row, offsets[tgt_obj] + r * mt + t, f.neg(v))
                rows.append(row)
    return offsets, Mat.from_sparse(f, len(rows), total, tuple(rows))


class HomBasis:
    """Basis of natural transformations between two modules, computed as
    the kernel of the intertwining system.  Column order is canonical."""

    def __init__(self, source, target):
        if source.base != target.base or source.side != target.side:
            raise BaseMismatch("Hom between incompatible modules")
        self.source = source
        self.target = target
        self.offsets, system = _intertwining_system(source, target)
        self.basis_matrix = kernel_basis(system)
        self.dim = self.basis_matrix.cols

    def map_at(self, k):
        return self._unflatten(self.basis_matrix.col(k))

    def maps(self):
        return [self.map_at(k) for k in range(self.dim)]

    def _unflatten(self, vec):
        c = self.source.base
        comp = {}
        for x in c.objects:
            r, cc = self.target.dims[x], self.source.dims[x]
            off = self.offsets[x]
            comp[x] = Mat(c.field, r, cc,
                          tuple(tuple(vec[off + i * cc + j] for j in range(cc))
                                for i in range(r)))
        return ModuleMap(self.source, self.target, comp, check=False)


def module_hom(m, n):
    """Basis of Hom_{Mod}(m, n)."""
    return HomBasis(m, n)


# ---------------------------------------------------------------------------
# modules over product categories

def _product_module(base, dims, action):
    """The left module over base = A tensor B with value dims(a, b) at
    (a,b) and action(a1, b1, a2, b2, i, j) as the matrix of basis
    morphism i of A(a1,a2) tensor basis morphism j of B(b1,b2), which is
    basis morphism i * dim B(b1,b2) + j of the product."""
    a, b = base.product_of
    factors = {pair_object(x, y): (x, y) for x in a.objects for y in b.objects}
    values = {p: dims(x, y) for p, (x, y) in factors.items()}
    act = {}
    for src, tgt, k in live_morphisms(base, values, values):
        (a1, b1), (a2, b2) = factors[src], factors[tgt]
        i, j = divmod(k, b.dim(b1, b2))
        act[(src, tgt, k)] = action(a1, b1, a2, b2, i, j)
    return CatModule(base, "left", values, act, check=False)


def bimodule(u, t, dims, lact, ract):
    """A (U,T)-bimodule M, a K-functor on U tensor T^op, as the left module
    over T^op tensor U with value M(U,T) at (T,U), where f^op tensor g
    acts by m -> g m f.

    dims[(U,T)] is dim M(U,T); lact[(U,U',i,T)] is the matrix of basis
    morphism i of U(U,U') from M(U,T) to M(U',T), and ract[(T,T',j,U)]
    that of basis morphism j of T(T,T') from M(U,T') to M(U,T); a missing
    matrix is zero.  These are the module's slot actions.  Raises
    InvalidBimodule, in the terms of U and T, unless each side is a module
    (shapes, identity, functoriality) and the two sides commute."""
    base = tensor_category(opposite(t), u)
    field = u.field

    def dim(U, T):
        return int(dims.get((U, T), 0))

    def left(U, U2, i, T):
        m = lact.get((U, U2, i, T))
        return Mat.zeros(field, dim(U2, T), dim(U, T)) if m is None else m

    def right(T, T2, j, U):
        m = ract.get((T, T2, j, U))
        return Mat.zeros(field, dim(U, T), dim(U, T2)) if m is None else m

    # the product module is functorial exactly when each side is and the
    # sides commute; checked apart, a failure is named in the factors
    sides = [(f"U-action on M(-,{T})", u, "left", {U: dim(U, T) for U in u.objects},
              lambda x, y, k, T=T: left(x, y, k, T)) for T in t.objects]
    sides += [(f"T-action on M({U},-)", t, "right", {T: dim(U, T) for T in t.objects},
               lambda x, y, k, U=U: right(x, y, k, U)) for U in u.objects]
    for where, c, side, values, act in sides:
        try:
            CatModule(c, side, values,
                      {(x, y, k): act(x, y, k) for x, y, k, _ in c.basis_morphisms()})
        except InvalidModule as exc:
            raise InvalidBimodule(f"{where}: {exc}") from exc
    for U1, U2, i, g in u.basis_morphisms():
        for T1, T2, j, f in t.basis_morphisms():
            if (left(U1, U2, i, T1).mul(right(T1, T2, j, U1))
                    != right(T1, T2, j, U2).mul(left(U1, U2, i, T2))):
                raise InvalidBimodule(f"U-arrow {g}: {U1} -> {U2} and T-arrow {f}: "
                                      f"{T1} -> {T2} do not commute")
    return _product_module(
        base, lambda T, U: dim(U, T),
        lambda T1, U1, T2, U2, j, i: product(left(U1, U2, i, T2), right(T2, T1, j, U1)))


def over_unit(m):
    """A left C-module as the left module over unit tensor C with the same
    values and actions: the (C, unit)-bimodule it is, the unit category
    being its own opposite."""
    c = m.base
    return _product_module(tensor_category(unit_category(c.field), c),
                           lambda _, x: m.dims[x],
                           lambda _u, x, _u2, y, _k, i: m.act_mat(x, y, i))


def slot_action(m, first, x, y, i, far):
    """Action on a left module over A tensor B of basis morphism i of
    A(x,y) tensor 1_far (first) or of 1_far tensor basis morphism i of
    B(x,y) (not first)."""
    a, b = m.base.product_of
    if first:
        w = b.dim(far, far)
        return m.act_row(pair_object(x, far), pair_object(y, far),
                         {i * w + k: v for k, v in enumerate(b.id_coords(far)) if v})
    return m.act_row(pair_object(far, x), pair_object(far, y),
                     {k * b.dim(x, y) + i: v for k, v in enumerate(a.id_coords(far)) if v})


def regular_bimodule(c, env=None):
    """C as a left module over its enveloping category: value C(x',x),
    with (f^op tensor g) acting by h -> g o h o f."""
    if env is None:
        env = enveloping(c)
    return _product_module(
        env, c.dim,
        lambda x1, x2, y1, y2, i, j: product(c.post_matrix_basis(y1, x2, y2, j),
                                             c.pre_matrix_basis(y1, x1, x2, i)))


def ideal_bimodule(c, ideal, env=None, regular=None):
    """The ideal as a sub-bimodule of the regular one, together with the
    inclusion map (spans are the ideal's canonical bases)."""
    if regular is None:
        regular = regular_bimodule(c, env)
    env = regular.base
    spans = {pair_object(x1, x2): ideal.span[(x1, x2)]
             for x1 in c.objects for x2 in c.objects}
    sub = submodule_module(regular, spans)
    incl = ModuleMap(sub, regular, {p: spans[p] for p in spans}, check=False)
    return sub, incl


# ---------------------------------------------------------------------------
# free resolutions by representables

class FreeResolution:
    """A chain of projective presentations P_len -> ... -> P_0 -> M -> 0.

    gens[k] lists the objects x of the representables C(x,-) whose sum is
    P_k; images[0] holds the augmentation images inside M, images[k]
    (k >= 1) the generator images inside P_{k-1}, as coordinate vectors
    at the generator's object.
    """

    def __init__(self, base, module, gens, images):
        self.base = base
        self.module = module
        self.gens = gens
        self.images = images
        self._terms = {}

    @property
    def length(self):
        return len(self.gens) - 1

    def term(self, k):
        if k not in self._terms:
            self._terms[k] = _FreeModule(self.base, self.gens[k])
        return self._terms[k]

    def aug_matrix(self, y):
        return self._weighed(self.module, 0, y)

    def map_matrix(self, k, y):
        """Matrix of d_k: P_k(y) -> P_{k-1}(y)."""
        return self._weighed(self.term(k - 1), k, y)

    def _weighed(self, target, k, y):
        """The matrix from P_k(y) to target(y) whose column at basis
        morphism b of C(x,y), for a generator x of P_k, is the action of b
        on that generator's image."""
        cols = []
        for x, img in zip(self.gens[k], self.images[k]):
            for b in range(self.base.dim(x, y)):
                cols.append(target.act_mat(x, y, b).mul_vec(img))
        return Mat.from_cols(self.base.field, cols, rows=target.dims[y])


class _FreeModule(CatModule):
    """The sum of the representables C(x,-) over the given objects, a term
    of a resolution.  The action of a basis morphism is the block-diagonal
    post-composition matrix over the objects, built on its first read and
    kept: the generator search and the differentials read only the actions
    out of the next level's generator objects.  A read of `act` itself
    builds every live action."""

    def __init__(self, c, objects):
        self.summands = tuple(objects)
        super().__init__(c, "left", {y: sum(c.dim(x, y) for x in objects) for y in c.objects},
                         {}, check=False)

    @property
    def act(self):
        """Every live action, built here unless read before."""
        for key in live_morphisms(self.base, self.dims, self.dims):
            self.act_mat(*key)
        return self._act

    @act.setter
    def act(self, act):
        # CatModule.__init__ stores the given actions, none for a term
        self._act = act

    def act_mat(self, x, y, i):
        m = self._act.get((x, y, i))
        if m is None:
            if not (self.dims[x] and self.dims[y]):
                return self._zero(x, y)
            c = self.base
            m = self._act[(x, y, i)] = block_diag(
                c.field, [c.post_matrix_basis(g, x, y, i) for g in self.summands])
        return m


def minimal_generators(m, spans=None):
    """A minimal generating set of m, or of its submodule K spanned by
    the columns of spans[x] at each x, [(object, vector in m)],
    deterministic in the object and basis orders.

    A greedy pass over the basis vectors b of m, or the columns b of
    spans, keeps each b not yet in the span of those kept, adding its
    images under the basis morphisms; one backward pass then drops each
    vector in the closure of the others, tested at its own object: the
    span there before it was kept, grown by the images there of the later
    ones still kept.  A vector kept at step i is outside the closure of a
    superset of the final others, so the set is irredundant, hence
    minimal over a finite-dimensional category (Nakayama)."""
    c = m.base
    spaces = {x: EchelonSpace(c.field, m.dims[x]) for x in c.objects}
    gens = []
    before = []      # before[i]: the greedy span at gens[i]'s object just before it was kept
    images = []      # images[i][y]: the images in m(y) of gens[i] under the basis morphisms
    for x in c.objects:
        starts = Mat.identity(c.field, m.dims[x]) if spans is None else spans[x]
        for b in range(starts.cols):
            vec = starts.col(b)
            if not spaces[x].contains(vec):
                before.append(spaces[x].copy())
                gens.append((x, vec))
                images.append({})
                for y, mat in m.out_arrows(x):
                    image = mat.mul_vec(vec)
                    images[-1].setdefault(y, []).append(image)
                    spaces[y].add(image)
    kept = []
    for i in range(len(gens) - 1, -1, -1):
        x, vec = gens[i]
        space = before[i]
        for k in kept:
            for image in images[k].get(x, ()):
                space.add(image)
        if kept and space.contains(vec):
            gens.pop(i)
        else:
            kept.append(i)
    return gens


def _cover(m):
    """P_0 -> m on the representables of a minimal generating set of m, as
    a resolution of length 0; the set is searched once and kept on m."""
    if m._generators is None:
        m._generators = tuple(minimal_generators(m))
    return FreeResolution(m.base, m, [[x for x, _ in m._generators]],
                          [[v for _, v in m._generators]])


def projective_resolution(m, length):
    """Resolution by sums of representables, built on minimal generating
    sets of successive kernels."""
    if m.side != "left":
        raise BaseMismatch("resolutions are computed for left modules; transport first")
    c = m.base
    res = _cover(m)
    gens, images = res.gens, res.images
    for k in range(1, length + 1):
        if not gens[k - 1]:
            gens.append([])
            images.append([])
            continue
        if k == 1:
            mats = {y: res.aug_matrix(y) for y in c.objects}
        else:
            mats = {y: res.map_matrix(k - 1, y) for y in c.objects}
        spans = {y: kernel_basis(mats[y]) for y in c.objects}
        if all(spans[y].cols == 0 for y in c.objects):
            gens.append([])
            images.append([])
            continue
        # searched inside the term, the kept kernel vectors are the images
        kgens = minimal_generators(res.term(k - 1), spans)
        gens.append([x for x, _ in kgens])
        images.append([v for _, v in kgens])
    return res


# ---------------------------------------------------------------------------
# Ext and Tor

class ExtComplexData:
    """Cochain spaces and differentials of Hom(P_., coeff), where
    Hom(C(x,-), N) = N(x)."""

    def __init__(self, dims, diffs):
        self.dims = dims
        self.diffs = diffs


def level_gens(res, k):
    """The generator objects of P_k; none above the resolution's length."""
    return res.gens[k] if k <= res.length else []


def ext_data(res, coeff, upto):
    """The cochain complex Hom(P_., coeff) up to degree upto + 1: level k
    is the sum of coeff's values at the generators of P_k.  A generator of
    P_{k+1} at xt goes to a vector of P_k(xt), whose coordinate at basis
    morphism b of C(xs,xt), for a generator xs of P_k, weighs coeff's
    action of b; the weighed actions add straight into the sparse rows of
    the differential."""
    c = res.base
    f = c.field
    levels = [level_gens(res, k) for k in range(upto + 2)]
    dims = [sum(coeff.dims[x] for x in level) for level in levels]
    diffs = []
    for k in range(upto + 1):
        grid = [{} for _ in range(dims[k + 1])]
        roff = 0
        for xt, img in zip(levels[k + 1], res.images[k + 1]):
            pos = coff = 0
            for xs in levels[k]:
                width = c.dim(xs, xt)
                if coeff.dims[xs] and coeff.dims[xt]:
                    for b in range(width):
                        a = img[pos + b]
                        if a:
                            # each action fills its own columns coff.. of rows roff..
                            for r, brow in enumerate(coeff.act_mat(xs, xt, b).nz):
                                row = grid[roff + r]
                                for t, v in brow.items():
                                    add_to_row(f, row, coff + t, f.mul(a, v))
                pos += width
                coff += coeff.dims[xs]
            roff += coeff.dims[xt]
        diffs.append(Mat.from_sparse(f, dims[k + 1], dims[k], tuple(grid)))
    return ExtComplexData(dims, diffs)


def tor_data(res, coeff, upto):
    """The Tor complex of a right module coeff against the resolved
    module, given as the Ext complex into the dual D(coeff) kept on coeff.

    Over a field coeff tensor P is the linear dual of Hom(P, D(coeff))
    (Cartan-Eilenberg, Homological Algebra, VI), so the chain complex
    coeff tensor P_. is the transpose of the cochain complex
    Hom(P_., D(coeff)) and both have the same ranks."""
    return ext_data(res, dualize(coeff), upto)


def ext(m, n, max_deg=4, res=None):
    """Ext^0..Ext^max_deg dimensions over Mod(base)."""
    if m.base != n.base or m.side != n.side:
        raise BaseMismatch("ext needs two modules of the same base and side")
    if m.side == "right":
        base_op = opposite(m.base)
        m = as_left_over_op(m, base_op)
        n = as_left_over_op(n, base_op)
    if res is None:
        res = projective_resolution(m, max_deg + 1)
    return _dims_up_to_top(ext_data, res, n, max_deg)


def _dims_up_to_top(complex_data, res, coeff, max_deg):
    """Cohomology dimensions 0..max_deg of the complex complex_data builds,
    built only up to level min(top, max_deg + 1), top being the top
    nonempty level of res (-1 for the zero module): the levels above top
    are zero, and so is the cohomology there."""
    top = max((k for k, level in enumerate(res.gens) if level), default=-1)
    data = complex_data(res, coeff, min(top - 1, max_deg))
    upper = min(top, max_deg)
    return complex_cohomology_dims(data.dims, data.diffs, upper) + [0] * (max_deg - upper)


def is_projective(m):
    """Cover m by the representables of its minimal generating set.  A
    cover that is square and of full rank at every object is an
    isomorphism, and m is projective.  Otherwise the splitting test looks
    for a natural section of the cover among Hom(m, cover) (an epimorphism
    from a projective splits exactly when the target is projective): where
    some End(x) is not local, a projective m can have a larger cover."""
    if m.is_zero():
        return True
    work = m if m.side == "left" else as_left_over_op(m)
    c = work.base
    f = c.field
    top = _cover(work)
    p = top.term(0)
    eps = {y: top.aug_matrix(y) for y in c.objects}
    if p.dims == work.dims and all(rank(eps[y]) == work.dims[y] for y in c.objects):
        return True
    cover = ModuleMap(p, work, eps, check=False)
    ident = ModuleMap(work, work, {y: Mat.identity(f, work.dims[y]) for y in c.objects},
                      check=False).flatten()
    # eps o (sum_k c_k sigma_k) = id is linear in the coefficients c_k
    cols = [s.then(cover).flatten() for s in HomBasis(work, p).maps()]
    system = Mat.from_cols(f, cols, rows=len(ident))
    return solve(system, Mat.from_cols(f, [ident], rows=len(ident))) is not None
