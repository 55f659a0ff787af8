"""Reference constructions that the tests use as oracles and fixtures.

No task runs them, and no engine module imports this one
(`tests/test_reachability.py`).

Over a field the tensor N tensor_C M is the complement of the
intertwining system for Hom(M, D(N)), Hom's own system (Cartan-Eilenberg,
Homological Algebra, VI).  Outer tensors, swapped products and Mitchell's
box tensors are modules over a product category, assembled by the
product-module loop of `modcat`; a box tensor contracts the slices of its
factors, acted on through `modcat.slot_action`, pointwise by that tensor.
Random modules are seeded nonzero quotients of sums of representables.
Every engine constructor builds an ideal that is two-sided by
construction, so the closure test of an ideal, `validate_ideal`, lives
here as the tests' oracle.
"""

from __future__ import annotations

from .exactla import (ComplementData, EchelonSpace, Mat, block_diag, dense_row, kron, rank,
                      report_form)
from .ideals import TwoSidedIdeal
from .kcat import opposite, pair_object, tensor_category
from .modcat import (
    BaseMismatch, CatModule, InvalidModule, _dims_up_to_top, _intertwining_system, _over_op,
    _product_module, dualize, ideal_representable, live_morphisms, over_unit,
    projective_resolution, quotient_module, representable, slot_action, tor_data,
)


class InvalidIdeal(ValueError):
    pass


# ---------------------------------------------------------------------------
# categories, ideals and complexes

def compose_basis(c, x, y, z, i, j):
    """Coordinates of g_j o f_i in c as a dense tuple, in report form."""
    return report_form(c.field, dense_row(c.field, c.basis_row(x, y, z, i, j), c.dim(x, z)))


def zero_ideal(c):
    return TwoSidedIdeal(c, {})


def whole_ideal(c):
    span = {(x, y): Mat.identity(c.field, c.dim(x, y))
            for x in c.objects for y in c.objects}
    return TwoSidedIdeal(c, span)


def column_space_basis(m):
    """Canonical (reduced-echelon) basis of the column space."""
    sp = EchelonSpace(m.field, m.rows)
    for col in m.transpose().nz:
        sp.add(col)
    return sp.basis_matrix()


def validate_ideal(ideal):
    """Shapes and canonical bases of an ideal's spans, then closure: I(x,-)
    is a submodule of C(x,-) (postcomposition), I(-,x) one of C(-,x)
    (precomposition).  Returns the ideal; raises InvalidIdeal."""
    c = ideal.parent
    for (x, y), m in ideal.span.items():
        if m.rows != c.dim(x, y):
            raise InvalidIdeal(f"span at ({x},{y}) has wrong ambient dimension")
        if m.cols and m != column_space_basis(m):
            raise InvalidIdeal(f"span at ({x},{y}) is not a reduced basis")
    for side, composition in (("left", "postcomposition"), ("right", "precomposition")):
        for x in c.objects:
            try:
                ideal_representable(c, ideal, x, side)
            except InvalidModule as exc:
                raise InvalidIdeal(f"not closed under {composition}: {exc}") from None
    return ideal


def verify_dd(cx):
    """Indices n with d^{n+1} o d^n != 0 in the cochain complex cx (empty
    = complex)."""
    return [n for n in range(len(cx.diffs) - 1)
            if not cx.diffs[n + 1].mul(cx.diffs[n]).is_zero()]


def verify_resolution(res, up_to=None):
    """Composite-zero, surjectivity and rank-exactness checks of a
    `modcat.FreeResolution` through level up_to; returns a list of failure
    strings (empty = certified exact)."""
    up_to = res.length if up_to is None else min(up_to, res.length)
    failures = []
    for y in res.base.objects:
        mats = [res.aug_matrix(y)] + [res.map_matrix(k, y) for k in range(1, up_to + 1)]
        if rank(mats[0]) != res.module.dims[y]:
            failures.append(f"augmentation not surjective at {y}")
        for k in range(1, up_to + 1):
            if not mats[k - 1].mul(mats[k]).is_zero():
                failures.append(f"d_{k-1} o d_{k} nonzero at {y}")
            if mats[k - 1].cols - rank(mats[k - 1]) != rank(mats[k]):
                failures.append(f"not exact at degree {k-1}, object {y}")
    return failures


# ---------------------------------------------------------------------------
# modules

def zero_module(c, side="left"):
    return CatModule(c, side, {}, {}, check=False)


def direct_sum(modules):
    if not modules:
        raise ValueError("direct sum of nothing")
    base, side = modules[0].base, modules[0].side
    for m in modules:
        if m.base != base or m.side != side:
            raise BaseMismatch("direct sum of incompatible modules")
    dims = {x: sum(m.dims[x] for m in modules) for x in base.objects}
    act = {(x, y, i): block_diag(base.field, [m.act_mat(x, y, i) for m in modules])
           for x, y, i in live_morphisms(base, dims, dims)}
    return CatModule(base, side, dims, act, check=False)


def as_right_over_op(m, base_op=None):
    """A left C-module is the same thing as a right module over C^op."""
    return _over_op(m, "left", "right", base_op)


def _orbit_closure(m, seeds, spaces=None):
    """Echelon spans of the submodule generated by (object, vector) seeds,
    grown in place from `spaces` when given (they must already span a
    submodule).  The submodule generated by v in M(x) is the image of
    f -> f.v on C(x,-) (Yoneda), so one pass over the basis morphisms out
    of x closes it; a seed already inside the spans adds nothing."""
    c = m.base
    if spaces is None:
        spaces = {x: EchelonSpace(c.field, m.dims[x]) for x in c.objects}
    for x, vec in seeds:
        if not spaces[x].contains(vec):
            for y, mat in m.out_arrows(x):
                spaces[y].add(mat.mul_vec(vec))
    return spaces


def random_module(c, rng, side="left"):
    """A nonzero quotient of one or two representables by at most two
    seeded vectors, drawn from rng; a zero quotient is drawn again."""
    while True:
        p = direct_sum([representable(c, rng.choice(c.objects), side)
                        for _ in range(rng.randrange(1, 3))])
        seeds = []
        for _ in range(rng.randrange(0, 3)):
            x = rng.choice(c.objects)
            if p.dims[x]:
                seeds.append((x, tuple(c.field.of(rng.randrange(-2, 3))
                                       for _ in range(p.dims[x]))))
        if not seeds:
            return p
        spans = _orbit_closure(p, seeds)
        m = quotient_module(p, {x: ComplementData(spans[x].basis_matrix()) for x in c.objects})
        if not m.is_zero():
            return m


# ---------------------------------------------------------------------------
# tensors and Tor

def tensor_over_cat(n, m):
    """n tensor_C m for a right module n and a left module m, as the
    complement (`ComplementData`) of the relations of Hom(m, D(n)), with
    n(x) tensor m(x) at the offsets of that system's blocks."""
    if n.base != m.base:
        raise BaseMismatch("tensor over different base categories")
    if n.side != "right" or m.side != "left":
        raise BaseMismatch("tensor_over_cat takes (right, left)")
    _, relations = _intertwining_system(m, dualize(n))
    return ComplementData(relations.transpose())


def tor(n, m, max_deg=4, res=None):
    """Tor_0..Tor_max_deg dimensions (n right, m left, same base)."""
    if n.base != m.base:
        raise BaseMismatch("tor over different bases")
    if n.side != "right" or m.side != "left":
        raise BaseMismatch("tor takes (right, left)")
    if res is None:
        res = projective_resolution(m, max_deg + 1)
    return _dims_up_to_top(tor_data, res, n, max_deg)


def swap_product_module(m, swapped_base=None):
    """Transport a left module over A tensor B to one over B tensor A."""
    ab = m.base.product_of
    if ab is None:
        raise BaseMismatch("module base is not a tensor product category")
    a, b = ab
    if swapped_base is None:
        swapped_base = tensor_category(b, a)
    return _product_module(
        swapped_base,
        lambda b1, a1: m.dims[pair_object(a1, b1)],
        lambda b1, a1, b2, a2, j, i: m.act_mat(pair_object(a1, b1), pair_object(a2, b2),
                                               i * b.dim(b1, b2) + j))


def outer_tensor(m, n, product=None):
    """(m outer-tensor n)(x,d) = m(x) tensor n(d) as a left module over
    C^op tensor D, for a right C-module m and a left D-module n."""
    if m.side != "right" or n.side != "left":
        raise BaseMismatch("outer_tensor takes (right, left)")
    c_op = opposite(m.base)
    if product is None:
        product = tensor_category(c_op, n.base)
    elif product.product_of != (c_op, n.base):
        raise BaseMismatch("outer tensor over a product of other factors")
    return _product_module(
        product, lambda x, d: m.dims[x] * n.dims[d],
        lambda x1, d1, x2, d2, i, j: kron(m.act_mat(x2, x1, i), n.act_mat(d1, d2, j)))


def hom_module(f, h, product=None):
    """Hom_K(f(-), h(?)) as a left module over C^op tensor D for a left
    C-module f and a left D-module h: the outer tensor of the dual D(f)
    with h, so the value basis at (x,d) is the dual basis of f(x) tensor
    the basis of h(d)."""
    if f.side != "left" or h.side != "left":
        raise BaseMismatch("hom_module takes two left modules")
    return outer_tensor(dualize(f), h, product)


def _factor_slice(m, first, far):
    """The left module over the factor A (first) or B of m's base
    A tensor B that a left module m restricts to at the object far of the
    other factor, acted on through `slot_action`."""
    a, b = m.base.product_of
    factor = a if first else b
    values = {x: m.dims[pair_object(x, far) if first else pair_object(far, x)]
              for x in factor.objects}
    act = {(x, y, i): slot_action(m, first, x, y, i, far)
           for x, y, i in live_morphisms(factor, values, values)}
    return CatModule(factor, "left", values, act, check=False)


def boxtimes(f, g, out_base=None):
    """Mitchell's box tensor: contract a left C-module (or a module over
    E^op tensor C) against a module over C^op tensor D.

    Returns a left D-module in the plain case and a left module over
    E^op tensor D in the bimodule case.  The plain case is the bimodule
    case over the unit category E: f is lifted to a module over
    E^op tensor C and the result collapsed back onto D."""
    prod = g.base.product_of
    if prod is None:
        raise BaseMismatch("second factor must live over a tensor product category")
    c_op, d = prod
    c = opposite(c_op)
    if f.base.product_of is not None and f.base.product_of[1] == c:
        return _contract(f, g, c, d, out_base)
    if f.base != c:
        raise BaseMismatch("first factor is not a module over the contracted category")
    if f.side != "left" or g.side != "left":
        raise BaseMismatch("boxtimes takes left modules")
    out = _contract(over_unit(f), g, c, d, None)
    back = {pair_object("*", dd): dd for dd in d.objects}
    return CatModule(d, "left", {back[p]: k for p, k in out.dims.items()},
                     {(back[p], back[q], j): mat for (p, q, j), mat in out.act.items()},
                     check=False)


def _contract(f, g, c, d, out_base):
    """f over E^op tensor C contracted against g over C^op tensor D: at
    (eps,d) the tensor over C of the right C-module g(-,d) with the left
    C-module f(eps,-), acted on blockwise through the outer slots."""
    e_op = f.base.product_of[0]
    if out_base is None:
        out_base = tensor_category(e_op, d)
    f_slices = {eps: _factor_slice(f, False, eps) for eps in e_op.objects}
    # a left C^op-module is a right C-module
    g_slices = {dd: as_right_over_op(_factor_slice(g, True, dd), c) for dd in d.objects}
    spaces = {(eps, dd): tensor_over_cat(g_slices[dd], f_slices[eps])
              for eps in e_op.objects for dd in d.objects}

    def action(eps, dd, eps2, dd2, ii, jj):
        blocks = [kron(slot_action(g, False, dd, dd2, jj, x),
                       slot_action(f, True, eps, eps2, ii, x)) for x in c.objects]
        big = block_diag(c.field, blocks, spaces[(eps2, dd2)].ambient,
                         spaces[(eps, dd)].ambient)
        return spaces[(eps2, dd2)].proj.mul(big).mul(spaces[(eps, dd)].section)

    out = _product_module(out_base, lambda eps, dd: spaces[(eps, dd)].dim, action)
    out.validate()
    return out
