"""Executable verification pipelines for the long-exact-sequence results.

The central construction: an idempotent ideal with projective I(x,-)
gives a short exact sequence of bimodules 0 -> I -> C -> H -> 0 (H is
the quotient of the regular bimodule by I).  Applying
Hom(P_., -) of a projective bimodule resolution of C to the three
coefficients yields a degreewise-exact short exact sequence of cochain
complexes; connecting maps are then computed literally (lift a cocycle
through the surjection, apply the differential, pull back through the
injection) and every exactness flag is a genuine kernel/image rank
comparison, never bookkeeping.

The triangular pipelines (`cmp`, `happel`) name the objects of the
triangular matrix category Lambda = [T 0; M U] but compute on its model
(`kcat.triangular_model`), one object [T;] per object of T and one [;U]
per object of U, with its own triangular ideal.  Both sides of the
sequence are Morita invariant, so every table is Lambda's; the audit
reports each object [T;U] of Lambda, since I([T;U],-) is the sum of
I([T;],-) and I([;U],-) and projective exactly when both are.
"""

from __future__ import annotations

from .exactla import (ComplementData, Mat, VerificationFailed, block_diag, kernel_basis, product,
                      rank, solve)
from .kcat import (enveloping, one_point_data, opposite, pair_object, quotient_category,
                   triangular_model)
from .ideals import is_idempotent, opposite_ideal, triangular_ideal
from .modcat import (
    ModuleMap, dualize, ext, ext_data, ideal_bimodule, ideal_representable, is_projective,
    level_gens, module_hom, projective_resolution, quotient_module, quotient_representable,
    regular_bimodule, representable, restrict_module, simple, InvalidModule,
)
from .hochschild import hochschild_cohomology


class HypothesisFailed(Exception):

    def __init__(self, reasons):
        super().__init__("; ".join(reasons))
        self.reasons = reasons


class ResolutionTooShort(ValueError):
    pass


class ZeroModule(ValueError):
    pass


class SESOfBimodules:
    """0 -> sub -> mid -> quot -> 0 over the enveloping category, with
    exactness rank-verified at every object."""

    def __init__(self, sub, mid, quot, inclusion, projection):
        self.sub = sub
        self.mid = mid
        self.quot = quot
        self.inclusion = inclusion
        self.projection = projection
        self.verify()

    def verify(self):
        for x in self.mid.base.objects:
            inc = self.inclusion.mat_at(x)
            prj = self.projection.mat_at(x)
            rank_inc, rank_prj = rank(inc), rank(prj)
            if rank_inc != self.sub.dims[x]:
                raise InvalidModule(f"inclusion not injective at {x}")
            if rank_prj != self.quot.dims[x]:
                raise InvalidModule(f"projection not surjective at {x}")
            if not product(prj, inc).is_zero():
                raise InvalidModule(f"projection o inclusion nonzero at {x}")
            if self.mid.dims[x] - rank_prj != rank_inc:
                raise InvalidModule(f"image != kernel at {x}")
        return True


def canonical_ses(c, ideal, env=None, regular=None):
    """The sequence 0 -> I -> C -> H -> 0 in bimodules, with H = C/I the
    quotient of the regular bimodule by the ideal.  Its basis at (x1,x2)
    is the ideal's complement of I(x1,x2), the Hom basis of the quotient
    category, so the projection there is the quotient functor's matrix on
    Hom(x1,x2)."""
    if regular is None:
        regular = regular_bimodule(c, env)
    sub, incl = ideal_bimodule(c, ideal, regular=regular)
    comps = {pair_object(x1, x2): ideal.complement(x1, x2)
             for x1 in c.objects for x2 in c.objects}
    h = quotient_module(regular, comps)
    proj = ModuleMap(regular, h, {p: comp.proj for p, comp in comps.items()})
    return SESOfBimodules(sub, regular, h, incl, proj)


class LESReport:
    """Dimension tables, maps (including connecting homomorphisms) and
    literal exactness flags for the assembled long exact sequence."""

    def __init__(self, max_degree, dims, maps, exact_at, hypotheses=None, notes=None):
        self.max_degree = max_degree
        self.dims = dims              # {"ExtCI": [...], "HC": [...], "HB": [...]}
        self.maps = maps              # {"incl": [...], "proj": [...], "delta": [...]}
        self.exact_at = exact_at
        self.hypotheses = hypotheses or {}
        self.notes = notes or []
        self.identifications = {}     # name -> flag, list of flags, or a table of dims

    def all_exact(self):
        return all(self.exact_at)

    @property
    def passed(self):
        """Exact everywhere, and every identification flag recorded holds;
        the dimension tables among the identifications are not flags."""
        flags = [v for value in self.identifications.values()
                 for v in (value if isinstance(value, list) else [value])]
        return self.all_exact() and all(v for v in flags if isinstance(v, bool))


class _CohomologyData:
    """Cocycle bases and class coordinates of one cochain complex."""

    def __init__(self, field, data, upto):
        dims, diffs = data.dims, data.diffs
        self.field = field
        self.cocycles = []
        self.class_proj = []
        self.dims = []
        for n in range(upto + 1):
            z = kernel_basis(diffs[n]) if n < len(diffs) else Mat.identity(field, dims[n])
            if n == 0:
                bnd_in_z = Mat.zeros(field, z.cols, 0)
            else:
                bnd_in_z = solve(z, diffs[n - 1])
                if bnd_in_z is None:
                    raise VerificationFailed("boundaries are not cocycles")
            comp = ComplementData(bnd_in_z)
            self.cocycles.append(z)
            self.class_proj.append(comp)
            self.dims.append(comp.dim)

    def classes_of(self, n, vectors):
        """Class coordinates of explicit cocycle vectors."""
        z = self.cocycles[n]
        cols = []
        for v in vectors:
            coords = solve(z, Mat.from_cols(self.field, [v], rows=z.rows))
            if coords is None:
                raise VerificationFailed("vector is not a cocycle")
            cols.append(self.class_proj[n].proj.mul_vec(coords.col(0)))
        return Mat.from_cols(self.field, cols, rows=self.dims[n])

    def representative(self, n, k):
        """A cocycle vector representing the k-th cohomology basis class."""
        zcoords = self.class_proj[n].section.col(k)
        return self.cocycles[n].mul_vec(zcoords)


def les_from_ses(res, ses, max_deg):
    """Assemble the long exact sequence from a projective resolution of
    the middle bimodule and the coefficient SES."""
    env = res.base
    n_internal = max_deg + 1
    if res.length < n_internal + 1:
        raise ResolutionTooShort(
            f"resolution of length {res.length} cannot certify degree {max_deg}"
            f" (needs {n_internal + 1})")
    field = env.field
    data_i, data_c, data_h = (ext_data(res, m, n_internal) for m in (ses.sub, ses.mid, ses.quot))
    diffs_i, diffs_c, diffs_h = data_i.diffs, data_c.diffs, data_h.diffs

    def chain_map(mod_map):
        # Hom(C(x,-), N) = N(x): the map acts at each generator by its component
        return [block_diag(field, [mod_map.mat_at(x) for x in level_gens(res, k)])
                for k in range(n_internal + 2)]

    incl_chain = chain_map(ses.inclusion)
    proj_chain = chain_map(ses.projection)
    for k in range(n_internal + 1):
        if product(diffs_c[k], incl_chain[k]) != product(incl_chain[k + 1], diffs_i[k]):
            raise VerificationFailed(
                f"inclusion cochain map does not commute with the differentials at degree {k}")
        if product(diffs_h[k], proj_chain[k]) != product(proj_chain[k + 1], diffs_c[k]):
            raise VerificationFailed(
                f"projection cochain map does not commute with the differentials at degree {k}")

    coh_i, coh_c, coh_h = (_CohomologyData(field, data, n_internal)
                           for data in (data_i, data_c, data_h))

    def induced(coh_src, coh_tgt, chain, n):
        reps = [coh_src.representative(n, k) for k in range(coh_src.dims[n])]
        images = [chain[n].mul_vec(v) for v in reps]
        return coh_tgt.classes_of(n, images)

    incl_maps = [induced(coh_i, coh_c, incl_chain, n) for n in range(max_deg + 1)]
    proj_maps = [induced(coh_c, coh_h, proj_chain, n) for n in range(max_deg + 1)]
    deltas = []
    for n in range(max_deg + 1):
        cols = []
        for k in range(coh_h.dims[n]):
            z = coh_h.representative(n, k)
            y = solve(proj_chain[n], Mat.from_cols(field, [z], rows=len(z)))
            if y is None:
                raise VerificationFailed("cochain surjection failed to lift a cocycle")
            w = product(diffs_c[n], y)
            v = solve(incl_chain[n + 1], w)
            if v is None:
                raise VerificationFailed("differential of a lift missed the subcomplex")
            cols.append(v.col(0))
        deltas.append(coh_i.classes_of(n + 1, cols))

    # exactness at each node of
    # 0 -> A_0 -> B_0 -> C_0 -> A_1 -> ...
    exact_at = []
    for n in range(max_deg + 1):
        incoming_a = deltas[n - 1] if n >= 1 else Mat.zeros(field, coh_i.dims[0], 0)
        exact_at.append(_exact_at_node(incoming_a, incl_maps[n]))
        exact_at.append(_exact_at_node(incl_maps[n], proj_maps[n]))
        exact_at.append(_exact_at_node(proj_maps[n], deltas[n]))
    dims = {name: coh.dims[:max_deg + 1]
            for name, coh in (("ExtCI", coh_i), ("HC", coh_c), ("HB", coh_h))}
    maps = {"incl": incl_maps, "proj": proj_maps, "delta": deltas}
    notes = [f"exactness verified up to degree {max_deg}",
             f"internal cochain degree {n_internal + 1}"]
    return LESReport(max_deg, dims, maps, exact_at, notes=notes)


def _exact_at_node(incoming, outgoing):
    """im(incoming) == ker(outgoing), decided by ranks."""
    if not product(outgoing, incoming).is_zero():
        return False
    return rank(incoming) == outgoing.cols - rank(outgoing)


# ---------------------------------------------------------------------------
# strong idempotency checking

class CheckReport:

    def __init__(self, max_degree):
        self.max_degree = max_degree
        self.rows = []        # (condition, object, sample, [dims 1..N])
        self.witness = None

    def record(self, condition, x, sample_name, dims):
        ok = all(d == 0 for d in dims)
        self.rows.append((condition, x, sample_name, list(dims), ok))
        if not ok and self.witness is None:
            degree = next(i for i, d in enumerate(dims, start=1) if d)
            self.witness = {
                "condition": condition, "object": x, "sample": sample_name,
                "degree": degree, "dim": dims[degree - 1],
            }

    @property
    def passed(self):
        return all(ok for *_, ok in self.rows)


DUAL_KIND = {"rep": "dual-rep", "simple": "simple", "dual-rep": "rep"}


def default_quotient_samples(b):
    """Sample modules over the quotient B as (kind, object y, module):
    B(y,-), the simple at y where End(y) is local, and D B(-,y).  The
    linear dual D carries them onto the samples over B^op of kind
    DUAL_KIND[kind] at y; End(y) is local over B exactly when it is over
    B^op, so the simples exist on both sides or on neither."""
    samples = [("rep", y, representable(b, y, "left")) for y in b.objects]
    for y in b.objects:
        try:
            samples.append(("simple", y, simple(b, y, "left")))
        except InvalidModule:
            pass
    samples += [("dual-rep", y, dualize(representable(b, y, "right"))) for y in b.objects]
    return samples


def strongly_idempotent_check(c, ideal, max_deg=4):
    """Vanishing checks characterizing strong idempotency, run degreewise
    up to max_deg on sample modules over the quotient, on C and mirrored
    on C^op ("op:" rows).

    Each side resolves its quotient representables C/I(x,-) once and
    keeps one table of rows Ext^{1..max_deg}(C/I(x,-), M), per pulled-back
    sample M and object x.  Tor^C_n(C/I(-,x), M) is Tor over C^op of M
    against C^op/I^op(x,-), and over a field D Tor_n(N, M) = Ext^n(M, DN)
    (Cartan-Eilenberg, Homological Algebra, VI.5), so the Tor row of M at
    x is the other side's Ext row at x for the dual sample D(M)."""
    c_op = opposite(c)
    sides = [(c, ideal, ""), (c_op, opposite_ideal(ideal, c_op), "op:")]
    tables = [{}, {}]
    for (cat, i, _), table in zip(sides, tables):
        resolved = [projective_resolution(quotient_representable(cat, i, x), max_deg + 1)
                    for x in c.objects]
        for kind, y, sample in default_quotient_samples(quotient_category(cat, i)):
            module = restrict_module(sample, i)
            table[kind, y] = [ext(res.module, module, max_deg, res=res)[1:] for res in resolved]
    report = CheckReport(max_deg)
    for s, (_, _, prefix) in enumerate(sides):
        for (kind, y), ext_rows in tables[s].items():
            tor_rows = tables[1 - s].get((DUAL_KIND[kind], y))
            if tor_rows is None:
                # D carries every sample on one side onto one on the other
                raise VerificationFailed(f"sample {kind}({y}) has no dual on the mirror side")
            condition = "tor-vanishing-projective" if kind == "rep" else "tor-vanishing"
            for x, ext_row, tor_row in zip(c.objects, ext_rows, tor_rows):
                report.record(prefix + "ext-vanishing", x, f"{kind}({y})", ext_row)
                report.record(prefix + condition, x, f"{kind}({y})", tor_row)
    return report


# ---------------------------------------------------------------------------
# the main pipelines

def audit_hypotheses(c, ideal, ideal_modules=None):
    """Idempotency plus projectivity of every I(x,-) (given by object in
    ideal_modules, or built here); returns (ok, details)."""
    reasons = []
    idem = is_idempotent(ideal)
    if not idem:
        reasons.append("ideal is not idempotent")
    if ideal_modules is None:
        ideal_modules = {x: ideal_representable(c, ideal, x) for x in c.objects}
    projective = {x: is_projective(ideal_modules[x]) for x in c.objects}
    pieces = c.triangular and c.triangular["pieces"]
    if pieces:
        # a triangular model reports the objects of Lambda: I([T;U],-) is
        # the sum of I([T;],-) and I([;U],-), projective exactly when both are
        projective = {x: projective[a] and projective[b] for x, (a, b) in pieces.items()}
    for x, ok in projective.items():
        if not ok:
            reasons.append(f"I({x},-) is not projective")
    return {
        "idempotent": idem,
        "ideal_module_projective": projective,
        "ok": not reasons,
        "reasons": reasons,
    }


def theorem_les_pipeline(c, ideal, max_deg=4):
    """Audit the hypotheses, build the SES and assemble the long exact
    sequence, then verify the identification lemmas as dimension
    equalities (the degree-0 one also by an explicit embedding)."""
    ideal_modules = {x: ideal_representable(c, ideal, x) for x in c.objects}
    audit = audit_hypotheses(c, ideal, ideal_modules)
    if not audit["ok"]:
        raise HypothesisFailed(audit["reasons"])
    env = enveloping(c)
    regular = regular_bimodule(c, env)
    ses = canonical_ses(c, ideal, env=env, regular=regular)
    res = projective_resolution(regular, max_deg + 2)
    report = les_from_ses(res, ses, max_deg)
    report.hypotheses = audit

    hb_independent = hochschild_cohomology(quotient_category(c, ideal), max_deg)
    identifications = {
        "HB_independent": hb_independent,
        "hom_CH_equals_H0B": report.dims["HB"][0] == hb_independent[0],
        "ext_CH_equals_HB": [report.dims["HB"][i] == hb_independent[i]
                             for i in range(max_deg + 1)],
    }
    ext_ih = ext(ses.sub, ses.quot, max_deg)
    identifications["ext_IH"] = ext_ih
    identifications["ext_IH_vanishes"] = all(d == 0 for d in ext_ih)

    # degree 0, explicitly: composing with the projection embeds
    # Hom(H,H) into Hom(C,H) and the ranks agree
    hom_hh = module_hom(ses.quot, ses.quot)
    hom_ch = module_hom(ses.mid, ses.quot)
    composed = [ses.projection.then(hom_hh.map_at(k)).flatten() for k in range(hom_hh.dim)]
    emb_rank = rank(Mat.from_cols(env.field, composed))
    identifications["H0_embedding"] = (
        emb_rank == hom_hh.dim and hom_hh.dim == hom_ch.dim)

    # vanishing of Ext(I(x,-), H(x'',-)) over Mod(C), all object pairs,
    # with one resolution per I(x,-)
    hmods = [quotient_representable(c, ideal, x2, "left") for x2 in c.objects]
    lemma_rows = []
    for x in c.objects:
        imod = ideal_modules[x]
        ires = projective_resolution(imod, max_deg + 1)
        lemma_rows += [ext(imod, hmod, max_deg, res=ires) for hmod in hmods]
    identifications["one_sided_ext_vanishing"] = all(d == 0 for row in lemma_rows for d in row)

    report.notes.append("identifications recorded in report.identifications")
    report.identifications = identifications
    return report


def triangular_les_pipeline(t, u, m, max_deg=4):
    """`theorem_les_pipeline` for the triangular matrix category
    [T 0; M U] and its triangular ideal, computed on its model."""
    model = triangular_model(t, u, m)
    return theorem_les_pipeline(model, triangular_ideal(model), max_deg)


def cmp_pipeline(t, u, m, max_deg=4):
    """Long exact sequence of a triangular matrix category against its U
    factor; the hypothesis audit must pass structurally."""
    report = triangular_les_pipeline(t, u, m, max_deg)
    hu = hochschild_cohomology(u, max_deg)
    report.identifications["HU"] = hu
    report.identifications["HB_equals_HU"] = [
        report.dims["HB"][i] == hu[i] for i in range(max_deg + 1)]
    report.notes.append("quotient cohomology compared against the U factor")
    return report


class HappelReport:

    def __init__(self, les, hom_dim, ext_self, identities):
        self.les = les
        self.hom_dim = hom_dim
        self.ext_self = ext_self
        self.identities = identities     # list of (label, lhs, rhs, ok)

    @property
    def passed(self):
        return self.les.passed and all(ok for *_, ok in self.identities)


def happel_pipeline(u, module, max_deg=4):
    """One-point extension: the triangular sequence rewritten through
    End(M)/K and Ext^i(M,M)."""
    if module.is_zero():
        raise ZeroModule("one-point extension of the zero module has no scalar line")
    les = triangular_les_pipeline(*one_point_data(u, module), max_deg)
    h = module_hom(module, module).dim - 1
    e = ext(module, module, max_deg)
    identities = [("Hom(Lambda,I) = 0", les.dims["ExtCI"][0], 0,
                   les.dims["ExtCI"][0] == 0)]
    if max_deg >= 1:
        identities.append(("Ext^1(Lambda,I) = dim End(M) - 1",
                           les.dims["ExtCI"][1], h, les.dims["ExtCI"][1] == h))
    for n in range(2, max_deg + 1):
        identities.append((f"Ext^{n}(Lambda,I) = Ext^{n-1}(M,M)",
                           les.dims["ExtCI"][n], e[n - 1],
                           les.dims["ExtCI"][n] == e[n - 1]))
    return HappelReport(les, h + 1, e, identities)
