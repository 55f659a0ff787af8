"""Quiver presentations: the path category modulo relations, certified finite.

A relation is a linear combination of parallel paths.  The presentation
is certified finite when, for some length L no larger than bound + 1,
every path of length L lies in the relation ideal (L is a dead length):
every longer path has a prefix of length L, so it lies there too.  The
Hom spaces are then spanned by the paths shorter than L, and their basis
is the paths that are not pivots of the ideal's reduced echelon form,
with the paths of each Hom space ordered by length and then in the order
they were enumerated.

When every relation is homogeneous (all its paths have one length) the
ideal is graded: its part I_l in length l is spanned by the relations of
length l and the one-arrow products, on either side, of I_(l-1).  The
paths are then enumerated and reduced one length at a time, and the
enumeration stops at the first dead length, so the bound is a ceiling,
not a work size.  A non-homogeneous relation breaks the grading: all
paths up to length bound + 1 are reduced together, a product u*r*v of a
relation r with a path longer than that is set aside, and every path of
length bound + 1 must lie in the span of all the other products.  That is
the certificate, whatever the order of the relations, and it needs the
uncut span: `x*x - x*x*x` never certifies.  Once it holds, every longer
path lies in the ideal, so each product set aside, cut to its paths of
length at most bound + 1, is an ideal element too; these are added, with
their own products, until none is left.  So the bound decides only
whether a presentation certifies, never which category it builds.  In
both cases at most MAX_PATHS paths are enumerated, and the result is
kQ/I by construction, so it is not validated again.

References: Bergman, "The diamond lemma for ring theory", 1978; Green,
"Noncommutative Gröbner bases, and projective resolutions", 1999.
"""

from __future__ import annotations

from fractions import Fraction

from .exactla import EchelonSpace
from .kcat import EMPTY_ROW, FiniteKCategory

MAX_PATHS = 20000


class FinitenessError(ValueError):
    pass


class UnresolvedName(ValueError):
    pass


def coefficient(field, text):
    """The field element that a coefficient written in a workspace stands
    for; a denominator that vanishes in GF(p) is bad input, not a bug."""
    try:
        return field.of(text)
    except ZeroDivisionError as exc:     # the denominator is a multiple of p
        raise UnresolvedName(f"coefficient {text} is not defined in {field}: "
                             f"its denominator vanishes") from exc


def build_quiver_category(field, objects, arrows, relations, bound):
    """Path category modulo relations, certified finite at `bound`.

    relations come in as [(coefficient string, [arrow names])] term lists;
    paths in the source are written right-to-left (b*a = a then b) and are
    stored in application order.
    """
    objects = list(objects)
    if len(set(objects)) != len(objects) or not objects:
        raise FinitenessError("object list empty or duplicated")
    arrow_map = {}
    for name, s, g in arrows:
        if name in arrow_map:
            raise UnresolvedName(f"duplicate arrow {name}")
        if s not in objects or g not in objects:
            raise UnresolvedName(f"arrow {name} references unknown objects")
        arrow_map[name] = (s, g)
    cap = bound + 1
    rows = _relation_rows(field, arrow_map, relations, cap)
    levels = _levels(objects, arrow_map)
    outside = []                 # non-homogeneous products past the cap
    if all(len({len(p) for p in row}) == 1 for _, row in rows):
        pieces = []
        for _, level in zip(range(cap + 1), levels):
            pieces.append(_Piece(field, level))
            rows = pieces[-1].saturate(rows, arrow_map)
            if pieces[-1].dead():
                break
        piece_of = dict(enumerate(pieces))
    else:
        level_list = [level for _, level in zip(range(cap + 1), levels)]
        merged = {(x, y): [p for level in level_list for p in level.get((x, y), ())]
                  for x in objects for y in objects}
        pieces = [_Piece(field, merged)]
        outside = pieces[0].saturate(rows, arrow_map, every=True)
        piece_of = dict.fromkeys(range(cap + 1), pieces[0])

    # the certificate: every path of length cap lies in the ideal (no such
    # path is left when an earlier length died)
    last = pieces[-1]
    for x in objects:
        for y in objects:
            for p in last.paths.get((x, y), ()):
                if len(p) == cap and not last.contains((x, y), p):
                    raise FinitenessError(
                        f"path {'*'.join(reversed(p))} of length {cap} does not reduce "
                        f"to 0; cannot certify finite Hom spaces at bound {bound}")
    # certified, every path longer than cap lies in the ideal, so a product
    # left outside is still an ideal element once its long paths are cut
    while outside:
        outside = last.saturate([(pair, {p: c for p, c in row.items() if len(p) <= cap})
                                 for pair, row in outside], arrow_map)

    basis_paths = {(x, y): [] for x in objects for y in objects}
    for piece in pieces:
        piece.place(basis_paths)
    hom = {}
    for (x, y), surviving in basis_paths.items():
        names = [f"e{x}" if not p else "*".join(reversed(p)) for p in surviving]
        if len(set(names)) != len(names):
            raise UnresolvedName(f"colliding basis labels in Hom({x},{y})")
        hom[(x, y)] = tuple(names)

    def row(pair, path):
        # a path longer than the bound is zero, in the ideal or not, and so
        # is one past the first dead length
        if len(path) > bound or len(path) not in piece_of:
            return EMPTY_ROW
        return piece_of[len(path)].coords(pair, path) or EMPTY_ROW

    rows = {}
    for x in objects:
        for y in objects:
            if not hom[(x, y)]:
                continue
            for z in objects:
                if not hom[(y, z)]:
                    continue
                rows[(x, y, z)] = tuple(
                    tuple(row((x, z), p + q) for q in basis_paths[(y, z)])
                    for p in basis_paths[(x, y)])
    zero = field.zero()
    identities = {x: tuple(row((x, x), ()).get(t, zero) for t in range(len(hom[(x, x)])))
                  for x in objects}
    return FiniteKCategory(field, objects, hom, rows, identities, paths=basis_paths)


def _relation_rows(field, arrow_map, relations, cap):
    """Each relation as (Hom pair, {path: nonzero coefficient}), paths in
    application order; relations whose terms all cancel are dropped."""
    rows = []
    for terms in relations:
        pair = None
        row = {}
        for coeff, names in terms:
            c = coefficient(field, coeff)
            if not names:
                if Fraction(coeff) != 0:
                    raise UnresolvedName("scalar terms are not valid in relations")
                continue
            # written right-to-left: reverse into application order
            seq = tuple(reversed(names))
            for a in seq:
                if a not in arrow_map:
                    raise UnresolvedName(f"unknown arrow {a!r}")
            for a, b in zip(seq, seq[1:]):
                if arrow_map[a][1] != arrow_map[b][0]:
                    raise UnresolvedName(f"path {'*'.join(names)} does not compose")
            p = (arrow_map[seq[0]][0], arrow_map[seq[-1]][1])
            if pair is None:
                pair = p
            elif pair != p:
                raise UnresolvedName("relation mixes different Hom spaces")
            if len(seq) > cap:
                raise FinitenessError("relation path exceeds the length bound")
            row[seq] = field.add(row.get(seq, field.zero()), c)
        row = {seq: c for seq, c in row.items() if c}
        if row:
            rows.append((pair, row))
    return rows


def _levels(objects, arrow_map):
    """The paths of length 0, 1, 2, ... as {Hom pair: [path]}, each path a
    tuple of arrow names in application order; () at (x, x) is the
    identity.  Raises once more than MAX_PATHS paths have been made."""
    out = {x: [] for x in objects}
    for name, (s, g) in arrow_map.items():
        out[s].append((name, g))
    level = {(x, x): [()] for x in objects}
    total = len(objects)
    while True:
        yield level
        longer = {}
        for (x, y), plist in level.items():
            for p in plist:
                for name, g in out[y]:
                    longer.setdefault((x, g), []).append(p + (name,))
                total += len(out[y])
                if total > MAX_PATHS:
                    raise FinitenessError(
                        f"path enumeration exceeded {MAX_PATHS} paths; the quiver is "
                        "too large or not plausibly finite at this bound")
        level = longer


class _Piece:
    """Paths of one length, or of every length up to the cap, in each Hom
    space, and the span of the relation ideal on them: an `EchelonSpace`
    whose columns are the paths in order."""

    def __init__(self, field, paths):
        self.field = field
        self.paths = paths
        self.index = {pair: {p: j for j, p in enumerate(plist)}
                      for pair, plist in paths.items()}
        self.spans = {pair: EchelonSpace(field, len(plist)) for pair, plist in paths.items()}
        self.position = {}           # pair -> {free column: basis index}

    def saturate(self, work, arrow_map, every=False):
        """Add the rows in `work` to the spans, with the one-arrow products
        of each row that grows one, or with `every` of each row not seen
        before: a row in the span may have products in the piece that the
        rows spanning it only reach through products outside it.  A row
        with a path outside this piece is not added; the rows left out are
        returned."""
        work = list(work)
        outside = []
        seen = set()
        while work:
            (x, y), row = work.pop()
            cols = self.index.get((x, y), {})
            try:
                vec = {cols[p]: c for p, c in row.items()}
            except KeyError:
                outside.append(((x, y), row))
                continue
            grew = self.spans[(x, y)].add(vec)
            if every:
                key = ((x, y), frozenset(row.items()))
                grew = key not in seen
                seen.add(key)
            if not grew:
                continue
            for name, (s, g) in arrow_map.items():
                if s == y:
                    work.append(((x, g), {p + (name,): c for p, c in row.items()}))
                if g == x:
                    work.append(((s, y), {(name,) + p: c for p, c in row.items()}))
        return outside

    def dead(self):
        """Whether every path here lies in the ideal."""
        return all(self.spans[pair].dim == len(plist) for pair, plist in self.paths.items())

    def contains(self, pair, path):
        return self.spans[pair].contains({self.index[pair][path]: self.field.one()})

    def place(self, basis_paths):
        """Append the paths that are not pivots to the Hom bases."""
        for pair, plist in self.paths.items():
            rows = self.spans[pair].rows
            base = basis_paths[pair]
            self.position[pair] = position = {}
            for j, p in enumerate(plist):
                if j not in rows:
                    position[j] = len(base)
                    base.append(p)

    def coords(self, pair, path):
        """{basis index: coefficient} of the path modulo the ideal, keys
        ascending: itself when it is a basis path, otherwise minus the rest
        of its pivot row."""
        j = self.index[pair][path]
        position = self.position[pair]
        if j in position:
            return {position[j]: self.field.one()}
        neg = self.field.neg
        return {position[c]: neg(v)
                for c, v in sorted(self.spans[pair].rows[j].items()) if c != j}
