"""Finiteness certification of quiver presentations (homcat.certify)."""

import hashlib
import itertools
import random
import time

import pytest

from homcat.certify import FinitenessError, build_quiver_category
from homcat.cli import Workspace, main, parse
from homcat.exactla import Field, report_form
from homcat.hochschild import hochschild_cohomology
from homcat.reference import compose_basis

Q = Field.rationals()
F = Field.gf(32003)
FIELDS = [Q, Field.gf(2), Field.gf(3), F]

TWO_LOOPS_SRC = """\
category C over {field}
quiver
object s
arrow x: s -> s
arrow y: s -> s
rel x*x = 0
rel y*x = 0
rel x*y = 0
rel y*y = 0
"""


@pytest.mark.parametrize("field", ["GF(32003)", "Q"])
def test_two_loops_certify_at_the_default_bound(field):
    # every path of length 2 is a relation, so certification stops there;
    # enumerating every path up to length 13 would take 2^14 - 1 of them
    start = time.perf_counter()
    cat = Workspace(parse(TWO_LOOPS_SRC.format(field=field))).categories["C"]
    assert time.perf_counter() - start < 1.0
    assert cat.hom_basis[("s", "s")] == ("es", "x", "y")
    assert cat.paths[("s", "s")] == [(), ("x",), ("y",)]
    assert cat.total_dim() == 3
    assert cat.validate().ok


# ---------------------------------------------------------------------------
# a naive dense reference: every product u*r*v of length at most bound + 1,
# eliminated as dense vectors over all paths up to that length, certifies;
# the category adds the products with a longer path, cut to that length

def _reference(field, objects, arrows, relations, bound):
    """(basis paths, composition tables, identities) of the presentation,
    or the FinitenessError message; relations are {path: coefficient}
    rows in application order, all of one Hom space.  Tables and
    identities are in report form, as compose_basis and identity give them."""
    cap = bound + 1
    paths = {(x, y): [] for x in objects for y in objects}
    level = {(x, x): [()] for x in objects}
    for _ in range(cap + 1):
        longer = {}
        for (x, y), plist in level.items():
            paths[(x, y)].extend(plist)
            for p in plist:
                for name, s, g in arrows:
                    if s == y:
                        longer.setdefault((x, g), []).append(p + (name,))
        level = longer
    ends = {name: (s, g) for name, s, g in arrows}
    index = {pair: {p: j for j, p in enumerate(plist)} for pair, plist in paths.items()}
    # spans[pair] holds the products u*r*v with every path at most cap long,
    # cut[pair] those with a longer path, with their long paths dropped
    spans = {pair: [] for pair in paths}
    cut = {pair: [] for pair in paths}
    for row in relations:
        first = next(iter(row))
        x, y = ends[first[0]][0], ends[first[-1]][1]
        shortest, longest = min(map(len, row)), max(map(len, row))
        for (a, b), prefixes in paths.items():
            for (c, d), suffixes in paths.items():
                if b != x or c != y:
                    continue
                for u in prefixes:
                    for v in suffixes:
                        if len(u) + len(v) + shortest <= cap:
                            vec = [field.zero()] * len(paths[(a, d)])
                            for p, coef in row.items():
                                if len(u + p + v) <= cap:
                                    vec[index[(a, d)][u + p + v]] = coef
                            (spans if len(u) + len(v) + longest <= cap else cut)[(a, d)].append(vec)
    for pair, plist in paths.items():
        pivots = {next(j for j, v in enumerate(r) if v): r
                  for r in _dense_rref(field, spans[pair])}
        free = [j for j in range(len(plist)) if j not in pivots]
        for j, p in enumerate(plist):
            # a path lies in the ideal when its pivot row is the path alone
            if len(p) == cap and (j not in pivots or any(pivots[j][f] for f in free)):
                return (f"path {'*'.join(reversed(p))} of length {cap} does not reduce "
                        f"to 0; cannot certify finite Hom spaces at bound {bound}")
    # certified: every path longer than cap lies in the ideal, so the cut
    # products lie there too
    basis, reduce = {}, {}
    for pair, plist in paths.items():
        pivots = {next(j for j, v in enumerate(r) if v): r
                  for r in _dense_rref(field, spans[pair] + cut[pair])}
        free = [j for j in range(len(plist)) if j not in pivots]
        basis[pair] = [plist[j] for j in free]

        def red(p, cols=index[pair], pivots=pivots, free=free):
            j = cols[p]
            if j in pivots:
                return report_form(field, [field.neg(pivots[j][f]) for f in free])
            return report_form(field, [field.one() if f == j else field.zero() for f in free])
        reduce[pair] = red
    comp = {}
    for x in objects:
        for y in objects:
            for z in objects:
                if basis[(x, y)] and basis[(y, z)]:
                    comp[(x, y, z)] = tuple(
                        tuple(report_form(field, (field.zero(),) * len(basis[(x, z)]))
                              if len(p + q) > bound
                              else reduce[(x, z)](p + q) for q in basis[(y, z)])
                        for p in basis[(x, y)])
    identities = {x: reduce[(x, x)](()) for x in objects}
    return basis, comp, identities


def _dense_rref(field, vecs):
    rows = []
    for v in vecs:
        v = list(v)
        for r in rows:
            lead = next(j for j, a in enumerate(r) if a)
            if v[lead]:
                c = v[lead]
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, r)]
        if any(v):
            lead = next(j for j, a in enumerate(v) if a)
            inv = field.inv(v[lead])
            v = [field.mul(inv, a) for a in v]
            rows = [[field.sub(a, field.mul(r[lead], b)) for a, b in zip(r, v)]
                    for r in rows] + [v]
    return rows


def _random_presentation(rng, field, mixed=False):
    """A random quiver on one to three objects with homogeneous relations:
    monomials, and differences of two parallel paths of one length with
    random scalars (commutative squares when the paths have length 2).
    A mixed draw has one or two objects and one to three arrows, and adds
    one or two relations p - c*q with parallel p and q of different
    lengths."""
    objects = [str(i) for i in range(1, rng.randint(1, 2 if mixed else 3) + 1)]
    arrows = [(f"a{k}", rng.choice(objects), rng.choice(objects))
              for k in range(rng.randint(1 if mixed else 2, 3))]
    # the reference is dense
    if mixed:
        bound = rng.randint(1, 5 - len(arrows))
    else:
        bound = rng.randint(2, 3) if len(arrows) == 2 else 2
    by_pair = {}
    level = [(a,) for a, _, _ in arrows]
    ends = {a: (s, g) for a, s, g in arrows}
    for length in range(1, bound + 1):
        for p in level:
            by_pair.setdefault((ends[p[0]][0], ends[p[-1]][1], length), []).append(p)
        level = [p + (a,) for p in level for a, s, _ in arrows if s == ends[p[-1]][1]]
    groups = [ps for (_, _, length), ps in sorted(by_pair.items()) if length >= 2]
    scalars = ["1", "-1", "2", "3", "-5"] + (["1/2", "5/3", "-7/4"] if field.p in (0, 32003) else [])
    relations = []
    if rng.random() < 0.7 and groups:
        # kill every path of one length, so that most draws are finite
        length = rng.randint(2, bound)
        relations += [{p: field.one()} for ps in groups for p in ps if len(p) == length]
    for _ in range(rng.randint(1, 4)):
        ps = rng.choice(groups) if groups else []
        if len(ps) >= 2 and rng.random() < 0.6:
            p, q = rng.sample(ps, 2)
            row = {p: field.of(rng.choice(scalars)),
                   q: field.neg(field.of(rng.choice(scalars)))}
        elif ps:
            row = {rng.choice(ps): field.one()}
        else:
            continue
        row = {k: v for k, v in row.items() if v}
        if row:
            relations.append(row)
    parallel = {}
    for (x, y, _), ps in sorted(by_pair.items()):
        parallel.setdefault((x, y), []).extend(ps)
    pools = [ps for ps in parallel.values() if len({len(p) for p in ps}) > 1]
    for _ in range(rng.randint(1, 2) if mixed and pools else 0):
        ps = rng.choice(pools)
        p = rng.choice(ps)
        q = rng.choice([q for q in ps if len(q) != len(p)])
        row = {p: field.one(), q: field.neg(field.of(rng.choice(scalars)))}
        relations.append({k: v for k, v in row.items() if v})
    return objects, arrows, relations, bound


def _as_terms(row):
    """A {path: coefficient} row as the parser's term list (right-to-left)."""
    return [(str(c), list(reversed(p))) for p, c in row.items()]


def _against_the_reference(field, seed, mixed):
    """Certify 40 seeded draws, each checked against the dense reference,
    and count (certified, refused) among the draws with a relation that
    mixes path lengths when mixed, among all draws otherwise."""
    rng = random.Random(seed + field.p)
    counts = [0, 0]
    for _ in range(40):
        objects, arrows, relations, bound = _random_presentation(rng, field, mixed)
        counted = not mixed or any(len(set(map(len, row))) > 1 for row in relations)
        expect = _reference(field, objects, arrows, relations, bound)
        terms = [_as_terms(row) for row in relations]
        if isinstance(expect, str):
            with pytest.raises(FinitenessError) as err:
                build_quiver_category(field, objects, arrows, terms, bound)
            assert str(err.value) == expect
            counts[1] += counted
            continue
        cat = build_quiver_category(field, objects, arrows, terms, bound)
        basis, comp, identities = expect
        assert cat.paths == basis
        assert repr(_dense_table(cat)) == repr(comp)        # entry types included
        assert repr(cat.identity) == repr(identities)
        # built unchecked, the category satisfies the laws by construction
        assert cat.validate().ok
        counts[0] += counted
    return counts


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
def test_certification_matches_a_dense_saturation(field):
    certified, failed = _against_the_reference(field, 31, mixed=False)
    assert certified >= 15 and failed >= 3


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
def test_non_homogeneous_certification_matches_a_dense_saturation(field):
    # relations that mix path lengths take the one-piece branch: the
    # certificate reads the products whose every path is at most bound + 1
    # long, and the category every product cut to those paths
    certified, failed = _against_the_reference(field, 57, mixed=True)
    assert certified >= 12 and failed >= 3


def _dense_table(cat):
    """The composition of cat as dense coordinate tuples [i][j] per object
    triple, read through compose_basis in the order of the stored rows."""
    return {(x, y, z): tuple(tuple(compose_basis(cat, x, y, z, i, j) for j in range(cat.dim(y, z)))
                             for i in range(cat.dim(x, y)))
            for x, y, z in cat.rows}


# ---------------------------------------------------------------------------
# certified categories pinned by SHA-256 of their repr (labels, composition
# tables with entry types, identities and paths), computed before
# certification was rewritten length by length; dual-q-bound1 was pinned
# again when Q composites past the bound became Fraction(0) instead of int 0

PINNED_SOURCES = {
    "dual-gf": ("category C over GF(32003)\nquiver\nobject s\narrow x: s -> s\n"
                "rel x*x = 0\n"),
    # x*x is longer than the bound: it is zero without being reduced, so
    # this is the category inhomogeneous-q presents, digest included
    "dual-q-bound1": ("category C over Q\nquiver\nobject s\narrow x: s -> s\n"
                      "rel x*x = 0\nbound 1\n"),
    "square-q": ("category C over Q\nquiver\nobject 1 2 3 4\narrow a: 1 -> 2\n"
                 "arrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
                 "rel b*a - 5/3*d*c = 0\n"),
    "cycle3-gf": ("category C over GF(32003)\nquiver\nobject 1 2 3\narrow c1: 1 -> 2\n"
                  "arrow c2: 2 -> 3\narrow c3: 3 -> 1\nrel c3*c2*c1 = 0\n"
                  "rel c1*c3*c2 = 0\nrel c2*c1*c3 = 0\nbound 5\n"),
    "two-loops-q": TWO_LOOPS_SRC.format(field="Q") + "bound 4\n",
    "kronecker-rel-q": ("category C over Q\nquiver\nobject 1 2 3\narrow a: 1 -> 2\n"
                        "arrow b: 2 -> 3\narrow c: 1 -> 2\nrel b*a - 2*b*c = 0\n"),
    # non-homogeneous: x^2 = x^3 = x^4 = 0 reduces all lengths at once
    "inhomogeneous-q": ("category C over Q\nquiver\nobject s\narrow x: s -> s\n"
                        "rel x*x*x - x*x = 0\nrel x*x*x*x = 0\n"),
    "inhomogeneous-gf2": ("category C over GF(2)\nquiver\nobject s\narrow x: s -> s\n"
                          "rel x*x*x - x*x = 0\nrel x*x*x*x = 0\n"),
}

PINNED_DIGESTS = {
    "cycle3-gf": "2fa3b8f87d7060317d8fb7a392f4f017805412696940c9874e8e0df40127d211",
    "dual-gf": "4faed565b03e5f2e94962371074d1c9100108a6bf516a126f1cfd5821f52ca77",
    "dual-q-bound1": "d200bb27778e22a2b46078087657e8c450e336c488ff98bd357a1be2f0a4adcb",
    "inhomogeneous-gf2": "74150bb2307ab87c349ec2fdd28e2ec179c9e0feeb3d425924d7d1f177f03e82",
    "inhomogeneous-q": "d200bb27778e22a2b46078087657e8c450e336c488ff98bd357a1be2f0a4adcb",
    "kronecker-rel-q": "d2a4b5c7a2cd3780caceaf4edd958c2f2751bb709478fcdddf86fb20d2504b90",
    "square-q": "12d7697f4011c25accd8d0364b1de94833e83059cb37d935766bd55c31b13fb5",
    "two-loops-q": "037cb066d9fc7251d20c70d64e1e5995ec3c925c3754006f6d9a6dd1fb390e0b",
}


def _category_digest(cat):
    doc = repr((cat.field, cat.objects, sorted(cat.hom_basis.items()),
                sorted(_dense_table(cat).items()), sorted(cat.identity.items()),
                sorted(cat.paths.items())))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SOURCES))
def test_certified_category_is_pinned(name):
    cat = Workspace(parse(PINNED_SOURCES[name])).categories["C"]
    assert _category_digest(cat) == PINNED_DIGESTS[name]
    assert cat.validate().ok


# non-homogeneous presentations whose products past bound + 1 hold ideal
# elements: x = x^4 makes x zero, and abab = ab with aba = 0 makes ab zero
CEILING_SOURCES = {
    "loop": ("category C over Q\nquiver\nobject s\narrow x: s -> s\n"
             "rel x*x*x*x = 0\nrel x - x*x*x*x = 0\nbound {bound}\n", [1, 0, 0, 0, 0]),
    "two-objects": ("category C over Q\nquiver\nobject 1 2\narrow a: 1 -> 2\n"
                    "arrow b: 2 -> 1\nrel a*b*a = 0\nrel a*b*a*b - a*b = 0\n"
                    "bound {bound}\n", [2, 1, 1, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(CEILING_SOURCES))
def test_non_homogeneous_relations_present_one_category_at_every_bound(name):
    source, table = CEILING_SOURCES[name]
    cats = [Workspace(parse(source.format(bound=bound))).categories["C"] for bound in (3, 12)]
    assert [hochschild_cohomology(cat, 4) for cat in cats] == [table, table]
    assert _category_digest(cats[0]) == _category_digest(cats[1])
    assert all(cat.validate().ok for cat in cats)


def test_certification_does_not_depend_on_the_order_of_the_relations():
    # every path of length 4 is a product u*r*v whose paths all fit, so
    # every order certifies; taking products only of the rows that grow
    # the span lost some of them in two of the six orders
    relations = ["rel y*y = 0", "rel x*x = 0", "rel y*x*y - x*x = 0"]
    digests = set()
    for order in itertools.permutations(relations):
        source = ("category C over Q\nquiver\nobject s\narrow x: s -> s\n"
                  "arrow y: s -> s\n" + "\n".join(order) + "\nbound 3\n")
        cat = Workspace(parse(source)).categories["C"]
        assert cat.hom_basis[("s", "s")] == ("es", "x", "y", "y*x", "x*y", "x*y*x")
        digests.add(_category_digest(cat))
    assert len(digests) == 1


def test_inhomogeneous_presentation_that_does_not_die_exits_1(tmp_path, capsys):
    path = tmp_path / "inhomogeneous.kcat"
    path.write_text("category B over Q\nquiver\nobject s\narrow x: s -> s\n"
                    "arrow y: s -> s\nrel y - x*x = 0\nrel x*x*x = 0\nbound 5\n")
    assert main([str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}: path y*y*y*y*x*x of length 6 does not reduce to 0; "
                            "cannot certify finite Hom spaces at bound 5\n")
