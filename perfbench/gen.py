"""Seeded workspace generation for the benchmark workloads.

Every workload is a fixed core battery plus seeded members drawn from
families of bounded size.  Each generated `.kcat` file holds exactly one
task, so a task can be replayed on its own with

    homcat <file>.kcat --json --max-degree N [--verify-oracle]

The same (workload, seed) always yields byte-identical files.
"""

import random

GF = "GF(32003)"


class Task:
    """One workspace file: its source and the flags it runs with.

    `expect_hc` is a cohomology table known from the literature, not
    computed by the engine; a report that differs from it is a failure.
    """

    def __init__(self, name, source, max_degree, oracle=False, expect_hc=None):
        self.name = name
        self.source = source
        self.max_degree = max_degree
        self.oracle = oracle
        self.expect_hc = None if expect_hc is None else list(expect_hc)

    def argv(self):
        """The homcat flags that replay this task."""
        flags = ["--json", "--max-degree", str(self.max_degree)]
        return flags + (["--verify-oracle"] if self.oracle else [])


# ---------------------------------------------------------------------------
# workspace text

def quiver(name, field, objects, arrows, rels=(), bound=None):
    """A quiver category block; `rels` are right-to-left path sums = 0."""
    lines = [f"category {name} over {field}", "quiver",
             "object " + " ".join(objects)]
    lines += [f"arrow {a}: {s} -> {t}" for a, s, t in arrows]
    lines += [f"rel {r} = 0" for r in rels]
    if bound is not None:
        lines.append(f"bound {bound}")
    return lines


def workspace(*blocks):
    lines = []
    for block in blocks:
        lines.extend(block)
    return "\n".join(lines) + "\n"


def radical_square_zero(arrows):
    """Every composable pair of arrows, as monomial relations."""
    return [f"{b}*{a}" for a, _, t in arrows for b, s, _ in arrows if s == t]


def linear_arrows(n):
    return [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]


# ---------------------------------------------------------------------------
# the categories of the core batteries

def dual_numbers(field, name="D"):
    return quiver(name, field, ["s"], [("x", "s", "s")], ["x*x"])


def truncated_polynomial(field, power, name="P"):
    return quiver(name, field, ["s"], [("x", "s", "s")], ["*".join(["x"] * power)])


def two_loops(field, bound, name="L"):
    arrows = [("x", "s", "s"), ("y", "s", "s")]
    return quiver(name, field, ["s"], arrows, radical_square_zero(arrows), bound)


def linear(field, n, name="A"):
    return quiver(name, field, [str(i) for i in range(1, n + 1)], linear_arrows(n))


def kronecker(field, name="K"):
    return quiver(name, field, ["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def cyclic(field, n, length, bound, name="Z"):
    """The oriented n-cycle with every path of the given length zero."""
    arrows = [(f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    rels = []
    for start in range(n):
        path = [arrows[(start + k) % n][0] for k in range(length)]
        rels.append("*".join(reversed(path)))
    return quiver(name, field, [str(i) for i in range(1, n + 1)], arrows, rels, bound)


def cmp_case(field):
    """[T 0; M U] with U = K[x]/(x^2), T = K and M = U as a bimodule."""
    return workspace(
        dual_numbers(field, "U"),
        quiver("T", field, ["1"], []),
        ["bimodule M over (U,T)", "dim s 1 = 2", "lact x 1 = [[0,0],[1,0]]"],
        ["task cmp T U M"])


def happel_dual(field):
    return workspace(dual_numbers(field),
                     ["module S over D left", "dim s = 1", "act x = [[0]]"],
                     ["task happel D S"])


def happel_kronecker(field):
    return workspace(kronecker(field),
                     ["module S over K left", "dim 1 = 1", "dim 2 = 1",
                      "act a = [[1]]", "act b = [[0]]"],
                     ["task happel K S"])


def idempotent_ideal_task(field, n, vertex, kind):
    """`les` or `ideal-check` on linear A_n with the ideal <e_vertex>;
    A_n is hereditary, so every such ideal meets the hypotheses."""
    return workspace(linear(field, n),
                     [f"ideal I in A gens: e{vertex}"],
                     [f"task {kind} A I"])


def cohomology_task(cat_lines):
    name = cat_lines[0].split()[1]
    return workspace(cat_lines, [f"task cohomology {name}"])


def validate_task(cat_lines):
    name = cat_lines[0].split()[1]
    return workspace(cat_lines, [f"task validate {name}"])


def known(degree, head):
    """A cohomology table (head, then zeros or ones) up to `degree`."""
    return (list(head) + [head[-1]] * degree)[:degree + 1]


def dual_table(degree):
    return known(degree, [2, 1])


def linear_table(degree):
    return known(degree, [1, 0])


def kronecker_table(degree):
    return known(degree, [1, 3, 0])


# ---------------------------------------------------------------------------
# seeded families
#
# A choice that changes a member's cost (a quiver's shape, the size of
# A_n and the vertex of its ideal, the dimension of a bimodule) is drawn
# from a balanced multiset, shuffled.  Each family's count is a multiple
# of the number of choices, so every seed runs the same multiset of task
# kinds: seeds change labels, orderings, scalars and the order of the
# tasks, and the median and tail task fall on the same kind of task for
# every seed.  The spread between seeds then measures the program and the
# machine, not the draw (relabelling a quiver still moves its cost a
# little, since the presentation order changes the elimination).

def balanced(rng, values, count):
    if count % len(values):
        raise ValueError(f"{count} members cannot balance {len(values)} choices")
    picks = [values[i % len(values)] for i in range(count)]
    rng.shuffle(picks)
    return picks


# radical-square-zero quivers as arrow lists over objects 0, 1, 2
RAD2_SHAPES = (
    ((0, 0), (0, 1), (1, 0)),          # a loop and a 2-cycle
    ((0, 1), (0, 1), (1, 0)),          # a double arrow and one back
    ((0, 0), (0, 1), (0, 1)),          # a loop and a double arrow
    ((0, 1), (1, 2), (2, 0)),          # the 3-cycle
    ((0, 0), (0, 1), (1, 2)),          # a loop and a path
    ((1, 0), (1, 0), (2, 1)),          # a double arrow and a path
)


def relabeled_radical_square_zero(rng, field, shape, name="R"):
    """The shape with its objects renamed, listed and its arrows ordered at
    random: the seed changes the presentation, not the category."""
    count = 1 + max(max(edge) for edge in shape)
    names = rng.sample("uvwxyz", count)
    edges = list(shape)
    rng.shuffle(edges)
    arrows = [(f"r{i}", names[s], names[t]) for i, (s, t) in enumerate(edges)]
    objects = rng.sample(names, count)
    return quiver(name, field, objects, arrows, radical_square_zero(arrows), 2)


def radical_square_zero_family(rng, field, count, degree, oracle=False):
    """With `oracle`, the first task of each shape also runs the
    materialized-bar and minimal-resolution cross-checks."""
    tasks = []
    seen = set()
    for i, shape in enumerate(balanced(rng, RAD2_SHAPES, count)):
        source = cohomology_task(relabeled_radical_square_zero(rng, field, shape))
        tasks.append(Task(f"rad2-{i}", source, degree, oracle=oracle and shape not in seen))
        seen.add(shape)
    return tasks


def point_happel(rng, field, dim):
    """The one-point extension of K by K^dim: the dim-arrow Kronecker quiver."""
    p = rng.choice("pqu")
    return workspace(quiver("P", field, [p], []),
                     ["module S over P left", f"dim {p} = {dim}"],
                     ["task happel P S"])


def point_cmp(rng, field, dim):
    """[T 0; M U] over two one-object categories: again the dim-arrow
    Kronecker quiver."""
    u, t = rng.choice("pqu"), rng.choice("rst")
    return workspace(quiver("U", field, [u], []), quiver("T", field, [t], []),
                     ["bimodule M over (U,T)", f"dim {u} {t} = {dim}"],
                     ["task cmp T U M"])


def kronecker_family(degree, arrows):
    """HH of the Kronecker quiver with this many arrows: 1, arrows^2 - 1, 0..."""
    return known(degree, [1, arrows * arrows - 1, 0])


def point_extensions(rng, field, count, degree, dims=(1, 2)):
    """Seeded `happel` and `cmp` tasks whose categories are Kronecker quivers
    with `dims` arrows."""
    tasks = []
    for kind, build in (("happel", point_happel), ("cmp", point_cmp)):
        for i, dim in enumerate(balanced(rng, dims, count)):
            tasks.append(Task(f"{kind}-{i}", build(rng, field, dim), degree,
                              expect_hc=kronecker_family(degree, dim)))
    return tasks


def linear_ideals(rng, field, kind, count, degree, sizes=(3, 4)):
    """`les` or `ideal-check` on A_n with <e_i>, balanced over every pair
    (n, i) with n from `sizes`."""
    pairs = [(n, vertex) for n in sizes for vertex in range(1, n + 1)]
    tasks = []
    for i, (n, vertex) in enumerate(balanced(rng, pairs, count)):
        source = idempotent_ideal_task(field, n, vertex, kind)
        expect = linear_table(degree) if kind == "les" else None
        tasks.append(Task(f"{kind}-{i}", source, degree, expect_hc=expect))
    return tasks


def cyclic_family(rng, count):
    """n-cycles (n = 3, 4) with every path of length 2 or 3 zero, certified
    at bound length + 2, balanced over size and relation length; the field
    is drawn at random, which moves a task's cost by about a millisecond."""
    combos = [(n, length) for n in (3, 4) for length in (2, 3)]
    tasks = []
    for i, (n, length) in enumerate(balanced(rng, combos, count)):
        cat = cyclic(rng.choice((GF, "Q")), n, length, length + 2)
        tasks.append(Task(f"cyclic-{i}", validate_task(cat), 2))
    return tasks


def random_commutative_square(rng, field):
    """1 -> 2 -> 4 and 1 -> 3 -> 4 commuting up to a random scalar."""
    sign = rng.choice("+-")
    c = rng.choice(("2", "3", "1/2", "5/3", "7"))
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    return quiver("S", field, ["1", "2", "3", "4"], arrows, [f"b*a {sign} {c}*d*c"])


# ---------------------------------------------------------------------------
# workloads

def cochain_q(rng):
    tasks = [Task(f"dual-d{d}", cohomology_task(dual_numbers("Q")), d,
                  expect_hc=dual_table(d)) for d in (4, 5)]
    tasks.append(Task("x3-d2", cohomology_task(truncated_polynomial("Q", 3)), 2))
    tasks.append(Task("two-loops-d2", cohomology_task(two_loops("Q", 3)), 2))
    for n, d in ((2, 4), (3, 4), (4, 4), (5, 2)):
        tasks.append(Task(f"a{n}-d{d}", cohomology_task(linear("Q", n)), d,
                          expect_hc=linear_table(d)))
    tasks.append(Task("kronecker-d4", cohomology_task(kronecker("Q")), 4,
                      expect_hc=kronecker_table(4)))
    tasks += radical_square_zero_family(rng, "Q", 18, 3)
    return tasks


def les_q(rng):
    tasks = [Task("les-a3-e1-d3", idempotent_ideal_task("Q", 3, 1, "les"), 3,
                  expect_hc=linear_table(3))]
    tasks += linear_ideals(rng, "Q", "les", 7, 3)
    tasks += point_extensions(rng, "Q", 2, 2, dims=(1,))
    return tasks


def mixed_gf(rng):
    tasks = [Task("dual-d6", cohomology_task(dual_numbers(GF)), 6,
                  expect_hc=dual_table(6)),
             Task("dual-d7", cohomology_task(dual_numbers(GF)), 7, oracle=True,
                  expect_hc=dual_table(7)),
             Task("kronecker-d6", cohomology_task(kronecker(GF)), 6,
                  expect_hc=kronecker_table(6)),
             Task("a3-d4", cohomology_task(linear(GF, 3)), 4, oracle=True,
                  expect_hc=linear_table(4)),
             Task("cmp-tum-d2", cmp_case(GF), 2),
             Task("happel-dual-d4", happel_dual(GF), 4),
             Task("happel-kronecker-d2", happel_kronecker(GF), 2),
             Task("les-a3-e1-d6", idempotent_ideal_task(GF, 3, 1, "les"), 6,
                  expect_hc=linear_table(6)),
             Task("ideal-check-a3-e1-d4", idempotent_ideal_task(GF, 3, 1, "ideal-check"), 4),
             Task("ideal-check-a4-e2-d4", idempotent_ideal_task(GF, 4, 2, "ideal-check"), 4)]
    tasks += radical_square_zero_family(rng, GF, 6, 4)
    tasks += linear_ideals(rng, GF, "les", 18, 5, sizes=(3,))
    tasks += linear_ideals(rng, GF, "ideal-check", 8, 4, sizes=(4,))
    tasks += point_extensions(rng, GF, 2, 5)
    return tasks


def certify(rng):
    tasks = [Task(f"two-loops-gf-b{b}", validate_task(two_loops(GF, b)), 2)
             for b in (5, 6)]
    tasks.append(Task("two-loops-q-b4", validate_task(two_loops("Q", 4)), 2))
    for field, tag in ((GF, "gf"), ("Q", "q")):
        tasks.append(Task(f"cyclic3-l3-{tag}", validate_task(cyclic(field, 3, 3, 5)), 2))
    tasks += cyclic_family(rng, 4)
    for i, field in enumerate(balanced(rng, (GF, "Q"), 2)):
        tasks.append(Task(f"square-{i}", validate_task(
            random_commutative_square(rng, field)), 2))
    return tasks


def cochain_les_q(rng):
    return cochain_q(rng) + les_q(rng)


def gf_certify(rng):
    # the `validate` tasks of `certify` take about a millisecond past set-up
    # and sit below everything else; eighteen near-equal `les` tasks on A_3
    # then hold the median, and the nine `ideal-check` tasks on A_4 the tail
    return mixed_gf(rng) + certify(rng)


BUILDERS = {"cochain-les-q": cochain_les_q, "gf-certify": gf_certify}
WORKLOADS = tuple(BUILDERS)


def generate(workload, seed):
    """The workload's tasks for this seed, in run order."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng)
