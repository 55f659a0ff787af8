"""Workspace files, the input language, and the task runner.

A workspace is a line-oriented text file (# starts a comment):

    category <name> over <Q|GF(p)>
    quiver                       # or: table
      object 1 2
      arrow a: 1 -> 2
      rel a*a = 0                # paths compose right-to-left: b*a = "a then b"
      bound 12                   # optional finiteness bound
    category <name> over Q
    table
      hom x y: f g
      comp g*f = f + 2*g
      id x = e
    module <name> over <cat> left|right
      dim <obj> = k
      act <arrow> = [[1,0],[0,1]]
    bimodule <name> over (<u>,<t>)
      dim <U> <T> = k
      lact <u-arrow> <T> = [[..]]
      ract <t-arrow> <U> = [[..]]
    ideal <name> in <cat> gens: a, b*a - c
    task cohomology <cat>
    task validate <cat>
    task ideal-check <cat> <ideal>
    task les <cat> <ideal>
    task cmp <t> <u> <bimodule>
    task happel <u> <module>

A name is declared once, and so is each keyed line of a block (one
`dim` per object, one `act` per arrow, one `comp` per pair, one `bound`);
object, arrow, rel and task lines add up.

A quiver category is certified finite (`homcat.certify`) by a path
length, at most bound + 1, at which every path reduces to zero modulo
the relation ideal.  With homogeneous relations the lengths are reduced
one at a time and certification stops at the first such length.  A
quiver without one is rejected with a FinitenessError, as is one that
makes more than 20000 paths before certification stops; only the paths
enumerated count.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

from .certify import FinitenessError, UnresolvedName, build_quiver_category, coefficient
from .exactla import (Field, FieldMismatch, Mat, VerificationFailed, complex_cohomology_dims,
                      unit_vector, vadd, vscale)
from .kcat import (InvalidBimodule, InvalidCategory, NotTriangular, UnknownObject,
                   category_from_tables, enveloping)
from .ideals import CoordinateMismatch, ParentMismatch, ideal_from_generators
from .modcat import (BaseMismatch, CatModule, InvalidModule, bimodule, ext, ext_data,
                     regular_bimodule)
from .hochschild import bar_resolution, hochschild_cohomology, center
from .theorems import (HypothesisFailed, ZeroModule, cmp_pipeline, happel_pipeline,
                       strongly_idempotent_check, theorem_les_pipeline,
                       audit_hypotheses)

SCHEMA_VERSION = 1
DEFAULT_BOUND = 12


class ParseError(ValueError):

    def __init__(self, line, col, message):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# homcat's own errors for bad input: a task that raises one of these is
# reported as "validation"; any other exception is an internal error
INPUT_ERRORS = (ParseError, FinitenessError, UnresolvedName, InvalidCategory,
                UnknownObject, NotTriangular, InvalidBimodule, InvalidModule,
                CoordinateMismatch, ParentMismatch, BaseMismatch, ZeroModule,
                FieldMismatch)

# exit code of each report status that fails a run
EXIT_CODES = {"internal": 4, "validation": 1, "hypothesis": 2, "verification": 3}
# several failing tasks or files exit with the first of these codes present
EXIT_PRECEDENCE = (4, 1, 2, 3)


def _worst_code(codes):
    codes = set(codes)
    return next((c for c in EXIT_PRECEDENCE if c in codes), 0)


# ---------------------------------------------------------------------------
# tokenizing small expressions

def _tokenize(text, line_no):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[],()=:+-*>":
            if ch == "-" and text[i:i + 2] == "->":
                tokens.append(("ARROW", "->", i))
                i += 2
                continue
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                den = j
                while j < n and text[j].isdigit():
                    j += 1
                if not int(text[den:j]):
                    raise ParseError(line_no, i + 1, f"zero denominator in {text[i:j]!r}")
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(line_no, i + 1, f"unexpected character {ch!r}")
    return tokens


class _TokenStream:

    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError(self.line, 0, "unexpected end of line")
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(self.line, tok[2] + 1, f"expected {kind}, got {tok[1]!r}")
        return tok

    def done(self):
        return self.pos >= len(self.tokens)


def _parse_lincomb(ts):
    """[(coefficient string, [path names])]; a bare 0 is the zero term.
    Paths are NAME ('*' NAME)*, with an optional coefficient prefix that
    may be joined with '*' (both `2*a` and `2 a` are accepted)."""

    def star_then_name():
        return (ts.peek()[0] == "*" and ts.pos + 1 < len(ts.tokens)
                and ts.tokens[ts.pos + 1][0] == "NAME")

    terms = []
    first = True
    while True:
        sign = 1
        kind, val, col = ts.peek()
        if kind is None:
            break
        if kind in "+-":
            ts.next()
            sign = -1 if kind == "-" else 1
        elif not first:
            break
        coeff = "1"
        kind, val, col = ts.peek()
        if kind == "NUM":
            ts.next()
            coeff = val
            if star_then_name():
                ts.next()
        path = []
        if ts.peek()[0] == "NAME":
            path.append(ts.next()[1])
            while star_then_name():
                ts.next()
                path.append(ts.next()[1])
        if not path and coeff == "1":
            raise ParseError(ts.line, col + 1, "expected a term")
        if sign == -1:
            coeff = "-" + coeff
        terms.append((coeff, path))
        first = False
        if ts.peek()[0] not in ("+", "-"):
            break
    return terms


def _parse_matrix(ts):
    ts.expect("[")
    rows = []
    while True:
        ts.expect("[")
        row = []
        if ts.peek()[0] != "]":
            while True:
                sign = ""
                if ts.peek()[0] == "-":
                    ts.next()
                    sign = "-"
                num = ts.expect("NUM")[1]
                row.append(sign + num)
                if ts.peek()[0] == ",":
                    ts.next()
                    continue
                break
        close = ts.expect("]")
        if rows and len(row) != len(rows[0]):
            raise ParseError(ts.line, close[2] + 1,
                             f"matrix row {len(rows) + 1} has {len(row)} entries, "
                             f"row 1 has {len(rows[0])}")
        rows.append(row)
        if ts.peek()[0] == ",":
            ts.next()
            continue
        break
    ts.expect("]")
    return rows


# ---------------------------------------------------------------------------
# declarations

class CategoryDecl:

    def __init__(self, name, field_spec, line):
        self.name = name
        self.field_spec = field_spec   # "Q" or ("GF", p)
        self.kind = None               # "quiver" | "table"
        self.objects = []
        self.arrows = []               # (name, src, dst)
        self.relations = []            # token term lists
        self.bound = DEFAULT_BOUND
        self.homs = []                 # (x, y, [names])
        self.comps = []                # (g, f, terms)
        self.ids = []                  # (x, terms)
        self.keyed = set()             # the keyed lines read so far (`_once`)
        self.line = line


class ModuleDecl:

    def __init__(self, name, cat, side, line):
        self.name = name
        self.cat = cat
        self.side = side
        self.dims = []                 # (obj, k)
        self.acts = []                 # (arrow name, matrix rows)
        self.keyed = set()
        self.line = line


class BimoduleDecl:

    def __init__(self, name, u, t, line):
        self.name = name
        self.u = u
        self.t = t
        self.dims = []                 # (U, T, k)
        self.lacts = []                # (u-arrow, T, rows)
        self.racts = []                # (t-arrow, U, rows)
        self.keyed = set()
        self.line = line


class IdealDecl:

    def __init__(self, name, cat, gens, line):
        self.name = name
        self.cat = cat
        self.gens = gens               # list of term lists
        self.line = line


class TaskDecl:

    def __init__(self, kind, args, line):
        self.kind = kind
        self.args = args
        self.line = line


class WorkspaceFile:

    def __init__(self):
        self.categories = {}
        self.modules = {}
        self.bimodules = {}
        self.ideals = {}
        self.tasks = []
        self.order = []                # declaration order, the order of building


# task kind -> number of arguments
TASK_ARITY = {"cohomology": 1, "ideal-check": 2, "les": 2, "cmp": 3, "happel": 2, "validate": 1}


def parse(source):
    ws = WorkspaceFile()
    current = None
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        ts = _TokenStream(_tokenize(line, line_no), line_no)
        kind, word, col = ts.peek()
        if kind != "NAME":
            raise ParseError(line_no, col + 1, "expected a keyword")
        if word == "category":
            ts.next()
            name = ts.expect("NAME")[1]
            over = ts.expect("NAME")[1]
            if over != "over":
                raise ParseError(line_no, 1, "expected 'over'")
            fk, fv, fcol = ts.next()
            if fk == "NAME" and fv == "Q":
                spec = "Q"
            elif fk == "NAME" and fv == "GF":
                ts.expect("(")
                ptok = ts.peek()
                p = _expect_int(ts)
                ts.expect(")")
                try:
                    Field.gf(p)
                except ValueError as exc:    # not a prime characteristic
                    raise ParseError(line_no, ptok[2] + 1, str(exc)) from exc
                spec = ("GF", p)
            else:
                raise ParseError(line_no, fcol + 1, "field must be Q or GF(p)")
            _unique(ws.categories, "category", name, line_no)
            current = CategoryDecl(name, spec, line_no)
            ws.categories[name] = current
            ws.order.append(("category", name))
        elif word in ("quiver", "table"):
            ts.next()
            if not isinstance(current, CategoryDecl) or current.kind is not None:
                raise ParseError(line_no, 1, f"'{word}' outside a category header")
            current.kind = word
        elif word == "object":
            ts.next()
            _require_block(current, CategoryDecl, "quiver", line_no, word)
            while not ts.done():
                tok = ts.next()
                if tok[0] not in ("NAME", "NUM"):
                    raise ParseError(line_no, tok[2] + 1, "object ids are names or numbers")
                current.objects.append(tok[1])
        elif word == "arrow":
            ts.next()
            _require_block(current, CategoryDecl, "quiver", line_no, word)
            name = ts.expect("NAME")[1]
            ts.expect(":")
            src = _name_or_num(ts, line_no)
            ts.expect("ARROW")
            dst = _name_or_num(ts, line_no)
            current.arrows.append((name, src, dst))
        elif word == "rel":
            ts.next()
            _require_block(current, CategoryDecl, "quiver", line_no, word)
            terms = _parse_lincomb(ts)
            ts.expect("=")
            zero = ts.expect("NUM")
            if Fraction(zero[1]) != 0:
                raise ParseError(line_no, zero[2] + 1, "relations must be '<lincomb> = 0'")
            current.relations.append(terms)
        elif word == "bound":
            ts.next()
            _require_block(current, CategoryDecl, "quiver", line_no, word)
            _once(current, "bound", line_no)
            current.bound = _expect_int(ts)
        elif word == "hom":
            ts.next()
            _require_block(current, CategoryDecl, "table", line_no, word)
            x = _name_or_num(ts, line_no)
            y = _name_or_num(ts, line_no)
            _once(current, f"hom {x} {y}", line_no)
            ts.expect(":")
            names = []
            while not ts.done():
                names.append(ts.expect("NAME")[1])
            current.homs.append((x, y, names))
        elif word == "comp":
            ts.next()
            _require_block(current, CategoryDecl, "table", line_no, word)
            g = ts.expect("NAME")[1]
            ts.expect("*")
            f = ts.expect("NAME")[1]
            _once(current, f"comp {g}*{f}", line_no)
            ts.expect("=")
            terms = _parse_lincomb(ts)
            current.comps.append((g, f, terms))
        elif word == "id":
            ts.next()
            _require_block(current, CategoryDecl, "table", line_no, word)
            x = _name_or_num(ts, line_no)
            _once(current, f"id {x}", line_no)
            ts.expect("=")
            terms = _parse_lincomb(ts)
            current.ids.append((x, terms))
        elif word == "module":
            ts.next()
            name = ts.expect("NAME")[1]
            if ts.expect("NAME")[1] != "over":
                raise ParseError(line_no, 1, "expected 'over'")
            cat = ts.expect("NAME")[1]
            side = ts.expect("NAME")[1]
            if side not in ("left", "right"):
                raise ParseError(line_no, 1, "module side must be left or right")
            _unique(ws.modules, "module", name, line_no)
            current = ModuleDecl(name, cat, side, line_no)
            ws.modules[name] = current
            ws.order.append(("module", name))
        elif word == "bimodule":
            ts.next()
            name = ts.expect("NAME")[1]
            if ts.expect("NAME")[1] != "over":
                raise ParseError(line_no, 1, "expected 'over'")
            ts.expect("(")
            u = ts.expect("NAME")[1]
            ts.expect(",")
            t = ts.expect("NAME")[1]
            ts.expect(")")
            _unique(ws.bimodules, "bimodule", name, line_no)
            current = BimoduleDecl(name, u, t, line_no)
            ws.bimodules[name] = current
            ws.order.append(("bimodule", name))
        elif word == "dim":
            ts.next()
            if isinstance(current, ModuleDecl):
                obj = _name_or_num(ts, line_no)
                _once(current, f"dim {obj}", line_no)
                ts.expect("=")
                current.dims.append((obj, _expect_int(ts)))
            elif isinstance(current, BimoduleDecl):
                uo = _name_or_num(ts, line_no)
                to = _name_or_num(ts, line_no)
                _once(current, f"dim {uo} {to}", line_no)
                ts.expect("=")
                current.dims.append((uo, to, _expect_int(ts)))
            else:
                raise ParseError(line_no, 1, "'dim' outside a module block")
        elif word == "act":
            ts.next()
            if not isinstance(current, ModuleDecl):
                raise ParseError(line_no, 1, "'act' outside a module block")
            arrow = ts.expect("NAME")[1]
            _once(current, f"act {arrow}", line_no)
            ts.expect("=")
            current.acts.append((arrow, _parse_matrix(ts)))
        elif word in ("lact", "ract"):
            ts.next()
            if not isinstance(current, BimoduleDecl):
                raise ParseError(line_no, 1, f"'{word}' outside a bimodule block")
            arrow = ts.expect("NAME")[1]
            other = _name_or_num(ts, line_no)
            _once(current, f"{word} {arrow} {other}", line_no)
            ts.expect("=")
            rows = _parse_matrix(ts)
            (current.lacts if word == "lact" else current.racts).append((arrow, other, rows))
        elif word == "ideal":
            ts.next()
            name = ts.expect("NAME")[1]
            if ts.expect("NAME")[1] != "in":
                raise ParseError(line_no, 1, "expected 'in'")
            cat = ts.expect("NAME")[1]
            kw = ts.expect("NAME")[1]
            if kw != "gens":
                raise ParseError(line_no, 1, "expected 'gens:'")
            ts.expect(":")
            gens = []
            while not ts.done():
                gens.append(_parse_lincomb(ts))
                if ts.peek()[0] == ",":
                    ts.next()
            _unique(ws.ideals, "ideal", name, line_no)
            current = None
            ws.ideals[name] = IdealDecl(name, cat, gens, line_no)
            ws.order.append(("ideal", name))
        elif word == "task":
            ts.next()
            kind = ts.next()[1]
            while ts.peek()[0] == "-":          # hyphenated kinds (ideal-check)
                ts.next()
                kind += "-" + ts.expect("NAME")[1]
            if kind not in TASK_ARITY:
                raise ParseError(line_no, 1, f"unknown task kind {kind!r}")
            args = []
            while not ts.done():
                args.append(_name_or_num(ts, line_no))
            if len(args) != TASK_ARITY[kind]:
                raise ParseError(line_no, 1, f"task {kind} takes {TASK_ARITY[kind]} "
                                             f"arguments, got {len(args)}")
            current = None
            ws.tasks.append(TaskDecl(kind, args, line_no))
            ws.order.append(("task", len(ws.tasks) - 1))
        else:
            raise ParseError(line_no, col + 1, f"unknown keyword {word!r}")
        if not ts.done():
            tok = ts.peek()
            raise ParseError(line_no, tok[2] + 1, f"trailing input {tok[1]!r}")
    return ws


def _require_block(current, klass, kind, line_no, word):
    if not isinstance(current, klass) or getattr(current, "kind", kind) != kind:
        raise ParseError(line_no, 1, f"'{word}' is only valid in a {kind} block")


def _unique(table, kind, name, line_no):
    if name in table:
        raise ParseError(line_no, 1, f"duplicate {kind} {name}")


def _once(block, key, line_no):
    # a second keyed line would silently replace the first
    if key in block.keyed:
        raise ParseError(line_no, 1, f"repeated '{key}' in {block.name}")
    block.keyed.add(key)


def _expect_int(ts):
    tok = ts.expect("NUM")
    if "/" in tok[1]:
        raise ParseError(ts.line, tok[2] + 1, f"expected an integer, got {tok[1]!r}")
    return int(tok[1])


def _name_or_num(ts, line_no):
    tok = ts.next()
    if tok[0] not in ("NAME", "NUM"):
        raise ParseError(line_no, tok[2] + 1, "expected an identifier")
    return tok[1]


# ---------------------------------------------------------------------------
# building categories from declarations

def _field_of(spec, override=None):
    if override is not None:
        return override
    if spec == "Q":
        return Field.rationals()
    return Field.gf(spec[1])


def build_table_category(field, decl):
    objects = []
    hom = {}
    for x, y, names in decl.homs:
        if x not in objects:
            objects.append(x)
        if y not in objects:
            objects.append(y)
        hom[(x, y)] = tuple(names)
    label_at = {}
    for (x, y), names in hom.items():
        for i, nm in enumerate(names):
            if nm in label_at:
                raise UnresolvedName(f"basis label {nm!r} is not globally unique")
            label_at[nm] = (x, y, i)

    def lincomb_vector(terms, expect_pair=None):
        pair = expect_pair
        acc = {}
        for coeff, path in terms:
            if not path:
                if Fraction(coeff) != 0:
                    raise UnresolvedName("scalar terms are only valid as 0")
                continue
            if len(path) != 1:
                raise UnresolvedName("table categories use single basis names")
            nm = path[0]
            if nm not in label_at:
                raise UnresolvedName(f"unknown basis name {nm!r}")
            x, y, i = label_at[nm]
            if pair is None:
                pair = (x, y)
            elif pair != (x, y):
                raise UnresolvedName("linear combination mixes Hom spaces")
            acc[i] = field.add(acc.get(i, field.zero()), coefficient(field, coeff))
        if pair is None:
            raise UnresolvedName("empty linear combination needs a Hom space")
        vec = [field.zero()] * len(hom[pair])
        for i, c in acc.items():
            vec[i] = c
        return pair, tuple(vec)

    comp_entries = {}
    for g, f, terms in decl.comps:
        if f not in label_at or g not in label_at:
            raise UnresolvedName(f"unknown basis name in comp {g}*{f}")
        fx, fy, fi = label_at[f]
        gx, gy, gi = label_at[g]
        if fy != gx:
            raise UnresolvedName(f"comp {g}*{f} is not composable")
        pair, vec = lincomb_vector(terms, expect_pair=(fx, gy))
        comp_entries.setdefault((fx, fy, gy), {})[(fi, gi)] = vec
    ids = {}
    for x, terms in decl.ids:
        pair, vec = lincomb_vector(terms, expect_pair=(x, x))
        ids[x] = vec
    for x in objects:
        if x not in ids:
            raise UnresolvedName(f"missing 'id {x} = ...' line")
    return category_from_tables(field, objects, hom, comp_entries, ids)


class Workspace:
    """Built objects plus the original declarations."""

    def __init__(self, ws_file, field_override=None):
        self.file = ws_file
        self.categories = {}
        self.modules = {}
        self.bimodules = {}
        self.ideals = {}
        self._lookups = {}           # category name -> label -> [(x, y, i)]
        for kind, key in ws_file.order:
            if kind == "category":
                decl = ws_file.categories[key]
                field = _field_of(decl.field_spec, field_override)
                if decl.kind == "quiver":
                    cat = build_quiver_category(field, decl.objects, decl.arrows,
                                                decl.relations, decl.bound)
                elif decl.kind == "table":
                    cat = build_table_category(field, decl)
                else:
                    raise UnresolvedName(f"category {key} has no quiver/table block")
                self.categories[key] = cat
            elif kind == "module":
                decl = ws_file.modules[key]
                self.modules[key] = self._build_module(decl)
            elif kind == "bimodule":
                decl = ws_file.bimodules[key]
                self.bimodules[key] = self._build_bimodule(decl)
            elif kind == "ideal":
                decl = ws_file.ideals[key]
                self.ideals[key] = self._build_ideal(decl)
        self.tasks = ws_file.tasks

    def _category(self, name):
        return self._named("category", self.categories, name)

    @staticmethod
    def _named(kind, table, name):
        if name not in table:
            raise UnresolvedName(f"unknown {kind} {name!r}")
        return table[name]

    def _ideal_in(self, cat_name, name):
        """The named category and the named ideal, which must live in it."""
        cat = self._category(cat_name)
        ideal = self._named("ideal", self.ideals, name)
        if ideal.parent is not cat:
            raise ParentMismatch(f"ideal {name} lives in category {self.file.ideals[name].cat},"
                                 f" not in {cat_name}")
        return cat, ideal

    def _basis_lookup(self, name):
        """Label -> [(x, y, i)] for the named category, built once."""
        if name not in self._lookups:
            table = {}
            for x, y, i, label in self._category(name).basis_morphisms():
                table.setdefault(label, []).append((x, y, i))
            self._lookups[name] = table
        return self._lookups[name]

    def _build_module(self, decl):
        cat = self._category(decl.cat)
        field = cat.field
        dims = {}
        for obj, k in decl.dims:
            if obj not in cat.objects:
                raise UnresolvedName(f"module {decl.name}: unknown object {obj!r}")
            dims[obj] = k
        given = {}
        lookup = self._basis_lookup(decl.cat)
        for arrow, rows in decl.acts:
            if arrow not in lookup or len(lookup[arrow]) != 1:
                raise UnresolvedName(f"module {decl.name}: ambiguous or unknown morphism {arrow!r}")
            x, y, i = lookup[arrow][0]
            shape = (dims.get(y, 0), dims.get(x, 0)) if decl.side == "left" else \
                (dims.get(x, 0), dims.get(y, 0))
            given[(x, y, i)] = _given_matrix(field, rows, shape,
                                             f"module {decl.name}: act {arrow}")
        act = _complete_action(cat, decl.side, dims, given)
        try:
            return CatModule(cat, decl.side, dims, act)
        except InvalidModule as exc:
            raise UnresolvedName(f"module {decl.name} is not functorial: {exc}") from exc

    def _build_bimodule(self, decl):
        u = self._category(decl.u)
        t = self._category(decl.t)
        field = u.field
        dims = {}
        for uo, to, k in decl.dims:
            if uo not in u.objects or to not in t.objects:
                raise UnresolvedName(f"bimodule {decl.name}: unknown object pair ({uo},{to})")
            dims[(uo, to)] = k
        lookup_u = self._basis_lookup(decl.u)
        lookup_t = self._basis_lookup(decl.t)
        lact = {}
        for arrow, to, rows in decl.lacts:
            if arrow not in lookup_u or len(lookup_u[arrow]) != 1:
                raise UnresolvedName(f"bimodule {decl.name}: unknown U-morphism {arrow!r}")
            if to not in t.objects:
                raise UnresolvedName(f"bimodule {decl.name}: unknown T-object {to!r}")
            x, y, i = lookup_u[arrow][0]
            lact[(x, y, i, to)] = _given_matrix(
                field, rows, (dims.get((y, to), 0), dims.get((x, to), 0)),
                f"bimodule {decl.name}: lact {arrow} {to}")
        ract = {}
        for arrow, uo, rows in decl.racts:
            if arrow not in lookup_t or len(lookup_t[arrow]) != 1:
                raise UnresolvedName(f"bimodule {decl.name}: unknown T-morphism {arrow!r}")
            if uo not in u.objects:
                raise UnresolvedName(f"bimodule {decl.name}: unknown U-object {uo!r}")
            x, y, i = lookup_t[arrow][0]
            ract[(x, y, i, uo)] = _given_matrix(
                field, rows, (dims.get((uo, x), 0), dims.get((uo, y), 0)),
                f"bimodule {decl.name}: ract {arrow} {uo}")
        lact = _complete_bimodule_action(u, t, dims, lact, left=True)
        ract = _complete_bimodule_action(t, u, dims, ract, left=False)
        try:
            return bimodule(u, t, dims, lact, ract)
        except InvalidBimodule as exc:
            raise UnresolvedName(f"bimodule {decl.name} is not functorial: {exc}") from exc

    def _build_ideal(self, decl):
        """Each generator is a sum of terms: a term's names are composed
        through the category (b*a is a, then b; one name is its basis
        morphism) and scaled by its coefficient.  A scalar term must be 0."""
        cat = self._category(decl.cat)
        field = cat.field
        lookup = self._basis_lookup(decl.cat)
        gens = []
        for terms in decl.gens:
            pair = vec = None
            for coeff, path in terms:
                if not path:
                    if Fraction(coeff) != 0:
                        raise UnresolvedName(f"ideal {decl.name}: scalar terms are only valid as 0")
                    continue
                x, y, term = _compose_path(cat, lookup, path, f"ideal {decl.name}")
                term = vscale(field, coefficient(field, coeff), term)
                if pair is None:
                    pair, vec = (x, y), term
                elif pair != (x, y):
                    raise UnresolvedName(f"ideal {decl.name}: generator mixes Hom spaces")
                else:
                    vec = vadd(field, vec, term)
            if pair is not None:
                gens.append((pair[0], pair[1], vec))
        return ideal_from_generators(cat, gens)


def _compose_path(cat, lookup, path, what):
    """(x, y, coordinates) of the composite of the named basis morphisms,
    written right to left."""
    x = y = vec = None
    for name in reversed(path):
        if len(lookup.get(name, ())) != 1:
            raise UnresolvedName(f"{what}: unknown morphism {name!r}")
        a, b, i = lookup[name][0]
        unit = unit_vector(cat.field, cat.dim(a, b), i)
        if vec is None:
            x, y, vec = a, b, unit
        elif y != a:
            raise UnresolvedName(f"{what}: {'*'.join(path)!r} is not composable")
        else:
            y, vec = b, cat.compose(x, a, b, vec, unit)
    return x, y, vec


def _given_matrix(field, rows, shape, what):
    """A matrix written in the file, which must have the expected shape;
    an empty matrix [[]] is the zero matrix of that shape."""
    if rows and rows[0]:
        mat = Mat.from_rows(field, [[coefficient(field, v) for v in row] for row in rows])
    else:
        mat = Mat.zeros(field, *shape)
    if mat.shape != shape:
        raise UnresolvedName(f"{what} has shape {mat.shape}, expected {shape}")
    return mat


def _complete_action(cat, side, dims, given):
    """Fill in identity actions and derive path actions for quiver
    categories; every remaining basis morphism must have been given."""
    field = cat.field
    act = dict(given)
    for x, y, i, label in cat.basis_morphisms():
        key = (x, y, i)
        if key in act:
            continue
        shape = (dims.get(y, 0), dims.get(x, 0)) if side == "left" else \
            (dims.get(x, 0), dims.get(y, 0))
        idc = cat.id_coords(x) if x == y else None
        if x == y and idc == unit_vector(field, cat.dim(x, x), i):
            act[key] = Mat.identity(field, dims.get(x, 0))
            continue
        if cat.paths is not None:
            p = cat.paths[(x, y)][i]
            if len(p) >= 2:
                # compose arrow actions along the path
                mat = None
                for arrow in p:
                    hit = None
                    for (a, b, j) in act:
                        if cat.paths[(a, b)][j] == (arrow,):
                            hit = (a, b, j)
                            break
                    if hit is None:
                        raise UnresolvedName(f"no action given for arrow {arrow!r}")
                    m = act[hit]
                    if side == "left":
                        mat = m if mat is None else m.mul(mat)
                    else:
                        mat = m if mat is None else mat.mul(m)
                act[key] = mat
                continue
        if shape[0] == 0 or shape[1] == 0:
            act[key] = Mat.zeros(field, *shape)
            continue
        raise UnresolvedName(f"no action given for basis morphism {label!r}")
    return act


def _complete_bimodule_action(acting, other, dims, given, left):
    """_complete_action on each slice: the left action at a fixed
    T-object, the right action at a fixed U-object."""
    act = {}
    for oo in other.objects:
        slice_dims = {x: dims.get((x, oo) if left else (oo, x), 0) for x in acting.objects}
        part = _complete_action(acting, "left" if left else "right", slice_dims,
                                {k[:3]: m for k, m in given.items() if k[3] == oo})
        act.update(((x, y, i, oo), m) for (x, y, i), m in part.items())
    return act


# ---------------------------------------------------------------------------
# running tasks

class Report:

    def __init__(self, task, status, doc, human_lines):
        self.task = task
        self.status = status          # "pass" | "validation" | "hypothesis" | "verification" | "internal"
        self.doc = doc
        self.human_lines = human_lines


def _base_doc(task, args, options):
    return {
        "schema": SCHEMA_VERSION,
        "task": task,
        "args": list(args),
        "seed": options.get("seed", 0),
        "hypotheses": {},
        "degrees": options.get("max_degree", 4),
        "dims": {"ExtCI": None, "HC": None, "HB": None},
        "exact_at": None,
        "notes": [],
    }


def run_workspace(workspace, options):
    reports = []
    n = options.get("max_degree", 4)
    for task in workspace.tasks:
        doc = _base_doc(task.kind, task.args, options)
        try:
            if task.kind == "validate":
                cat = workspace._category(task.args[0])
                rep = cat.validate()
                doc["notes"] = [f"{k} at {w}: {m}" for k, w, m in rep.failures]
                status = "pass" if rep.ok else "validation"
                human = [f"validate {task.args[0]}: " + ("ok" if rep.ok else "INVALID")]
                human += ["  " + x for x in doc["notes"]]
            elif task.kind == "cohomology":
                cat = workspace._category(task.args[0])
                hc = hochschild_cohomology(cat, n)
                cdim, _ = center(cat)
                doc["dims"]["HC"] = hc
                doc["notes"].append(f"center dimension {cdim}")
                status = "pass" if hc[0] == cdim else "verification"
                if options.get("verify_oracle"):
                    env = enveloping(cat)
                    reg = regular_bimodule(cat, env)
                    low = min(n, 3)
                    bres = bar_resolution(cat, low + 2, env=env, regular=reg)
                    data = ext_data(bres, reg, low)
                    oracle = complex_cohomology_dims(data.dims, data.diffs, low)
                    mr = ext(reg, reg, low)
                    doc["notes"].append(f"bar-resolution oracle {oracle}")
                    doc["notes"].append(f"minimal-resolution oracle {mr}")
                    if oracle != hc[:low + 1] or mr != hc[:low + 1]:
                        status = "verification"
                human = [f"cohomology {task.args[0]} (degrees 0..{n}): {hc}"]
                human += ["  " + x for x in doc["notes"]]
            elif task.kind == "ideal-check":
                cat, ideal = workspace._ideal_in(task.args[0], task.args[1])
                audit = audit_hypotheses(cat, ideal)
                check = strongly_idempotent_check(cat, ideal, n)
                doc["hypotheses"] = {
                    "idempotent": audit["idempotent"],
                    "ideal_module_projective": audit["ideal_module_projective"],
                    "strongly_idempotent_samples_pass": check.passed,
                    "witness": check.witness,
                }
                status = "pass" if (audit["ok"] and check.passed) else "hypothesis"
                human = [f"ideal-check {task.args[1]} in {task.args[0]}: "
                         + ("pass" if status == "pass" else "FAIL")]
                human.append(f"  idempotent: {audit['idempotent']}")
                human.append(f"  I(x,-) projective: {audit['ideal_module_projective']}")
                human.append(f"  vanishing samples pass: {check.passed}")
                if check.witness:
                    human.append(f"  witness: {check.witness}")
            elif task.kind == "les":
                cat, ideal = workspace._ideal_in(task.args[0], task.args[1])
                les = theorem_les_pipeline(cat, ideal, n)
                status, human = _les_doc(doc, les, f"les {task.args[0]}/{task.args[1]}")
            elif task.kind == "cmp":
                t = workspace._category(task.args[0])
                u = workspace._category(task.args[1])
                m = workspace._named("bimodule", workspace.bimodules, task.args[2])
                les = cmp_pipeline(t, u, m, n)
                status, human = _les_doc(doc, les, f"cmp [{task.args[0]} 0; {task.args[2]} {task.args[1]}]")
            elif task.kind == "happel":
                u = workspace._category(task.args[0])
                m = workspace._named("module", workspace.modules, task.args[1])
                hap = happel_pipeline(u, m, n)
                _, human = _les_doc(doc, hap.les, f"happel {task.args[0]}[{task.args[1]}]")
                doc["happel"] = {
                    "hom_MM_dim": hap.hom_dim,
                    "ext_MM": hap.ext_self,
                    "identities": [
                        {"label": lab, "lhs": lhs, "rhs": rhs, "ok": ok}
                        for lab, lhs, rhs, ok in hap.identities],
                }
                status = "pass" if hap.passed else "verification"
                for lab, lhs, rhs, ok in hap.identities:
                    human.append(f"  {lab}: {lhs} vs {rhs} " + ("ok" if ok else "MISMATCH"))
            else:
                raise UnresolvedName(f"unknown task kind {task.kind}")
        except HypothesisFailed as exc:
            doc["hypotheses"] = {"ok": False, "reasons": exc.reasons}
            status = "hypothesis"
            human = [f"{task.kind} {' '.join(task.args)}: hypothesis audit failed"]
            human += ["  " + r for r in exc.reasons]
        except VerificationFailed as exc:
            doc["notes"].append(f"verification failed: {exc}")
            status = "verification"
            human = [f"{task.kind} {' '.join(task.args)}: verification failed: {exc}"]
        except INPUT_ERRORS as exc:
            doc["notes"] = [f"task error: {exc}"]
            status = "validation"
            human = [f"{task.kind} {' '.join(task.args)}: ERROR {exc}"]
        except Exception as exc:
            note = f"internal error: {type(exc).__name__}: {exc}"
            doc["notes"] = [note]
            status = "internal"
            human = [f"{task.kind} {' '.join(task.args)}: {note}"]
        reports.append(Report(task, status, doc, human))
    return reports, _worst_code(EXIT_CODES.get(r.status, 0) for r in reports)


def _les_doc(doc, les, title):
    doc["hypotheses"] = {
        "idempotent": les.hypotheses.get("idempotent"),
        "ideal_module_projective": les.hypotheses.get("ideal_module_projective"),
    }
    doc["dims"] = {k: list(v) for k, v in les.dims.items()}
    doc["exact_at"] = list(les.exact_at)
    doc["notes"] = list(les.notes)
    doc["identifications"] = dict(les.identifications)
    ok = les.passed
    status = "pass" if ok else "verification"
    human = [f"{title}: " + ("pass" if ok else "FAIL")]
    human.append(f"  Ext^i(C,I): {les.dims['ExtCI']}")
    human.append(f"  H^i(C):     {les.dims['HC']}")
    human.append(f"  H^i(B):     {les.dims['HB']}")
    human.append(f"  exact at all {len(les.exact_at)} nodes: {les.all_exact()}")
    return status, human


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Mat):
        return [[str(v) for v in row] for row in obj.data]
    raise TypeError(f"not serializable: {type(obj)}")


def main(argv=None):
    # only the command line needs argparse; importing the module for its
    # API (parse, Workspace, run_workspace) does not load it
    import argparse

    parser = argparse.ArgumentParser(
        prog="homcat",
        description="Exact Hochschild-Mitchell cohomology and long-exact-sequence "
                    "verification for finite K-linear categories.")
    parser.add_argument("files", nargs="+", help="workspace (.kcat) files")
    parser.add_argument("--max-degree", type=int, default=4, metavar="N")
    parser.add_argument("--field", default=None,
                        help="override the workspace field: Q or gf:p")
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verify-oracle", action="store_true")
    args = parser.parse_args(argv)

    if args.max_degree < 0:
        print(f"invalid --max-degree {args.max_degree}: must be at least 0", file=sys.stderr)
        return 1
    override = None
    if args.field is not None:
        try:
            if args.field == "Q":
                override = Field.rationals()
            elif args.field.startswith("gf:"):
                override = Field.gf(int(args.field[3:]))
            else:
                raise ValueError("expected Q or gf:p")
        except ValueError as exc:
            print(f"invalid --field {args.field!r}: {exc}", file=sys.stderr)
            return 1

    options = {
        "max_degree": args.max_degree,
        "seed": args.seed,
        "verify_oracle": args.verify_oracle,
    }
    try:
        code = _run_files(args.files, override, options, args.json_out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`homcat ... | head`): stop without a
        # traceback, and keep the interpreter's final flush off the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13   # killed by SIGPIPE, as the shell reports it
    return code


def _run_files(paths, override, options, json_out):
    """Run every file; a file that cannot be read or built gets one stderr
    line and counts by the same precedence as a failed task."""
    codes = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            ws_file = parse(source)
            workspace = Workspace(ws_file, field_override=override)
        except (OSError, UnicodeDecodeError, *INPUT_ERRORS) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            codes.append(1)
            continue
        except VerificationFailed as exc:
            print(f"{path}: verification failed: {exc}", file=sys.stderr)
            codes.append(3)
            continue
        except Exception as exc:
            print(f"{path}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(4)
            continue
        reports, code = run_workspace(workspace, options)
        for rep in reports:
            if json_out:
                print(json.dumps(rep.doc, default=_json_default, sort_keys=False,
                                 separators=(",", ":")))
            else:
                for line in rep.human_lines:
                    print(line)
            if rep.status == "internal":
                print(f"{path}: {rep.task.kind} {' '.join(rep.task.args)}: "
                      f"{rep.doc['notes'][0]}", file=sys.stderr)
        codes.append(code)
    return _worst_code(codes)


if __name__ == "__main__":
    sys.exit(main())
