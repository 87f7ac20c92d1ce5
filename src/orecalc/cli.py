"""Command-line interface and the textual problem-file format.

A problem file declares one algebra, named ideals and oracles, and a task
list; `run` executes the tasks in order and renders text or JSON.  The
printer emits canonical text, so parse -> print -> parse is a fixpoint.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .arith import MAX_DEGREE, PolyRing, RatFunc, _coef, _record_product
from .closure import closure_apply, closure_product, closure_sum
from .dimension import hilbert_dimension
from .errors import (
    DegreeOverflow,
    KindError,
    OrecalcError,
    OutOfDomain,
    ProblemSyntaxError,
    UnknownName,
)
from .groebner import GREVLEX, GRLEX, LeftIdeal, MonomialOrder
from .growth import growth_probe, growth_zero_dimensional
from .ore import CATALOG, OreAlgebra, OreGenerator, OreKind, OrePoly, format_opoly
from .telescoping import fasenmyer_search, restrict_to_x, zeilberger_search
from .verify import (
    Add,
    Builtin,
    Const,
    DefiniteSum,
    Lin,
    LinExpr,
    Pow,
    Product,
    check_identity,
    operator_variables,
)

# -- task syntax -----------------------------------------------------------------
#
# Each task is its word, its fields in order, optional clauses, then `;`.
# A field is a literal word or (key, type); `clauses` maps each clause's
# word, under which its value is stored, to a type.  Types: _INT, _NAME,
# the names `_check_names` resolves (_GEN, _TGEN, _VAR, _SUMVAR), [type]
# for a comma list, and (message, {word: fields}) for a word from a fixed
# set, whose own fields follow it.  A clause of type None is a flag, stored
# as 1.  The parser, `_print_task` and `_check_names` all read this table.

_INT, _NAME, _GEN, _TGEN, _VAR, _SUMVAR = "int", "name", "gen", "tgen", "var", "sumvar"
_PAIR = (("left", _NAME), ("right", _NAME))
_EXPECT = ("expect must be none or found, got {!r}", {"none": (), "found": ()})

# any_order: clauses may come in any order and repeat, the last value
# winning; otherwise each comes at most once, in the table's order
_Syntax = namedtuple("_Syntax", "fields clauses any_order defaults",
                     defaults=({}, False, {}))

_TASKS = {
    "gb": _Syntax((("ideal", _NAME),)),
    "dim": _Syntax((("ideal", _NAME),)),
    "closure": _Syntax(
        (("op", ("closure kind must be product, sum, or apply",
                 {"product": _PAIR, "sum": _PAIR,
                  "apply": (("gen", _GEN), ("ideal", _NAME))})),
         "maxdeg", ("maxdeg", _INT)),
        {"as": _NAME}),
    "growth": _Syntax(
        (("method", ("growth method must be exact or probe", {"exact": (), "probe": ()})),
         ("ideal", _NAME), "over", ("tvars", [_VAR])),
        {"window": _INT}, defaults={"window": 10}),
    "telescope": _Syntax(
        (("ideal", _NAME), "over", ("tgens", [_TGEN]), "maxdeg", ("maxdeg", _INT)),
        {"target": _INT, "as": _NAME, "expect": _EXPECT}, any_order=True),
    "zeilberger": _Syntax(
        (("ideal", _NAME), "over", ("tgen", _TGEN), "dega", ("dega", _INT),
         "degb", ("degb", _INT)),
        {"denoms": _INT, "as": _NAME, "expect": _EXPECT}, any_order=True),
    "verify": _Syntax(
        (("result", _NAME), ":", "sum", "(", ("var", _SUMVAR), ",",
         ("summand", _NAME), ")", "==", ("closed", _NAME)),
        {"box": _INT, "positive": None}),
}


def _fields(fields, data):
    """The fields in order, each chosen word followed by its own fields.
    Lazy: the parser stores a chosen word in `data` before asking for more."""
    for f in fields:
        yield f
        if isinstance(f, tuple) and isinstance(f[1], tuple):
            yield from _fields(f[1][1][data[f[0]]], data)


# -- tokens ---------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<skip>[ \t\r]+|#[^\n]*)|(?P<nl>\n)|(?P<int>\d+)|(?P<name>\w+)"
                    r"|(?P<punct>==|[<>()\[\],;:=+\-*/^])")


@dataclass
class Token:
    kind: str   # name | int | punct | eof
    text: str
    line: int
    col: int


def _tokenize(text):
    """A name starts with a letter or `_`; an int is a run of the decimal
    digits `int` reads.  Columns count characters from 1."""
    tokens = []
    line, start, i = 1, 0, 0   # start: offset of the current line
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None or m.lastgroup == "name" and not (text[i].isalpha() or text[i] == "_"):
            raise ProblemSyntaxError("unexpected character %r" % text[i], line, i - start + 1)
        if m.lastgroup == "nl":
            line, start = line + 1, m.end()
        elif m.lastgroup != "skip":
            tokens.append(Token(m.lastgroup, m.group(), line, i - start + 1))
        i = m.end()
    # a comment on the last line ends the text at its `#`
    tokens.append(Token("eof", "", line, len(text[start:].partition("#")[0]) + 1))
    return tokens


# -- AST -------------------------------------------------------------------------


@dataclass
class Task:
    kind: str
    data: dict = dataclass_field(default_factory=dict)
    # (line, col) of the first use of each generator or variable name
    pos: dict = dataclass_field(default_factory=dict)


@dataclass
class ProblemFile:
    algebra: OreAlgebra
    built_ideals: dict   # name -> LeftIdeal, built as it was read
    oracles: dict        # name -> oracle AST
    tasks: list


class Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise ProblemSyntaxError("expected %r, got %r" % (text, t.text or "eof"),
                                     t.line, t.col)
        return t

    def expect_name(self):
        t = self.next()
        if t.kind != "name":
            raise ProblemSyntaxError("expected a name, got %r" % (t.text or "eof"),
                                     t.line, t.col)
        return t

    def expect_int(self):
        t = self.next()
        if t.kind != "int":
            raise ProblemSyntaxError("expected an integer, got %r" % (t.text or "eof"),
                                     t.line, t.col)
        return int(t.text)

    def parse_file(self) -> ProblemFile:
        algebra = None
        ideals = {}
        oracles = {}
        tasks = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name":
                raise ProblemSyntaxError("expected a statement, got %r" % t.text,
                                         t.line, t.col)
            if t.text == "algebra":
                if algebra is not None:
                    raise ProblemSyntaxError("duplicate algebra declaration",
                                             t.line, t.col)
                algebra = self.parse_algebra()
            elif t.text in ("ideal", "oracle"):
                if algebra is None and t.text == "ideal":
                    raise ProblemSyntaxError("ideal before the algebra declaration",
                                             t.line, t.col)
                self.next()
                table = ideals if t.text == "ideal" else oracles
                name = self.expect_name()
                if name.text in table:
                    raise ProblemSyntaxError("duplicate %s %r" % (t.text, name.text),
                                             name.line, name.col)
                self.expect("=")
                table[name.text] = (self.parse_ideal(algebra) if t.text == "ideal"
                                    else self.parse_oracle_expr())
                self.expect(";")
            else:
                tasks.append(self.parse_task())
        if algebra is None:
            t = self.peek()
            raise ProblemSyntaxError("missing algebra declaration", t.line, t.col)
        return ProblemFile(algebra, ideals, oracles, tasks)

    def parse_algebra(self) -> OreAlgebra:
        """The declared algebra, each generator built as it is read: its kind
        takes the variable and exactly the argument its catalog row names.
        An error in building a generator or the algebra is reported at the
        generator's name (at `algebra` when no generator is at fault)."""
        start = self.expect("algebra")
        self.expect("Q")
        self.expect("(")
        ground = [self.expect_name().text]
        params = []
        target = ground
        while self.peek().text in (",", ";"):
            if self.next().text == ";":
                target = params
            target.append(self.expect_name().text)
        self.expect(")")
        self.expect("<")
        gens, at = [], []
        while True:
            name = self.expect_name()
            self.expect(":")
            kind_tok = self.expect_name()
            try:
                kind = OreKind(kind_tok.text)
            except ValueError:
                raise KindError("unknown generator kind %r" % kind_tok.text,
                                kind_tok.line, kind_tok.col)
            self.expect("(")
            var = self.expect_name().text
            field = CATALOG[kind].arg
            args = {field: self.parse_argument(field, ground + params)} if field else {}
            self.expect(")")
            at.append(name)
            try:
                gens.append(OreGenerator(name.text, kind, var, **args))
            except OrecalcError as exc:
                raise ProblemSyntaxError(str(exc), name.line, name.col)
            if self.peek().text != ",":
                break
            self.next()
        self.expect(">")
        self.expect(";")
        try:
            return OreAlgebra(ground, gens, params)
        except OrecalcError as exc:
            t = at[exc.gen] if hasattr(exc, "gen") else start
            raise ProblemSyntaxError(str(exc), t.line, t.col)

    def parse_argument(self, field, names):
        """The `,` and the argument after a generator's variable: the
        parameter q's name, the Mahler base, or the divided-difference point
        (a declared name or an integer)."""
        self.expect(",")
        if field == "param":
            return self.expect_name().text
        if field == "mahler_base":
            return self.expect_int()
        ring, t = PolyRing(names), self.peek()
        if t.kind == "int":
            return RatFunc.const(ring, self.expect_int())
        if self.expect_name().text not in ring.index:
            raise UnknownName("divdiff point %r not declared" % t.text, t.line, t.col)
        return RatFunc.from_poly(ring.var(t.text))

    def parse_ideal(self, alg) -> LeftIdeal:
        """`[op, ...]`, each operator built in `alg` as it is read: a name is
        a generator or a variable, an int a scalar."""
        self.expect("[")
        ops = [self.parse_opexpr(alg)]
        while self.peek().text == ",":
            self.next()
            ops.append(self.parse_opexpr(alg))
        self.expect("]")
        return LeftIdeal(alg, ops)

    def parse_opexpr(self, alg) -> OrePoly:
        value = self.parse_opterm(alg)
        while self.peek().text in ("+", "-"):
            if self.next().text == "+":
                value = value + self.parse_opterm(alg)
            else:
                value = value - self.parse_opterm(alg)
        return value

    def parse_opterm(self, alg) -> OrePoly:
        """Products and quotients; a divisor must be a nonzero coefficient."""
        value = self.parse_opfactor(alg)
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.parse_opfactor(alg)
            if op.text == "*":
                product = _within_degree(lambda: value * rhs, op)
                # a product of polynomial coefficients keeps its factors
                a, b, ab = map(_coefficient, (value, rhs, product))
                if a and b and ab and not (a.fac or b.fac):
                    _record_product(ab.numer, [(a.numer, 1), (b.numer, 1)])
                value = product
                continue
            if set(rhs.terms) - {alg._zero_exp}:
                raise ProblemSyntaxError("division only by coefficient expressions",
                                         op.line, op.col)
            c = rhs.terms.get(alg._zero_exp)
            if c is None or c.is_zero():
                raise ProblemSyntaxError("division by zero coefficient", op.line, op.col)
            value = value.scale(c.inverse())
        return value

    def parse_opfactor(self, alg) -> OrePoly:
        if self.peek().text == "-":
            self.next()
            return -self.parse_opfactor(alg)
        value = self.parse_opatom(alg)
        while self.peek().text == "^":
            op, t = self.next(), self.peek()
            n = self.expect_int()
            if n > MAX_DEGREE:
                raise ProblemSyntaxError("exponent %d exceeds %d" % (n, MAX_DEGREE),
                                         t.line, t.col)
            power = _within_degree(lambda: value ** n, op)
            # a power of a polynomial coefficient keeps its factors
            a = _coefficient(value)
            if a and n > 1 and not a.fac:
                _record_product(_coefficient(power).numer, [(a.numer, n)])
            value = power
        return value

    def parse_opatom(self, alg) -> OrePoly:
        t = self.next()
        if t.kind == "int":
            return alg.scalar(int(t.text))
        if t.kind == "name":
            if t.text in alg.gen_index:
                return alg.gen(t.text)
            if t.text in alg.field.index:
                return alg.var(t.text)
            raise UnknownName("unknown symbol %r" % t.text, t.line, t.col)
        if t.text == "(":
            value = self.parse_opexpr(alg)
            self.expect(")")
            return value
        raise ProblemSyntaxError("unexpected token %r in expression" % t.text,
                                 t.line, t.col)

    # oracles

    def parse_oracle_expr(self):
        terms = [self.parse_oracle_term()]
        while self.peek().text in ("+", "-"):
            neg = self.next().text == "-"
            term = self.parse_oracle_term()
            if neg:
                term = Product((Const(-1), term))
            terms.append(term)
        if len(terms) == 1:
            return terms[0]
        return Add(tuple(terms))

    def parse_oracle_term(self):
        factors = [self.parse_oracle_factor()]
        while self.peek().text == "*":
            self.next()
            factors.append(self.parse_oracle_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_oracle_factor(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            inner = self.parse_oracle_factor()
            return Product((Const(-1), inner))
        if t.kind == "int":
            self.next()
            if self.peek().text == "/":
                self.next()
                den = self.peek()
                if self.expect_int() == 0:
                    raise ProblemSyntaxError("division by zero", den.line, den.col)
                return Const(_coef(Fraction(int(t.text), int(den.text))))
            return Const(int(t.text))
        if t.kind == "name":
            name = self.next().text
            if self.peek().text != "(":
                return Lin(self.parse_linexpr(first=name))
            self.expect("(")
            if name == "sum":
                var = self.expect_name().text
                self.expect(",")
                body = self.parse_oracle_expr()
                self.expect(")")
                return DefiniteSum(var, body)
            if name == "pow":
                base = self.parse_linexpr()
                self.expect(",")
                expnt = self.parse_linexpr()
                self.expect(")")
                return Pow(base, expnt)
            args = [self.parse_linexpr()]
            while self.peek().text == ",":
                self.next()
                args.append(self.parse_linexpr())
            tok = self.peek()
            self.expect(")")
            try:
                return Builtin(name, tuple(args))
            except KeyError:
                raise UnknownName("unknown oracle %r" % name, tok.line, tok.col)
            except OutOfDomain as exc:
                raise ProblemSyntaxError(str(exc), t.line, t.col)
        if t.text == "(":
            self.next()
            node = self.parse_linexpr()
            self.expect(")")
            return Lin(node)
        raise ProblemSyntaxError("unexpected token %r in oracle" % t.text,
                                 t.line, t.col)

    def parse_linexpr(self, first=None) -> LinExpr:
        """Terms `N`, `N*name` and `name` joined by signs.  In parentheses
        (no `first`) a term may carry several signs, the first term too.
        After an oracle's bare name `first`, one sign and then a term must
        follow.  Every sign needs a term after it."""
        coeffs = {first: 1} if first else {}
        const = 0
        terms = bool(first)
        while not terms or self.peek().text in ("+", "-"):
            sign = 1
            while self.peek().text in ("+", "-"):
                sign = -sign if self.next().text == "-" else sign
                if first:
                    break
            t = self.peek()
            if t.kind not in ("int", "name"):
                raise ProblemSyntaxError("bad index expression" if first else
                                         "expected an index expression", t.line, t.col)
            self.next()
            if t.kind == "name":
                coeffs[t.text] = coeffs.get(t.text, 0) + sign
            elif self.peek().text == "*":
                self.next()
                var = self.expect_name().text
                coeffs[var] = coeffs.get(var, 0) + sign * int(t.text)
            else:
                const += sign * int(t.text)
            terms = True
        return LinExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c)),
                       const)

    # tasks

    def parse_task(self) -> Task:
        t = self.expect_name()
        syntax = _TASKS.get(t.text)
        if syntax is None:
            raise ProblemSyntaxError("unknown task %r" % t.text, t.line, t.col)
        task = Task(t.text)
        for f in _fields(syntax.fields, task.data):
            if isinstance(f, str):
                self.expect(f)
            else:
                task.data[f[0]] = self.parse_field(f[1], task.pos)
        words = list(syntax.clauses)
        while self.peek().text in words:
            word = self.next().text
            if not syntax.any_order:
                words = words[words.index(word) + 1:]
            kind = syntax.clauses[word]
            task.data[word] = 1 if kind is None else self.parse_field(kind, task.pos)
        for key, value in syntax.defaults.items():
            task.data.setdefault(key, value)
        self.expect(";")
        return task

    def parse_field(self, kind, pos):
        """One field's value; a checked name's position goes into `pos`."""
        if kind == _INT:
            return self.expect_int()
        if isinstance(kind, list):
            values = [self.parse_field(kind[0], pos)]
            while self.peek().text == ",":
                self.next()
                values.append(self.parse_field(kind[0], pos))
            return values
        t = self.expect_name()
        if isinstance(kind, tuple) and t.text not in kind[1]:
            raise ProblemSyntaxError(kind[0].format(t.text), t.line, t.col)
        if kind in (_GEN, _TGEN, _VAR, _SUMVAR):
            pos.setdefault(t.text, (t.line, t.col))
        return t.text


def _coefficient(f: OrePoly):
    """The coefficient of f when f is one, else None."""
    return f.terms.get(f.algebra._zero_exp) if len(f.terms) == 1 else None


def _within_degree(compute, token):
    """compute(), a polynomial degree past `MAX_DEGREE` reported as a
    syntax error at the operator token."""
    try:
        return compute()
    except DegreeOverflow as exc:
        raise ProblemSyntaxError(str(exc), token.line, token.col)


def parse(text: str) -> ProblemFile:
    """Parse and build a problem file (algebra, ideals, oracles resolved)."""
    pf = Parser(text).parse_file()
    _check_names(pf)
    return pf


def _check_names(pf: ProblemFile):
    """Resolve the generator and variable names the tasks use, so that an
    unknown one is an UnknownName at its position, not a failed run.
    Ideal, oracle and result names stay with the run: tasks can create
    ideals and results as they go."""
    alg = pf.algebra
    for task in pf.tasks:
        d = task.data
        for f in _fields(_TASKS[task.kind].fields, d):
            if isinstance(f, str):
                continue
            key, kind = f
            names = d[key] if isinstance(kind, list) else [d[key]]
            kind = kind[0] if isinstance(kind, list) else kind
            for name in names:
                at = task.pos.get(name, (None, None))
                if kind == _GEN and name not in alg.gen_index:
                    raise UnknownName("unknown generator %r" % name, *at)
                if kind == _TGEN:
                    _resolve_gen(alg, name, *at)
                if kind == _VAR and name not in alg.field.index:
                    raise UnknownName("unknown variable %r" % name, *at)
                if kind == _SUMVAR:
                    summand = pf.oracles.get(d["summand"])
                    if summand is not None and name not in summand.variables():
                        raise UnknownName("summation variable %r does not occur in %r"
                                          % (name, d["summand"]), *at)


# -- printer ---------------------------------------------------------------------


def print_problem(pf: ProblemFile) -> str:
    out = []
    alg = pf.algebra
    head = ", ".join(alg.ground_vars)
    if alg.params:
        head += "; " + ", ".join(alg.params)
    out.append("algebra Q(%s) <%s>;" % (head, ", ".join(map(str, alg.gens))))
    for name, ideal in pf.built_ideals.items():
        gens_text = ", ".join(format_opoly(g) for g in ideal.generators)
        out.append("ideal %s = [%s];" % (name, gens_text))
    for name, node in pf.oracles.items():
        out.append("oracle %s = %s;" % (name, node))
    for task in pf.tasks:
        out.append(_print_task(task))
    return "\n".join(out) + "\n"


def _print_task(task: Task) -> str:
    syntax, d = _TASKS[task.kind], task.data
    words = [task.kind] + [f if isinstance(f, str) else _text(d[f[0]])
                           for f in _fields(syntax.fields, d)]
    words += [w if kind is None else "%s %s" % (w, _text(d[w]))
              for w, kind in syntax.clauses.items() if w in d]
    # no space before : , ( ) ; and none after (
    return re.sub(r" (?=[:,();])|(?<=\() ", "", " ".join(words) + " ;")


def _text(value):
    return ", ".join(value) if isinstance(value, list) else str(value)

# -- runner ----------------------------------------------------------------------


def _growth(ideals, d, order, entry):
    """One growth task; returns (report entry, text line, exit status)."""
    try:
        fn = growth_zero_dimensional if d["method"] == "exact" else growth_probe
        cert = fn(_get(ideals, d["ideal"]), d["tvars"], window=d["window"], order=order)
    except OrecalcError as exc:
        return _failed(entry, "growth", exc)
    entry.update(p=cert.p, degrees=cert.degrees, method=cert.method,
                 degenerate=cert.degenerate, heuristic=cert.heuristic)
    return entry, "growth %s %s: p = %s  degrees %s%s" % (
        d["method"], d["ideal"], cert.p, cert.degrees,
        " (degenerate)" if cert.degenerate else ""), 0


def _failed(entry, kind, exc):
    entry.update(ok=False, error=str(exc))
    return entry, "%s: error: %s" % (kind, exc), 1


def run(pf: ProblemFile, order: MonomialOrder = GREVLEX, fmt="text",
        verify_box=8, out=None):
    """Execute the task list; returns (exit_status, rendered_text).

    A growth task binds no name and no task reads its result, so when a
    spare CPU is usable it runs in a forked helper process (`helper.Helper`)
    while the other tasks go on here.  Helpers start only when `run`
    begins (`_start_helpers`); a growth task without one runs at its
    place.  A helper's entry, text and status are put back at its task's
    index, so the output is the same either way; a helper that gives no
    valid result has its task run here instead.  Every helper is reaped
    before `run` returns or raises."""
    out = out if out is not None else sys.stdout
    helpers = {}   # task index: (helper, growth arguments)
    try:
        _start_helpers(pf, order, helpers)
        status, report, blocks = _run_tasks(pf, order, verify_box, helpers)
        for t, (helper, args) in helpers.items():
            report["tasks"][t], blocks[t], failed = helper.result() or _growth(*args)
            status |= failed
    finally:
        for helper, _ in helpers.values():
            helper.stop()
    if fmt == "json":
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(blocks) + ("\n" if blocks else "")
    out.write(rendered)
    return status, rendered


def _start_helpers(pf, order, helpers):
    """The one place helpers start: one for each growth task, in file
    order, whose ideal is the file's own: declared there, and rebound by
    no closure `as` before the task.  helpers receives {task index:
    (helper, growth arguments)}; the first helper that cannot start ends
    the search."""
    rebound = set()
    for t, task in enumerate(pf.tasks):
        d = task.data
        if task.kind == "closure" and "as" in d:
            rebound.add(d["as"])
        elif task.kind == "growth" and d["ideal"] in pf.built_ideals.keys() - rebound:
            from .helper import Helper  # only files with a growth task import it
            args = (dict(pf.built_ideals), d, order, _entry(task))
            helper = Helper.start(_growth, args, len(helpers))
            if helper is None:
                return
            helpers[t] = helper, args


def _entry(task):
    """A task's report entry before it runs."""
    entry = {"task": task.kind, "ok": True}
    entry.update({k: v for k, v in task.data.items() if isinstance(v, (str, int, list))})
    return entry


def _run_tasks(pf, order, verify_box, helpers):
    """The tasks in order; (exit status, report, text blocks), with one
    report entry and one text block per task.  Both are None for a task
    that has a helper in `helpers`, until the caller puts its result
    there."""
    report = {"schema_version": 1, "tasks": []}
    blocks = []
    status = 0
    named_results = {}
    ideals = dict(pf.built_ideals)

    for t, task in enumerate(pf.tasks):
        if t in helpers:
            report["tasks"].append(None)
            blocks.append(None)
            continue
        d = task.data
        entry = _entry(task)
        lines = []
        emit = lines.append
        try:
            if task.kind == "gb":
                I = _get(ideals, d["ideal"])
                gb = I.groebner_basis(order)
                entry["basis"] = [format_opoly(g) for g in gb.elements]
                entry["staircase"] = sorted(list(e) for e in gb.corners)
                emit("gb %s: %d elements" % (d["ideal"], len(gb)))
                for g in gb.elements:
                    emit("  %s" % format_opoly(g))
            elif task.kind == "dim":
                I = _get(ideals, d["ideal"])
                dim = hilbert_dimension(I, order)
                entry["dimension"] = dim if isinstance(dim, int) else str(dim)
                emit("dim %s = %s" % (d["ideal"], dim))
            elif task.kind == "closure":
                if d["op"] == "apply":
                    res = closure_apply(d["gen"], _get(ideals, d["ideal"]),
                                        d["maxdeg"], order)
                elif d["op"] == "product":
                    res = closure_product(_get(ideals, d["left"]),
                                          _get(ideals, d["right"]),
                                          d["maxdeg"], order)
                else:
                    res = closure_sum(_get(ideals, d["left"]),
                                      _get(ideals, d["right"]),
                                      d["maxdeg"], order)
                dim = res.dimension
                entry["generators"] = [format_opoly(g) for g in res.ideal.generators]
                entry["dimension"] = dim if isinstance(dim, int) else str(dim)
                entry["bound_met"] = res.bound_met
                emit("closure %s: %d generators, dim = %s%s" % (
                    d["op"], len(res.ideal.generators), dim,
                    "" if res.bound_met else " (bound not met)"))
                if "as" in d:
                    ideals[d["as"]] = res.ideal
                if not res.bound_met:
                    status = 1
            elif task.kind == "growth":
                entry, line, failed = _growth(ideals, d, order, entry)
                status |= failed
                emit(line)
            elif task.kind == "telescope":
                I = _get(ideals, d["ideal"])
                tgens = [_resolve_gen(pf.algebra, t) for t in d["tgens"]]
                outcome = fasenmyer_search(I, tgens, d["maxdeg"],
                                           target_dim=d.get("target"),
                                           order=order)
                entry["found"] = len(outcome.results)
                entry["telescopers"] = [format_opoly(r.telescoper)
                                        for r in outcome.results]
                entry["budget_exhausted"] = outcome.budget_exhausted
                emit("telescope %s over %s: %d telescoper(s)" % (
                    d["ideal"], ",".join(d["tgens"]), len(outcome.results)))
                for r in outcome.results:
                    emit("  A = %s" % format_opoly(r.telescoper))
                    for gname, cert in r.certificates.items():
                        if not cert.is_zero():
                            emit("  certificate[%s] = %s" % (gname, format_opoly(cert)))
                    emit("  (difference-operator certificate convention; "
                         "membership checked: %s)" % r.membership_checked)
                if "as" in d and outcome.results:
                    named_results[d["as"]] = outcome.results
                if d.get("expect") == ("none" if outcome.results else "found"):
                    status = 1
            elif task.kind == "zeilberger":
                I = _get(ideals, d["ideal"])
                tgen = _resolve_gen(pf.algebra, d["tgen"])
                res, system = zeilberger_search(I, tgen, d["dega"],
                                                d["degb"],
                                                denom_bound=d.get("denoms", 1),
                                                order=order)
                entry["square_shape"] = list(system.square_shape)
                entry["constraint_shape"] = list(system.constraint_shape)
                entry["solved"] = system.solved
                emit("zeilberger %s over %s (degA %d, degB %d): system %dx%d%s" % (
                    d["ideal"], d["tgen"], d["dega"], d["degb"],
                    system.square_shape[0], system.square_shape[1],
                    ", solved" if system.solved else ", no solution"))
                if res is not None:
                    entry["telescoper"] = format_opoly(res.telescoper)
                    entry["certificate"] = format_opoly(res.certificates[tgen])
                    emit("  A = %s" % format_opoly(res.telescoper))
                    emit("  B = %s" % format_opoly(res.certificates[tgen]))
                    if "as" in d:
                        named_results[d["as"]] = [res]
                if d.get("expect") == ("none" if res is not None else "found"):
                    status = 1
            elif task.kind == "verify":
                results = named_results.get(d["result"])
                if not results:
                    raise UnknownName("no stored telescoping result %r" % d["result"])
                summand = _get(pf.oracles, d["summand"])
                closed = _get(pf.oracles, d["closed"])
                box = d.get("box", verify_box)
                lo = 1 if d.get("positive") else 0
                telescoper = restrict_to_x(results[0].telescoper,
                                           list(results[0].t_gens))
                used = (summand.variables() | closed.variables()
                        | operator_variables(telescoper))
                ranges = {v: (lo, box) for v in telescoper.algebra.ground_vars
                          if v in used}
                rep = check_identity(summand, telescoper, closed, d["var"], ranges)
                entry["passed"] = rep.passed
                entry["checked"] = rep.checked
                entry["counterexamples"] = [
                    [env, what] for env, what in rep.counterexamples[:5]]
                emit("verify %s: %s (%d points%s)" % (
                    d["result"], "pass" if rep.passed else "FAIL", rep.checked,
                    ", %d skipped" % len(rep.skipped) if rep.skipped else ""))
                if not rep.passed:
                    status = 1
        except OrecalcError as exc:
            _, line, status = _failed(entry, task.kind, exc)
            emit(line)
        report["tasks"].append(entry)
        blocks.append("\n".join(lines))
    return status, report, blocks


def _resolve_gen(algebra, name, line=None, col=None):
    """Accept a generator name or a ground variable carrying one generator."""
    if name in algebra.gen_index:
        return name
    for g in algebra.gens:
        if g.var == name:
            return g.name
    raise UnknownName("no generator named or attached to %r" % name, line, col)


def _get(table, name):
    try:
        return table[name]
    except KeyError:
        raise UnknownName("unknown name %r" % name)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="orecalc",
        description="Ore-algebra engine: Groebner bases, closure properties, "
                    "polynomial growth, and creative telescoping.")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in ("run", "check"):
        p = sub.add_parser(cmd)
        p.add_argument("file", help="problem file, or - for stdin")
        p.add_argument("--order", choices=["grevlex", "grlex"], default="grevlex")
        p.add_argument("--max-degree", type=int, default=None,
                       help="overrides task degree budgets")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--verify-box", type=int, default=8)
    args = ap.parse_args(argv)
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        sys.stderr.write("cannot read %s: %s\n" % (args.file, reason))
        return 2
    try:
        pf = parse(text)
    except OrecalcError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    if args.command == "check":
        sys.stdout.write("ok: %d ideal(s), %d oracle(s), %d task(s)\n" % (
            len(pf.built_ideals), len(pf.oracles), len(pf.tasks)))
        return 0
    if args.max_degree is not None:
        for task in pf.tasks:
            if "maxdeg" in task.data:
                task.data["maxdeg"] = args.max_degree
    order = GREVLEX if args.order == "grevlex" else GRLEX
    status, _ = run(pf, order=order, fmt=args.format,
                    verify_box=args.verify_box)
    return status


if __name__ == "__main__":
    sys.exit(main())
