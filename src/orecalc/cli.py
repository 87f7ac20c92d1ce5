"""Command-line interface and the textual problem-file format.

A problem file declares one algebra, named ideals and oracles, and a task
list; `run` executes the tasks in order and renders text or JSON.  The
printer emits canonical text, so parse -> print -> parse is a fixpoint.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .arith import PolyRing, RatFunc, _coef
from .closure import closure_apply, closure_product, closure_sum
from .dimension import hilbert_dimension
from .errors import KindError, OrecalcError, ProblemSyntaxError, UnknownName
from .groebner import GREVLEX, GRLEX, LeftIdeal, MonomialOrder
from .growth import growth_probe, growth_zero_dimensional
from .ore import _Q_KINDS, OreAlgebra, OreGenerator, OreKind, OrePoly, format_opoly
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
)

_KIND_NAMES = {
    "shift": OreKind.SHIFT,
    "diff": OreKind.DIFFERENTIATION,
    "difference": OreKind.DIFFERENCE,
    "qdilation": OreKind.Q_DILATION,
    "cqdifference": OreKind.CONT_Q_DIFFERENCE,
    "qdiff": OreKind.Q_DIFFERENTIATION,
    "qshift": OreKind.Q_SHIFT,
    "dqdifference": OreKind.DISCRETE_Q_DIFFERENCE,
    "euler": OreKind.EULER,
    "mahler": OreKind.MAHLER,
    "divdiff": OreKind.DIVIDED_DIFFERENCE,
}
_KIND_TO_NAME = {v: k for k, v in _KIND_NAMES.items()}


# -- tokens ---------------------------------------------------------------------

_PUNCT = ("==", "<", ">", "(", ")", "[", "]", ",", ";", ":", "=", "+", "-",
          "*", "/", "^")


@dataclass
class Token:
    kind: str   # name | int | punct | eof
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        two = text[i:i + 2]
        if two == "==":
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if c in "<>()[],;:=+-*/^":
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ProblemSyntaxError("unexpected character %r" % c, line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# -- AST -------------------------------------------------------------------------


@dataclass
class AlgebraDecl:
    ground_vars: list
    params: list
    gens: list  # (name, kind_name, args)


@dataclass
class Task:
    kind: str
    data: dict = dataclass_field(default_factory=dict)
    # (line, col) of the first use of each generator or variable name
    pos: dict = dataclass_field(default_factory=dict)


@dataclass
class ProblemFile:
    algebra_decl: AlgebraDecl
    ideals: dict       # name -> list of operator ASTs (for printing)
    oracles: dict      # name -> oracle AST
    tasks: list
    algebra: OreAlgebra = None
    built_ideals: dict = dataclass_field(default_factory=dict)
    built_oracles: dict = dataclass_field(default_factory=dict)


# operator expression AST: tuples
#   ("num", int) | ("sym", name) | ("add", l, r) | ("sub", l, r)
#   ("mul", l, r) | ("div", l, r) | ("pow", base, int) | ("neg", x)


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

    def expect_name_at(self, pos):
        """A name, with its position recorded in `pos` for `_check_names`."""
        t = self.expect_name()
        pos.setdefault(t.text, (t.line, t.col))
        return t.text

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
            elif t.text == "ideal":
                name, gens = self.parse_ideal()
                ideals[name] = gens
            elif t.text == "oracle":
                name, node = self.parse_oracle()
                oracles[name] = node
            else:
                tasks.append(self.parse_task())
        if algebra is None:
            t = self.peek()
            raise ProblemSyntaxError("missing algebra declaration", t.line, t.col)
        return ProblemFile(algebra, ideals, oracles, tasks)

    def parse_algebra(self) -> AlgebraDecl:
        self.expect("algebra")
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
        gens = []
        while True:
            gname = self.expect_name().text
            self.expect(":")
            kind_tok = self.expect_name()
            if kind_tok.text not in _KIND_NAMES:
                raise KindError("unknown generator kind %r" % kind_tok.text,
                                kind_tok.line, kind_tok.col)
            self.expect("(")
            args = [self.expect_name().text]
            while self.peek().text == ",":
                self.next()
                t = self.peek()
                if t.kind == "int":
                    args.append(self.expect_int())
                else:
                    args.append(self.expect_name().text)
            self.expect(")")
            gens.append((gname, kind_tok.text, args))
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect(">")
        self.expect(";")
        return AlgebraDecl(ground, params, gens)

    def parse_ideal(self):
        self.expect("ideal")
        name = self.expect_name().text
        self.expect("=")
        self.expect("[")
        gens = [self.parse_opexpr()]
        while self.peek().text == ",":
            self.next()
            gens.append(self.parse_opexpr())
        tok = self.peek()
        self.expect("]")
        self.expect(";")
        if not gens:
            raise ProblemSyntaxError("empty ideal", tok.line, tok.col)
        return name, gens

    # operator expressions

    def parse_opexpr(self):
        node = self.parse_opterm()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_opterm()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_opterm(self):
        node = self.parse_opfactor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.parse_opfactor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_opfactor(self):
        if self.peek().text == "-":
            self.next()
            return ("neg", self.parse_opfactor())
        node = self.parse_opatom()
        while self.peek().text == "^":
            self.next()
            node = ("pow", node, self.expect_int())
        return node

    def parse_opatom(self):
        t = self.next()
        if t.kind == "int":
            return ("num", int(t.text))
        if t.kind == "name":
            return ("sym", t.text)
        if t.text == "(":
            node = self.parse_opexpr()
            self.expect(")")
            return node
        raise ProblemSyntaxError("unexpected token %r in expression" % t.text,
                                 t.line, t.col)

    # oracles

    def parse_oracle(self):
        self.expect("oracle")
        name = self.expect_name().text
        self.expect("=")
        node = self.parse_oracle_expr()
        self.expect(";")
        return name, node

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
                den = self.expect_int()
                return Const(_coef(Fraction(int(t.text), den)))
            return Const(int(t.text))
        if t.kind == "name":
            name = self.next().text
            if self.peek().text != "(":
                return Lin(self.parse_linexpr_cont(first_name=name))
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
        if t.text == "(":
            self.next()
            node = self.parse_linexpr()
            self.expect(")")
            return Lin(node)
        raise ProblemSyntaxError("unexpected token %r in oracle" % t.text,
                                 t.line, t.col)

    def parse_linexpr(self) -> LinExpr:
        coeffs = {}
        const = 0
        sign = 1
        first = True
        while True:
            t = self.peek()
            if t.text == "-":
                self.next()
                sign = -sign
                continue
            if t.text == "+":
                self.next()
                continue
            if t.kind == "int":
                self.next()
                value = int(t.text)
                if self.peek().text == "*":
                    self.next()
                    var = self.expect_name().text
                    coeffs[var] = coeffs.get(var, 0) + sign * value
                else:
                    const += sign * value
            elif t.kind == "name":
                self.next()
                coeffs[t.text] = coeffs.get(t.text, 0) + sign
            else:
                if first:
                    raise ProblemSyntaxError("expected an index expression",
                                             t.line, t.col)
                break
            sign = 1
            first = False
            if self.peek().text not in ("+", "-"):
                break
        return LinExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c)),
                       const)

    def parse_linexpr_cont(self, first_name) -> LinExpr:
        coeffs = {first_name: 1}
        const = 0
        while self.peek().text in ("+", "-"):
            sign = 1 if self.next().text == "+" else -1
            t = self.next()
            if t.kind == "int":
                value = int(t.text)
                if self.peek().text == "*":
                    self.next()
                    var = self.expect_name().text
                    coeffs[var] = coeffs.get(var, 0) + sign * value
                else:
                    const += sign * value
            elif t.kind == "name":
                coeffs[t.text] = coeffs.get(t.text, 0) + sign
            else:
                raise ProblemSyntaxError("bad index expression", t.line, t.col)
        return LinExpr(tuple(sorted((v, c) for v, c in coeffs.items() if c)),
                       const)

    # tasks

    def search_options(self, data, int_key):
        """The clauses that may end a telescope or zeilberger task, up to the
        `;`: `int_key N`, `as NAME` and `expect none|found`."""
        while self.peek().text in (int_key, "as", "expect"):
            key = self.next().text
            if key == int_key:
                data[key] = self.expect_int()
            elif key == "as":
                data[key] = self.expect_name().text
            else:
                t = self.expect_name()
                if t.text not in ("none", "found"):
                    raise ProblemSyntaxError(
                        "expect must be none or found, got %r" % t.text, t.line, t.col)
                data[key] = t.text
        self.expect(";")

    def parse_task(self) -> Task:
        t = self.expect_name()
        kind = t.text
        pos = {}
        if kind == "gb":
            name = self.expect_name().text
            self.expect(";")
            return Task("gb", {"ideal": name})
        if kind == "dim":
            name = self.expect_name().text
            self.expect(";")
            return Task("dim", {"ideal": name})
        if kind == "closure":
            w = self.expect_name()
            sub = w.text
            if sub not in ("product", "sum", "apply"):
                raise ProblemSyntaxError("closure kind must be product, sum, or apply",
                                         w.line, w.col)
            data = {"op": sub}
            if sub == "apply":
                data["gen"] = self.expect_name_at(pos)
                data["ideal"] = self.expect_name().text
            else:
                data["left"] = self.expect_name().text
                data["right"] = self.expect_name().text
            self.expect("maxdeg")
            data["maxdeg"] = self.expect_int()
            if self.peek().text == "as":
                self.next()
                data["as"] = self.expect_name().text
            self.expect(";")
            return Task("closure", data, pos)
        if kind == "growth":
            w = self.expect_name()
            method = w.text
            if method not in ("exact", "probe"):
                raise ProblemSyntaxError("growth method must be exact or probe",
                                         w.line, w.col)
            name = self.expect_name().text
            self.expect("over")
            tvars = [self.expect_name_at(pos)]
            while self.peek().text == ",":
                self.next()
                tvars.append(self.expect_name_at(pos))
            window = 10
            if self.peek().text == "window":
                self.next()
                window = self.expect_int()
            self.expect(";")
            return Task("growth", {"method": method, "ideal": name,
                                   "tvars": tvars, "window": window}, pos)
        if kind == "telescope":
            name = self.expect_name().text
            self.expect("over")
            tgens = [self.expect_name_at(pos)]
            while self.peek().text == ",":
                self.next()
                tgens.append(self.expect_name_at(pos))
            self.expect("maxdeg")
            maxdeg = self.expect_int()
            data = {"ideal": name, "tgens": tgens, "maxdeg": maxdeg}
            self.search_options(data, "target")
            return Task("telescope", data, pos)
        if kind == "zeilberger":
            name = self.expect_name().text
            self.expect("over")
            tgen = self.expect_name_at(pos)
            self.expect("dega")
            dega = self.expect_int()
            self.expect("degb")
            degb = self.expect_int()
            data = {"ideal": name, "tgen": tgen, "dega": dega, "degb": degb}
            self.search_options(data, "denoms")
            return Task("zeilberger", data, pos)
        if kind == "verify":
            result = self.expect_name().text
            self.expect(":")
            self.expect("sum")
            self.expect("(")
            var = self.expect_name_at(pos)
            self.expect(",")
            summand = self.expect_name().text
            self.expect(")")
            self.expect("==")
            closed = self.expect_name().text
            data = {"result": result, "var": var, "summand": summand,
                    "closed": closed}
            if self.peek().text == "box":
                self.next()
                data["box"] = self.expect_int()
            if self.peek().text == "positive":
                self.next()
                data["positive"] = 1
            self.expect(";")
            return Task("verify", data, pos)
        raise ProblemSyntaxError("unknown task %r" % kind, t.line, t.col)


def parse(text: str) -> ProblemFile:
    """Parse and build a problem file (algebra, ideals, oracles resolved)."""
    pf = Parser(text).parse_file()
    _build(pf)
    return pf


def _build(pf: ProblemFile):
    decl = pf.algebra_decl
    gens = []
    ground = decl.ground_vars
    ring_names = tuple(ground) + tuple(decl.params)
    for (name, kind_name, args) in decl.gens:
        kind = _KIND_NAMES[kind_name]
        var = args[0]
        param = None
        mahler_base = None
        eval_point = None
        if kind in _Q_KINDS:
            if len(args) < 2:
                raise KindError("%s needs (var, q)" % kind_name)
            param = args[1]
        elif kind is OreKind.MAHLER:
            if len(args) < 2 or not isinstance(args[1], int):
                raise KindError("mahler needs (var, base)")
            mahler_base = args[1]
        elif kind is OreKind.DIVIDED_DIFFERENCE:
            if len(args) < 2:
                raise KindError("divdiff needs (var, point)")
            ring = PolyRing(ring_names)
            point = args[1]
            eval_point = (RatFunc.from_poly(ring.var(point))
                          if isinstance(point, str) and point in ring.index
                          else RatFunc.const(ring, Fraction(point)))
        gens.append(OreGenerator(name, kind, var, param, mahler_base, eval_point))
    pf.algebra = OreAlgebra(ground, gens, decl.params)
    for name, exprs in pf.ideals.items():
        ops = [_eval_opexpr(e, pf.algebra) for e in exprs]
        pf.built_ideals[name] = LeftIdeal(pf.algebra, ops)
    pf.built_oracles = dict(pf.oracles)
    _check_names(pf)


def _check_names(pf: ProblemFile):
    """Resolve the generator and variable names the tasks use, so that an
    unknown one is an UnknownName at its position, not a failed run.
    Ideal, oracle and result names stay with the run: tasks can create
    ideals and results as they go."""
    alg = pf.algebra
    for task in pf.tasks:
        d = task.data
        if task.kind == "closure":
            if d["op"] == "apply" and d["gen"] not in alg.gen_index:
                raise UnknownName("unknown generator %r" % d["gen"],
                                  *_at(task, d["gen"]))
        elif task.kind == "growth":
            for v in d["tvars"]:
                if v not in alg.field.index:
                    raise UnknownName("unknown variable %r" % v, *_at(task, v))
        elif task.kind in ("telescope", "zeilberger"):
            for g in d["tgens"] if task.kind == "telescope" else [d["tgen"]]:
                _resolve_gen(alg, g, *_at(task, g))
        elif task.kind == "verify":
            summand = pf.oracles.get(d["summand"])
            if summand is not None and d["var"] not in summand.variables():
                raise UnknownName("summation variable %r does not occur in %r"
                                  % (d["var"], d["summand"]), *_at(task, d["var"]))


def _at(task, name):
    return task.pos.get(name, (None, None))


def _eval_opexpr(node, alg: OreAlgebra) -> OrePoly:
    kind = node[0]
    if kind == "num":
        return alg.scalar(node[1])
    if kind == "sym":
        name = node[1]
        if name in alg.gen_index:
            return alg.gen(name)
        if name in alg.field.index:
            return alg.var(name)
        raise UnknownName("unknown symbol %r" % name)
    if kind == "neg":
        return -_eval_opexpr(node[1], alg)
    if kind == "add":
        return _eval_opexpr(node[1], alg) + _eval_opexpr(node[2], alg)
    if kind == "sub":
        return _eval_opexpr(node[1], alg) - _eval_opexpr(node[2], alg)
    if kind == "mul":
        return _eval_opexpr(node[1], alg) * _eval_opexpr(node[2], alg)
    if kind == "div":
        lhs = _eval_opexpr(node[1], alg)
        rhs = _eval_opexpr(node[2], alg)
        if set(rhs.terms) - {alg._zero_exp}:
            raise ProblemSyntaxError("division only by coefficient expressions")
        c = rhs.terms.get(alg._zero_exp)
        if c is None or c.is_zero():
            raise ProblemSyntaxError("division by zero coefficient")
        return lhs.scale(c.inverse())
    if kind == "pow":
        return _eval_opexpr(node[1], alg) ** node[2]
    raise ProblemSyntaxError("bad expression node %r" % (node,))


# -- printer ---------------------------------------------------------------------


def print_problem(pf: ProblemFile) -> str:
    out = []
    decl = pf.algebra_decl
    head = ", ".join(decl.ground_vars)
    if decl.params:
        head += "; " + ", ".join(decl.params)
    gens = ", ".join(
        "%s: %s(%s)" % (n, k, ", ".join(str(a) for a in args))
        for (n, k, args) in decl.gens)
    out.append("algebra Q(%s) <%s>;" % (head, gens))
    for name, ideal in pf.built_ideals.items():
        gens_text = ", ".join(format_opoly(g) for g in ideal.generators)
        out.append("ideal %s = [%s];" % (name, gens_text))
    for name, node in pf.oracles.items():
        out.append("oracle %s = %s;" % (name, node))
    for task in pf.tasks:
        out.append(_print_task(task))
    return "\n".join(out) + "\n"


def _print_options(d, keys) -> str:
    return "".join(" %s %s" % (k, d[k]) for k in keys if k in d)


def _print_task(task: Task) -> str:
    d = task.data
    if task.kind == "gb":
        return "gb %s;" % d["ideal"]
    if task.kind == "dim":
        return "dim %s;" % d["ideal"]
    if task.kind == "closure":
        if d["op"] == "apply":
            body = "closure apply %s %s maxdeg %d" % (d["gen"], d["ideal"], d["maxdeg"])
        else:
            body = "closure %s %s %s maxdeg %d" % (d["op"], d["left"], d["right"], d["maxdeg"])
        return body + _print_options(d, ("as",)) + ";"
    if task.kind == "growth":
        return "growth %s %s over %s window %d;" % (
            d["method"], d["ideal"], ", ".join(d["tvars"]), d["window"])
    if task.kind == "telescope":
        return "telescope %s over %s maxdeg %d%s;" % (
            d["ideal"], ", ".join(d["tgens"]), d["maxdeg"],
            _print_options(d, ("target", "as", "expect")))
    if task.kind == "zeilberger":
        return "zeilberger %s over %s dega %d degb %d%s;" % (
            d["ideal"], d["tgen"], d["dega"], d["degb"],
            _print_options(d, ("denoms", "as", "expect")))
    if task.kind == "verify":
        body = "verify %s: sum(%s, %s) == %s" % (
            d["result"], d["var"], d["summand"], d["closed"])
        if "box" in d:
            body += " box %d" % d["box"]
        if d.get("positive"):
            body += " positive"
        return body + ";"
    raise ValueError("unknown task kind %r" % task.kind)


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
    while the tasks after it go on here.  Its entry, text line and status
    are put back at its place, so the output is the same either way; a
    helper that gives no valid result has its task run here instead.
    Every helper is reaped before `run` returns or raises."""
    out = out if out is not None else sys.stdout
    helpers = []   # (entry index, line index, helper, growth arguments)
    try:
        status, report, lines = _run_tasks(pf, order, verify_box, helpers)
        for i, j, helper, args in helpers:
            report["tasks"][i], lines[j], failed = helper.result() or _growth(*args)
            status |= failed
    finally:
        for _, _, helper, _ in helpers:
            helper.stop()
    if fmt == "json":
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(lines) + ("\n" if lines else "")
    out.write(rendered)
    return status, rendered


def _run_tasks(pf, order, verify_box, helpers):
    """The tasks in order; (exit status, report, text lines).  Each growth
    task started in a helper is added to `helpers`, and its report entry
    and text line are None until the caller puts its result there."""
    report = {"schema_version": 1, "tasks": []}
    lines = []
    status = 0
    named_results = {}
    ideals = dict(pf.built_ideals)

    def emit(text):
        lines.append(text)

    for task in pf.tasks:
        d = task.data
        entry = {"task": task.kind, "ok": True}
        entry.update({k: v for k, v in d.items() if isinstance(v, (str, int, list))})
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
                from .helper import Helper  # only files with a growth task import it
                # the names as bound here: a task whose helper gives no
                # result runs again after the later tasks have bound theirs
                args = (dict(ideals), d, order, entry)
                helper = Helper.start(_growth, args, len(helpers))
                if helper is None:
                    entry, line, failed = _growth(*args)
                    status |= failed
                else:  # placeholders until the helper's result is in
                    helpers.append((len(report["tasks"]), len(lines), helper, args))
                    entry = line = None
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
                summand = _get(pf.built_oracles, d["summand"])
                closed = _get(pf.built_oracles, d["closed"])
                box = d.get("box", verify_box)
                lo = 1 if d.get("positive") else 0
                telescoper = restrict_to_x(results[0].telescoper,
                                           list(results[0].t_gens))
                outer = [v for v in telescoper.algebra.ground_vars]
                ranges = {v: (lo, box) for v in outer
                          if v in summand.variables() | closed.variables()}
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
    return status, report, lines


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
    except ProblemSyntaxError as exc:
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
