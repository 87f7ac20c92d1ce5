"""Seeded problem files for the benchmark workloads.

Seed 0 gives the corpus text unchanged (after the workload's own edit, see
`WORKLOADS` in run.py).  Any other seed translates every index variable v
of a file to v + s, with one s per file drawn from SHIFTS by the seed:

* ideal coefficients get v replaced by (v + s), which is exactly the
  annihilator of the translated sequence, since a shift generator commutes
  with translating its variable;
* oracle index expressions get the constant term of v added wherever v is
  free (a `sum` binds its variable).

Translations are automorphisms of the coefficient field, which is why
dimensions, growth degrees and system shapes do not depend on the seed.
The shift is positive: outer variables then stay in their oracles' domains
and verify boxes, and a summed variable's support moves by less than the
zero margin of the summation window.  It is common to all variables, so
differences such as k - n keep their sparse form.  Independent shifts made
a file's cost depend on which differences survived (stirling_eulerian took
10 s when m and k moved together and 16 s when not), and the sign of the
summed variable's shift alone moved double_stirling between 16 s and 27 s:
either splits the seeds into separate cost modes.
"""
from __future__ import annotations

import random
import re

SHIFTS = (1, 2, 3)

_TOKEN = re.compile(r"\s+|#[^\n]*|([A-Za-z_][A-Za-z0-9_]*|\d+|==|[<>()\[\],;:=+\-*/^])")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError("unexpected character %r" % text[pos])
        if m.group(1):
            tokens.append(m.group(1))
        pos = m.end()
    return tokens


def statements(text):
    """Token lists of the statements of a problem file, without the ';'.

    A ';' inside parentheses separates the parameters of `algebra Q(...)`."""
    out, cur, depth = [], [], 0
    for tok in tokenize(text):
        depth += (tok == "(") - (tok == ")")
        if tok == ";" and depth == 0:
            out.append(cur)
            cur = []
        else:
            cur.append(tok)
    if cur:
        raise ValueError("unterminated statement: %s" % " ".join(cur))
    return out


def ground_vars(text):
    """The index variables of `algebra Q(x, y; params)`, without params."""
    toks = next(s for s in statements(text) if s[0] == "algebra")
    head = toks[3:toks.index(")")]
    if ";" in head:
        head = head[:head.index(";")]
    return [t for t in head if t != ","]


def draw_shifts(text, seed, label):
    """{variable: shift} for one file; all zero at seed 0."""
    shift = random.Random("%d:%s" % (seed, label)).choice(SHIFTS) if seed else 0
    return {v: shift for v in ground_vars(text)}


def _signed(value):
    return ["+", str(value)] if value >= 0 else ["-", str(-value)]


def _shift_ideal(toks, shifts):
    head = toks.index("=") + 1
    out = toks[:head]
    for tok in toks[head:]:
        s = shifts.get(tok, 0)
        out.extend(["(", tok] + _signed(s) + [")"] if s else [tok])
    return out


class _OracleShifter:
    """Re-emits an oracle expression with its free index variables shifted.

    Follows the oracle grammar of the problem-file format: index expressions
    are integer-linear, so v -> v + s adds coeff*s to the constant term."""

    def __init__(self, toks, shifts):
        self.toks = toks
        self.pos = 0
        self.shifts = shifts
        self.out = []

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        self.out.append(tok)
        return tok

    def expr(self, bound):
        self.term(bound)
        while self.peek() in ("+", "-"):
            self.take()
            self.term(bound)

    def term(self, bound):
        self.factor(bound)
        while self.peek() == "*":
            self.take()
            self.factor(bound)

    def factor(self, bound):
        tok = self.peek()
        if tok == "-":
            self.take()
            self.factor(bound)
        elif tok.isdigit():
            self.take()
            if self.peek() == "/":
                self.take()
                self.take()
        elif tok == "(":
            self.take()
            self.linexpr(bound)
            self.take()
        elif self.toks[self.pos + 1:self.pos + 2] != ["("]:
            # a bare index expression: its leading variable has coefficient
            # 1; once shifted it needs parentheses to stay one factor
            start, first = len(self.out), self.pos
            self._lin_term(self.take(), 1, 1, bound)
            while self.peek() in ("+", "-"):
                sign = -1 if self.take() == "-" else 1
                self._lin_atom(sign, bound)
            if self.out[start:] != self.toks[first:self.pos]:
                self.out[start:] = ["("] + self.out[start:] + [")"]
        else:
            name = self.take()
            self.take()
            if name == "sum":
                var = self.take()
                self.take()
                self.expr(bound | {var})
            else:
                self.linexpr(bound)
                while self.peek() == ",":
                    self.take()
                    self.linexpr(bound)
            self.take()

    def linexpr(self, bound):
        while True:
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            self._lin_atom(sign, bound)
            if self.peek() not in ("+", "-"):
                return

    def _lin_atom(self, sign, bound):
        tok = self.take()
        if tok.isdigit():
            if self.peek() != "*":
                return
            self.take()
            self._lin_term(self.take(), sign, int(tok), bound)
        else:
            self._lin_term(tok, sign, 1, bound)

    def _lin_term(self, var, sign, coeff, bound):
        s = 0 if var in bound else self.shifts.get(var, 0)
        if s:
            self.out.extend(_signed(sign * coeff * s))


def _shift_oracle(toks, shifts):
    head = toks.index("=") + 1
    sh = _OracleShifter(toks[head:], shifts)
    sh.expr(frozenset())
    if sh.pos != len(sh.toks):
        raise ValueError("oracle not fully consumed: %s" % " ".join(toks))
    return toks[:head] + sh.out


def shifted_text(text, shifts):
    """The problem file with every index variable v replaced by v + shifts[v].

    All-zero shifts return the text unchanged, comments included."""
    if not any(shifts.values()):
        return text
    lines = []
    for toks in statements(text):
        if toks[0] == "ideal":
            toks = _shift_ideal(toks, shifts)
        elif toks[0] == "oracle":
            toks = _shift_oracle(toks, shifts)
        lines.append(" ".join(toks) + ";")
    return "\n".join(lines) + "\n"
