"""Spans and counts at the public functions of each orecalc layer.

The engine is not edited: `install` wraps each listed function from outside
and rebinds every reference to it that an orecalc module or class holds,
since a `from .arith import exact_div` keeps its own reference.  Each call
records a span (name, start, end, parent) in flat arrays; `write` stores
them once the run has ended, with the counts taken at the same boundaries.
"""
from __future__ import annotations

import array
import importlib
import itertools
import json
import sys
import time
import weakref

_now = time.perf_counter


def _mul_terms(tracer, prefix, args, result):
    a, b = args
    tracer.counts[prefix + ".term_products"] += len(a.terms) * (
        len(b.terms) if hasattr(b, "terms") else 1)


def _div_terms(tracer, prefix, args, result):
    tracer.counts[prefix + ".dividend_terms"] += len(args[0].terms)


def _gcd_trivial(tracer, prefix, args, result):
    if result.is_constant():
        tracer.counts[prefix + ".trivial"] += 1


def _cells(tracer, prefix, args, result):
    rows, ncols = args[0], args[1]
    tracer.counts[prefix + ".cells"] += len(rows) * ncols


def _selected(tracer, prefix, args, result):
    _cells(tracer, prefix, args, result)
    tracer.counts[prefix + ".kernel_dim"] += len(result)


def _phi_hit(tracer, prefix, args, result):
    basis, alpha = args
    serial = tracer.basis_serial.get(basis)
    if serial is None:
        # numbers are never reused, so a new basis cannot inherit the
        # (basis, alpha) pairs of a collected one
        serial = tracer.basis_serial[basis] = next(tracer.basis_numbers)
    if (serial, alpha) in tracer.phi_seen:
        tracer.counts[prefix + ".hit"] += 1
    else:
        tracer.phi_seen.add((serial, alpha))


def _useful(tracer, prefix, args, result):
    if result.membership_checked:
        tracer.counts[prefix + ".useful"] += 1


def _points(tracer, prefix, args, result):
    tracer.counts[prefix + ".points"] += result.checked


CS = ("calls", "self_s")
# (span name, module, qualified name, counter run after a call returns, the
# quantities reported: calls, self_s, a count the counter adds to, or a
# count's ratio to calls when the name ends in _ratio)
TARGETS = [
    ("arith.mpoly_mul", "arith", "MPoly.__mul__", _mul_terms, CS + ("term_products",)),
    ("arith.exact_div", "arith", "exact_div", _div_terms, CS + ("dividend_terms",)),
    ("arith.poly_gcd", "arith", "poly_gcd", _gcd_trivial, CS + ("trivial_ratio",)),
    ("arith.ratfunc_normalize", "arith", "RatFunc.__init__", None, CS),
    ("arith.factored_merge", "arith", "factored_merge", None, CS),
    ("arith.factored_expand", "arith", "factored_expand", None, CS),
    ("arith.nullspace", "arith", "nullspace", None, CS),
    ("arith.nullspace_poly", "arith", "nullspace_poly", _cells, CS + ("cells",)),
    ("arith.nullspace_selected", "arith", "nullspace_selected", _selected,
     CS + ("cells", "kernel_dim")),
    ("arith.matrix_rank_at_point", "arith", "matrix_rank_at_point", None, CS),
    ("ore.orepoly_mul", "ore", "OrePoly.__mul__", None, CS),
    ("ore.lmul_gen", "ore", "OrePoly.lmul_gen", None, CS),
    ("ore.sigma", "ore", "OreAlgebra.sigma", None, CS),
    ("ore.delta", "ore", "OreAlgebra.delta", None, CS),
    ("groebner.buchberger", "groebner", "buchberger", None, CS),
    ("groebner.normal_form", "groebner", "GroebnerBasis.normal_form", None, CS),
    ("groebner.phi", "groebner", "GroebnerBasis.phi", _phi_hit, CS + ("hit_ratio",)),
    ("groebner.is_member", "groebner", "is_member", None, CS),
    ("dimension.hilbert_dimension", "dimension", "hilbert_dimension", None, CS),
    ("closure.closure_product", "closure", "closure_product", None, CS),
    ("closure.closure_sum", "closure", "closure_sum", None, CS),
    ("closure.closure_apply", "closure", "closure_apply", None, CS),
    ("growth.growth_probe", "growth", "growth_probe", None, ("self_s",)),
    ("growth.growth_zero_dimensional", "growth", "growth_zero_dimensional", None,
     ("self_s",)),
    ("growth.uniform_reduction_data", "growth", "uniform_reduction_data", None,
     ("self_s",)),
    ("telescoping.fasenmyer_search", "telescoping", "fasenmyer_search", None,
     ("self_s",)),
    ("telescoping.extract_telescoper", "telescoping", "extract_telescoper", _useful,
     ("calls", "useful_ratio")),
    ("telescoping.zeilberger_search", "telescoping", "zeilberger_search", None,
     ("self_s",)),
    ("verify.check_identity", "verify", "check_identity", _points,
     ("self_s", "points")),
    ("verify.apply_operator_numeric", "verify", "apply_operator_numeric", None,
     ("self_s",)),
    ("verify.oracle_eval", "verify", "Builtin.eval", None, ("calls",)),
    ("verify.definite_sum", "verify", "DefiniteSum.eval", None, ("calls",)),
    ("cli.parse", "cli", "parse", None, ("self_s",)),
]


def count_key(name, quantity):
    """The count a quantity reads, or None for calls and self_s."""
    if quantity in CS:
        return None
    return name + "." + quantity.removesuffix("_ratio")


# Entry points of cli.run's tasks: their spans' inclusive time is reported
# too, as the traced counterpart of the task-level end-to-end times.
TASK_SPANS = ("telescoping.fasenmyer_search", "telescoping.zeilberger_search",
              "growth.growth_probe", "growth.growth_zero_dimensional")


def _original(module, qualname):
    obj = importlib.import_module("orecalc." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces():
    """Every module and class dict in orecalc that can hold a reference."""
    for name, mod in list(sys.modules.items()):
        if name != "orecalc" and not name.startswith("orecalc."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def stale_references(originals):
    """(owner, attribute) pairs still bound to one of the given functions."""
    ids = {id(f) for f in originals}
    return [(getattr(ns, "__name__", ns), key)
            for ns in _namespaces()
            for key, value in list(vars(ns).items()) if id(value) in ids]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.counts = {}
        self.originals = []
        self.basis_serial = weakref.WeakKeyDictionary()
        self.basis_numbers = itertools.count()
        self.phi_seen = set()

    def wrap(self, name, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (self.name_ids, self.parents,
                                           self.starts, self.ends)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _now()
                stack.pop()
            if counter is not None:
                counter(self, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target and rebind all references to the originals."""
        for name, module, qualname, counter, quantities in TARGETS:
            for q in quantities:
                key = count_key(name, q)
                if key is not None:
                    self.counts[key] = 0
            fn = _original(module, qualname)
            wrapped = self.wrap(name, fn, counter)
            self.originals.append(fn)
            for ns in _namespaces():
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
        stale = stale_references(self.originals)
        if stale:
            raise RuntimeError("unwrapped references remain: %r" % stale)

    def write(self, path):
        """Spans and counts: one JSON header line, then the four arrays."""
        header = {"names": self.names, "spans": len(self.starts),
                  "counts": self.counts}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read(path):
    """Per span name: calls, self seconds and inclusive seconds; and counts.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Inclusive time counts only spans whose parent has
    another name, so direct recursion is not counted twice."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    name_ids, parents, starts, ends = arrays
    names = header["names"]
    durations = [e - s for s, e in zip(starts, ends)]
    self_s = list(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            self_s[parent] -= dur
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for i, nid in enumerate(name_ids):
        st = stats[names[nid]]
        st["calls"] += 1
        st["self_s"] += self_s[i]
        parent = parents[i]
        if parent < 0 or name_ids[parent] != nid:
            st["total_s"] += durations[i]
    return stats, header["counts"]
