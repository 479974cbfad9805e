"""Span tracing of the poisson3 layers from outside the package.

A layer is one module of the package.  `Tracer.install` wraps every public
module-level function of each layer and rebinds it everywhere the package
holds it: the module attribute and every name another poisson3 module (the
package namespace included) imported from it.  Each call records a span
(name, layer, start, end, parent, request, error); `uninstall` puts every
original back.

Counters are collected at the same boundaries with the span clock stopped,
so their cost (such as scanning rref output for bit lengths) is charged to
no layer; `stop_clock` does the same for work done outside the traced code
while a span is open, such as the speed bursts of speed.py.  `self_times` turns the span list into per-layer self time: a
span's duration minus the durations of its child spans.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, namedtuple

LAYERS = (
    "registry",
    "multivector",
    "complexes",
    "linalg",
    "cohomology",
    "expressions",
    "verification",
    "cli",
)

# monomial_key is a sort key run once per element of every sort; a span per
# call would cost more than the call, so its time stays with its caller.
UNWRAPPED = {("multivector", "monomial_key")}

Span = namedtuple("Span", "name layer start end parent request error")


def self_times(spans):
    """Per-layer self time {layer: seconds} of a list of Spans.

    `parent` is the index of the enclosing span in the same list, or -1.
    """
    out = Counter()
    for span in spans:
        duration = span.end - span.start
        out[span.layer] += duration
        if span.parent >= 0:
            out[spans[span.parent].layer] -= duration
    return out


def top_level_seconds(spans):
    """Summed duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def _pi_key(pi):
    return tuple(sorted(
        (idx, tuple(sorted(poly.terms.items())))
        for idx, poly in pi.components.items()))


def _coeff_bits(echelon):
    bits = 0
    for row in echelon:
        for c in row.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one traced run; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.distinct = {}
        self.request = None
        self._stack = []
        self._stopped = 0.0
        self._counting = False
        self._rebound = []

    def now(self):
        """Span clock: wall clock minus the time it was stopped."""
        return time.perf_counter() - self._stopped

    def stop_clock(self, seconds):
        """Take `seconds` spent outside the traced code off the span clock."""
        if not self._counting:  # a counting hook stops the clock already
            self._stopped += seconds

    def _count(self, hook, *args):
        """Run a counter hook with the span clock stopped."""
        self._counting = True
        start = time.perf_counter()
        try:
            return hook(*args)
        finally:
            self._stopped += time.perf_counter() - start
            self._counting = False

    # -- counters, run with the span clock stopped ---------------------------

    def _before_rref(self, args, kwargs):
        rows = [row for row in args[0]]
        self.counters["linalg.rref.rows_in"] += len(rows)
        self.counters["linalg.rref.nnz_in"] += sum(
            1 for row in rows for c in row.values() if c)
        return (rows,) + tuple(args[1:]), kwargs

    def _after_rref(self, args, kwargs, result):
        pivots, echelon = result
        self.counters["linalg.rref.pivots"] += len(pivots)
        bits = _coeff_bits(echelon)
        if bits > self.counters["linalg.max_coeff_bits"]:
            self.counters["linalg.max_coeff_bits"] = bits

    def _after_operator_matrix(self, args, kwargs, result):
        self.counters["complexes.columns"] += len(result.columns)
        self.counters["complexes.nnz"] += sum(len(col) for col in result.columns)

    def _after_differential_matrix(self, args, kwargs, result):
        pi = args[0] if args else kwargs["pi"]
        self.distinct.setdefault("complexes.differential_matrix", set()).add(
            (_pi_key(pi), result.source.q, result.source.d))

    def _after_invariant_basis(self, args, kwargs, result):
        basis = result[0]
        self.distinct.setdefault("complexes.invariant_basis", set()).add((basis.q, basis.d))

    def _count_cells(self, cells):
        self.counters["cohomology.cells"] += len(cells)
        self.counters["cohomology.cochains"] += sum(c.dim_cochains for c in cells)
        self.counters["cohomology.representatives"] += sum(
            len(c.representatives) for c in cells)

    def _after_cohomology_table(self, args, kwargs, result):
        self._count_cells(list(result.cells.values()))

    def _after_one_cell(self, args, kwargs, result):
        self._count_cells([result])

    def _hooks(self):
        return {
            "linalg.rref": (self._before_rref, self._after_rref),
            "complexes.operator_matrix": (None, self._after_operator_matrix),
            "complexes.differential_matrix": (None, self._after_differential_matrix),
            "complexes.invariant_basis": (None, self._after_invariant_basis),
            "cohomology.cohomology_table": (None, self._after_cohomology_table),
            "cohomology.cohomology_cell": (None, self._after_one_cell),
            "cohomology.invariant_cohomology": (None, self._after_one_cell),
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, name, fn, before, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = self._count(before, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = True
            start = clock() - self._stopped
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock() - self._stopped
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent, self.request, error)
            if after is not None:
                self._count(after, args, kwargs, result)
            return result

        return wrapper

    def install(self, package="poisson3"):
        """Wrap every public function of every layer; returns self."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(package + "." + layer)
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (layer, attr) in UNWRAPPED):
                    continue
                name = layer + "." + attr
                before, after = hooks.get(name, (None, None))
                wrappers[fn] = self._wrap(layer, name, fn, before, after)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self):
        """Put back every attribute `install` rebound."""
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer self time, calls and errors, plus the counters."""
        own = self_times(self.spans)
        calls = Counter(s.layer for s in self.spans)
        errors = Counter(s.layer for s in self.spans if s.error)
        by_name = Counter(s.name for s in self.spans)
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = own.get(layer, 0.0)
            out[layer + ".calls"] = calls.get(layer, 0)
            out[layer + ".errors"] = errors.get(layer, 0)
        for name in ("linalg.rref", "linalg.solve_combination",
                     "multivector.schouten_bracket",
                     "complexes.differential_matrix", "complexes.invariant_basis"):
            out[name + ".calls"] = by_name.get(name, 0)
        for name in ("complexes.differential_matrix", "complexes.invariant_basis"):
            out[name + ".distinct"] = len(self.distinct.get(name, ()))
        for name in ("linalg.rref.rows_in", "linalg.rref.nnz_in", "linalg.rref.pivots",
                     "linalg.max_coeff_bits", "complexes.columns", "complexes.nnz",
                     "cohomology.cells", "cohomology.cochains",
                     "cohomology.representatives"):
            out[name] = self.counters.get(name, 0)
        rows = out["linalg.rref.rows_in"]
        out["linalg.rref.useful_ratio"] = out["linalg.rref.pivots"] / rows if rows else 0.0
        return out
