"""Span tracing of the program's layers, installed from outside the program.

``instrument`` replaces each function of the layer modules, in every
``commonbasis`` namespace that refers to it, by a wrapper that records a
span (name, parent, start, end) in flat in-memory arrays; ``restore`` puts
the originals back.  ``layer_metrics`` turns the spans into the per-layer
numbers, and ``write_spans`` writes the spans out once the run is over.

A function is wrapped inside its own module too only where that module
calls it through its globals and the calls are wanted as spans (``OWN``);
everywhere else only calls that cross a module boundary are spans, so a
layer's time includes its private helpers.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from functools import wraps
from time import perf_counter

LAYERS = ("exactlin", "cbp", "complexes", "homology", "simpmodel", "steinberg")

# Functions that are also wrapped in their defining module's namespace.
OWN = {
    "exactlin": ("canonicalize", "intersect", "left_kernel", "is_split"),
    "homology": ("snf_divisors",),
    "simpmodel": ("d_model",),
    "steinberg": ("st_module", "bar_complex", "st_multiply"),
}

# Methods wrapped on their class: (module, class, method).
METHODS = (
    ("homology", "ChainComplex", "__init__"),
    ("simpmodel", "SemiSimplicialModel", "chain_complex"),
)

BUILDERS = ("tits", "split_tits", "common_basis_complex", "higher_tits", "join")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.distinct: set = set()

    def wrap(self, span: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has ended, to update counters."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def _counter_hooks(tracer: Tracer) -> dict[str, object]:
    def has_cbp_ie(args, result):
        col = args[0]
        tracer.distinct.add((col.ring.p, col.ambient, frozenset(m.basis for m in col.members)))

    def build(args, result):
        tracer.count("complexes.simplices", result.num_simplices())

    def snf(args, result):
        tracer.count("homology.snf.nnz", sum(1 for v in args[0].values() if v))

    def chain_complex(args, result):
        tracer.count("homology.boundary_nnz", sum(len(e) for e in args[0].boundaries.values()))

    def d_model(args, result):
        tracer.count("simpmodel.simplices", sum(len(s) for s in result.simplices.values()))

    hooks = {"cbp.has_cbp_ie": has_cbp_ie, "homology.snf_divisors": snf,
             "homology.ChainComplex.__init__": chain_complex, "simpmodel.d_model": d_model}
    hooks.update({f"complexes.{b}": build for b in BUILDERS})
    return hooks


def instrument(tracer: Tracer) -> list[tuple]:
    """Wrap the layers' functions; returns what ``restore`` needs."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "commonbasis" or name.startswith("commonbasis."))]
    hooks = _counter_hooks(tracer)
    undo: list[tuple] = []
    for layer in LAYERS:
        home = sys.modules[f"commonbasis.{layer}"]
        for fname, fn in vars(home).copy().items():
            if not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                continue
            span = f"{layer}.{fname}"
            traced = tracer.wrap(span, fn, hooks.get(span))
            for mod in modules:
                if mod is home and fname not in OWN.get(layer, ()):
                    continue
                for attr, value in vars(mod).copy().items():
                    if value is fn:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, fn))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"commonbasis.{layer}"], cls_name)
        fn = cls.__dict__[meth]
        span = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(span, fn, hooks.get(span)))
        undo.append((cls, meth, fn))
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def _aggregate(tracer: Tracer) -> tuple[dict[str, list[float]], float, int]:
    """Per span name: [calls, total seconds, self seconds]; plus the time
    covered by root spans and the number of spans."""
    n = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    root = 0.0
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
        else:
            root += dur[i]
    stats = {name: [0, 0.0, 0.0] for name in tracer.names}
    for i in range(n):
        s = stats[tracer.names[tracer.name[i]]]
        s[0] += 1
        s[1] += dur[i]
        s[2] += dur[i] - child[i]
    return stats, root, n


def calibrate(repeats: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a trivial function."""
    def bare(x):
        return x

    traced = Tracer().wrap("calibration", bare)
    best = []
    for fn in (bare, traced):
        t = perf_counter()
        for i in range(repeats):
            fn(i)
        best.append(perf_counter() - t)
    return max(best[1] - best[0], 0.0) / repeats


def layer_metrics(tracer: Tracer, solve_s: float, span_cost: float) -> dict[str, float]:
    """The per-layer metrics of one timed phase."""
    stats, root, nspans = _aggregate(tracer)

    def pick(names, field):
        return sum(stats[nm][field] for nm in names if nm in stats)

    out: dict[str, float] = {}
    for fname in ("canonicalize", "intersect", "left_kernel", "is_split"):
        out[f"exactlin.{fname}.calls"] = pick([f"exactlin.{fname}"], 0)
        out[f"exactlin.{fname}.self_s"] = pick([f"exactlin.{fname}"], 2)
    for fname in ("has_cbp_ie", "common_basis_greedy"):
        out[f"cbp.{fname}.calls"] = pick([f"cbp.{fname}"], 0)
        out[f"cbp.{fname}.self_s"] = pick([f"cbp.{fname}"], 2)
    out["cbp.has_cbp_ie.distinct"] = len(tracer.distinct)
    builders = [f"complexes.{b}" for b in BUILDERS]
    out["complexes.build.calls"] = pick(builders, 0)
    out["complexes.build.self_s"] = pick(builders, 2)
    out["homology.snf.calls"] = pick(["homology.snf_divisors"], 0)
    out["homology.snf.self_s"] = pick(["homology.snf_divisors"], 2)
    out["homology.chains.self_s"] = pick(["homology.chains"], 2)
    out["homology.chain_complex.self_s"] = pick(["homology.ChainComplex.__init__"], 2)
    out["simpmodel.d_model.self_s"] = pick(["simpmodel.d_model"], 2)
    out["simpmodel.chain_complex.self_s"] = pick(["simpmodel.SemiSimplicialModel.chain_complex"], 2)
    out["simpmodel.mu_chain.self_s"] = pick(["simpmodel.mu_chain"], 2)
    out["steinberg.st_multiply.calls"] = pick(["steinberg.st_multiply"], 0)
    out["steinberg.st_multiply.self_s"] = pick(["steinberg.st_multiply"], 2)
    out["steinberg.bar_complex.self_s"] = pick(["steinberg.bar_complex"], 2)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = pick([nm for nm in stats if nm.startswith(layer + ".")], 2)
    for key in ("complexes.simplices", "homology.snf.nnz", "homology.boundary_nnz",
                "simpmodel.simplices"):
        out[key] = tracer.counters.get(key, 0)
    out["trace.unattributed_s"] = solve_s - root
    out["trace.overhead_s"] = nspans * span_cost
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    """One line per span: index, parent index, name, start and end (s)."""
    with open(path, "w") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\n")
        names = tracer.names
        for i, (nid, parent, s, e) in enumerate(zip(tracer.name, tracer.parent, tracer.start, tracer.end)):
            fh.write(f"{i}\t{parent}\t{names[nid]}\t{s!r}\t{e!r}\n")
