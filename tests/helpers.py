"""Shared test fixtures: seeded random generators over Z, the
self-contained brute-force common-basis oracle over prime fields, and
reference enumerations and assemblies of models.

The oracle deliberately reimplements its linear algebra from scratch
(vector enumeration and set comparison only), so that it shares no code
path with the procedures it referees.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from commonbasis.cbp import Collection, has_cbp_ie
from commonbasis.exactlin import (
    GF,
    ZZ,
    Matrix,
    Submodule,
    ambient_module,
    canonicalize,
    left_kernel,
    span,
    zero_module,
)
from commonbasis.homology import ChainComplex
from commonbasis.simpmodel import SemiSimplicialModel, _l_cores, _sl_cores

# ---------------------------------------------------------------------------
# Random integer lattices.
# ---------------------------------------------------------------------------


def saturate(sub: Submodule) -> Submodule:
    """Smallest split submodule containing the given one (same rational
    span), via a double integer kernel."""
    if sub.is_zero:
        return sub
    ker = left_kernel(sub.basis_matrix().transpose())
    sat = left_kernel(ker.transpose())
    return canonicalize(sat)


def random_split_submodule(rng: random.Random, n: int, max_rank: int | None = None,
                           lo: int = -3, hi: int = 3) -> Submodule:
    """A random summand of Z^n with entries drawn from [lo, hi]."""
    max_rank = n if max_rank is None else max_rank
    r = rng.randint(0, max_rank)
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(r)]
    return saturate(span(ZZ, n, rows))


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> Matrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.from_rows(ZZ, rows, n)


def random_flag_Z(rng: random.Random, n: int, length: int) -> list[Submodule]:
    """A random nested chain of summands, as spans of basis prefixes of a
    random unimodular matrix."""
    basis = random_unimodular(rng, n).entries
    ranks = sorted(rng.sample(range(1, n + 1), min(length, n)))
    return [span(ZZ, n, basis[:r]) for r in ranks]


def random_invertible_mod_p(rng: random.Random, n: int, p: int) -> Matrix:
    ring = GF(p)
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if span(ring, n, rows).rank == n:
            return Matrix.from_rows(ring, rows, n)


def random_subspace(rng: random.Random, n: int, p: int, max_rank: int | None = None) -> Submodule:
    max_rank = n if max_rank is None else max_rank
    r = rng.randint(0, max_rank)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    return span(GF(p), n, rows)


# ---------------------------------------------------------------------------
# The brute-force oracle: search all bases of F_p^n directly.
# ---------------------------------------------------------------------------


def _vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def _vec_scale(c, v, p):
    return tuple((c * a) % p for a in v)


def _span_set(vectors, n, p) -> frozenset:
    """All vectors in the span, by closure under addition and scaling."""
    seen = {tuple([0] * n)}
    frontier = list(seen)
    gens = [tuple(v) for v in vectors]
    while frontier:
        base = frontier.pop()
        for g in gens:
            for c in range(1, p):
                w = _vec_add(base, _vec_scale(c, g, p), p)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return frozenset(seen)


def _all_bases(n: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    nonzero = [v for v in product(range(p), repeat=n) if any(v)]
    bases = []

    def extend(chosen, spanned):
        if len(chosen) == n:
            bases.append(tuple(chosen))
            return
        start = nonzero.index(chosen[-1]) + 1 if chosen else 0
        for v in nonzero[start:]:
            if v not in spanned:
                extend(chosen + [v], _span_set(list(chosen) + [v], n, p))

    extend([], _span_set([], n, p))
    return bases


_BASIS_FAMILY_CACHE: dict[tuple[int, int], list[dict]] = {}


def basis_span_families(n: int, p: int) -> list[dict]:
    """For each unordered basis, the set of element-sets of spans of its
    nonempty subsets."""
    if (n, p) not in _BASIS_FAMILY_CACHE:
        fams = []
        for basis in _all_bases(n, p):
            spans = set()
            for r in range(1, n + 1):
                for subset in combinations(basis, r):
                    spans.add(_span_set(subset, n, p))
            fams.append({"basis": basis, "spans": spans})
        _BASIS_FAMILY_CACHE[(n, p)] = fams
    return _BASIS_FAMILY_CACHE[(n, p)]


def brute_force_cbp(members, n: int, p: int) -> bool:
    """Ground-truth common basis property over F_p by searching every basis."""
    element_sets = [_span_set(m.basis, n, p) for m in members]
    for fam in basis_span_families(n, p):
        if all(es in fam["spans"] or len(es) == 1 for es in element_sets):
            return True
    return False


# ---------------------------------------------------------------------------
# Reference models: simplices as tuples of submodules, every face filtered
# for nondegeneracy.
# ---------------------------------------------------------------------------


def reference_model_simplices(a: int, b: int, n: int, p: int) -> dict:
    """The model's simplices enumerated as submodules: every core
    combination with a common basis, spread over every choice of step
    positions that covers each step, each degree sorted by the flattened
    bases of the entries."""
    ring = GF(p)
    zero, full = zero_module(ring, n), ambient_module(ring, n)
    by_degree = {}
    for combo in product(*([_l_cores(n, p)] * a + [_sl_cores(n, p)] * b)):
        members = SemiSimplicialModel.members_of(combo)
        if members and not has_cbp_ie(Collection(ring, n, members, trusted=True)):
            continue
        sizes = [len(core) + 1 for core in combo[:a]] + [len(core) for core in combo[a:]]
        for degree in range(max(sizes), sum(sizes) + 1):
            for positions in product(*(combinations(range(degree), s) for s in sizes)):
                if set().union(*positions) != set(range(degree)):
                    continue
                factors = []
                for f, (core, pos) in enumerate(zip(combo, positions)):
                    if f < a:
                        values = (zero,) + core + (full,)
                        factors.append(tuple(values[sum(1 for i in pos if i < j)]
                                             for j in range(degree + 1)))
                    else:
                        parts = [zero] * degree
                        for level, i in enumerate(pos):
                            parts[i] = core[level]
                        factors.append(tuple(parts))
                by_degree.setdefault(degree, []).append(tuple(factors))
    return {
        d: tuple(sorted(simps, key=lambda s: tuple(tuple(e.sort_key() for e in f) for f in s)))
        for d, simps in sorted(by_degree.items())
    }


def activity(model, simplex) -> int:
    """The positions where some factor of a model simplex moves, as a bit
    mask: a flag grows strictly there, or a splitting part is nonzero."""
    mask = 0
    for f, factor in enumerate(simplex):
        if f < model.a:
            moves = [factor[k] != factor[k + 1] for k in range(len(factor) - 1)]
        else:
            moves = [not part.is_zero for part in factor]
        for k, moved in enumerate(moves):
            if moved:
                mask |= 1 << k
    return mask


def reference_model_complex(model) -> ChainComplex:
    """The model's chain complex by the filtered loop: each face that is
    neither the basepoint nor degenerate is looked up one degree down."""
    boundaries = {}
    for d, simps in model.simplices.items():
        if d == 0:
            continue
        lower = model.index.get(d - 1, {})
        columns = {}
        for j, s in enumerate(simps):
            column = {}
            for i in range(d + 1):
                face = model.face(s, i)
                if face is None or activity(model, face) != (1 << (d - 1)) - 1:
                    continue
                row = lower[face]
                column[row] = column.get(row, 0) + (-1) ** i
            columns[j] = column
        boundaries[d] = columns
    return ChainComplex({d: len(s) for d, s in model.simplices.items()}, boundaries)
