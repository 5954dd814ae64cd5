"""Shared test fixtures: seeded random generators over Z, the
self-contained brute-force common-basis oracle over prime fields, reference
builders of the common basis complex and the higher buildings, reference
enumerations and assemblies of models, the heap-only sparse Smith form,
and small matrix utilities that only tests read.

The oracle deliberately reimplements its linear algebra from scratch
(vector enumeration and set comparison only), so that it shares no code
path with the procedures it referees.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, product

from commonbasis.cbp import (
    ClosureCapExceeded,
    CommonBasis,
    CorankRecord,
    Collection,
    has_cbp_ie,
)
from commonbasis.complexes import _clique_complex, _st_less, label_key, label_members
from commonbasis.exactlin import (
    GF,
    ZZ,
    Matrix,
    Submodule,
    ambient_module,
    all_subspaces,
    canonicalize,
    contains,
    is_unimodular,
    left_kernel,
    ring_from_token,
    span,
    sum_of,
    zero_module,
    _extend_inside,
    _snf_dense,
)
from commonbasis.homology import ChainComplex, _normalize_chain
from commonbasis.simpmodel import SemiSimplicialModel, _l_cores, _sl_cores

# ---------------------------------------------------------------------------
# Matrix utilities read only by tests.
# ---------------------------------------------------------------------------


def transpose(m: Matrix) -> Matrix:
    data = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    return Matrix(m.ring, m.cols, m.rows, data)


def dump_matrix(m: Matrix) -> str:
    lines = [f"{m.ring} {m.cols} {m.rows}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.entries)
    return "\n".join(lines)


def load_matrix(text: str) -> Matrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    ring_tok, n_tok, rows_tok = lines[0].split()
    ring, n, nrows = ring_from_token(ring_tok), int(n_tok), int(rows_tok)
    rows = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + nrows]]
    return Matrix.from_rows(ring, rows, n)


def quotient_torsion_divisors(u: Submodule) -> tuple[int, ...]:
    """Elementary divisors > 1 of the quotient ``Z^n / u`` read from the
    Smith form of the presentation given by the basis rows."""
    if u.ring.is_field:
        return ()
    divisors, _ = _snf_dense([list(r) for r in u.basis], u.ambient)
    return tuple(d for d in divisors if d != 1)


def block_swap_rows(a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Row matrix of the coordinate swap moving the first a coordinates past
    the last b."""
    n = a + b
    rows = []
    for i in range(a):
        rows.append(tuple(1 if j == b + i else 0 for j in range(n)))
    for i in range(b):
        rows.append(tuple(1 if j == i else 0 for j in range(n)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Random integer lattices.
# ---------------------------------------------------------------------------


def saturate(sub: Submodule) -> Submodule:
    """Smallest split submodule containing the given one (same rational
    span), via a double integer kernel."""
    if sub.is_zero:
        return sub
    ker = left_kernel(transpose(sub.basis_matrix()))
    sat = left_kernel(transpose(ker))
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
# Reference lattice procedures: a subset table built afresh by ``&``, the
# intersection poset by ``contains``, and closure by combining every pair in
# every round -- the unoptimised paths of ``cbp``.
# ---------------------------------------------------------------------------


def reference_subset_table(col: Collection) -> list[Submodule]:
    """U_S for every subset mask S of the members, U_0 the ambient module."""
    table = [ambient_module(col.ring, col.ambient)]
    for s in range(1, 1 << len(col.members)):
        low = s & -s
        table.append(table[s ^ low] & col.members[low.bit_length() - 1])
    return table


def reference_below(table: list[Submodule]) -> dict[Submodule, list[Submodule]]:
    """The distinct entries sorted by rank and basis, each mapped to the
    entries strictly inside it, decided by ``contains``."""
    distinct = sorted(set(table), key=lambda m: (m.rank, m.sort_key()))
    return {mod: [o for o in distinct if o != mod and contains(mod, o)] for mod in distinct}


def reference_corank(col: Collection) -> tuple[tuple, tuple]:
    """The records and G values of ``cbp.corank_table``."""
    ring, n, k = col.ring, col.ambient, len(col.members)
    table = reference_subset_table(col)
    fiber: dict[Submodule, int] = {}
    for s, mod in enumerate(table):
        fiber[mod] = fiber.get(mod, 0) | s
    records = []
    for s, mod in enumerate(table):
        w = sum_of([table[s | 1 << i] for i in range(k) if not s >> i & 1], ring, n)
        subset = tuple(i + 1 for i in range(k) if s >> i & 1)
        records.append(CorankRecord(subset, mod, mod.rank - w.rank, fiber[mod] == s))
    g_values = [(mod, mod.rank - sum_of(lower, ring, n).rank)
                for mod, lower in reference_below(table).items()]
    return tuple(records), tuple(g_values)


def reference_common_basis_greedy(col: Collection) -> CommonBasis | None:
    """``cbp.common_basis_greedy`` with the poset read by ``contains``."""
    ring, n = col.ring, col.ambient
    table = reference_subset_table(col)
    below = reference_below(table)
    height: dict[Submodule, int] = {}
    for mod in below:
        height[mod] = 1 + max((height[o] for o in below[mod]), default=-1)
    rows: list[tuple[int, ...]] = []
    marks: dict[Submodule, frozenset[int]] = {}
    for mod in sorted(below, key=lambda m: (height[m], m.sort_key())):
        inherited = frozenset().union(*(marks[o] for o in below[mod]))
        lower_sum = sum_of(below[mod], ring, n)
        if lower_sum == mod:
            marks[mod] = inherited
            continue
        ext = _extend_inside(lower_sum, mod)
        if ext is None:
            return None
        marks[mod] = inherited | frozenset(range(len(rows), len(rows) + len(ext)))
        rows.extend(ext)
    basis = Matrix.from_rows(ring, rows, n)
    if len(rows) != n or not is_unimodular(basis):
        return None
    result_marks = []
    for i, member in enumerate(col.members):
        idx = tuple(sorted(marks[table[1 << i]]))
        if span(ring, n, [rows[j] for j in idx]) != member:
            return None
        result_marks.append(idx)
    return CommonBasis(basis, tuple(result_marks))


def reference_closure(col: Collection, cap: int) -> tuple[Submodule, ...]:
    """The members of ``cbp.closure``: every pair of the current set
    combined by sum and intersection in every round, to a fixed point."""
    current = set(col.members)
    while True:
        items = sorted(current, key=lambda m: (m.rank, m.sort_key()))
        grown = current | {c for i, a in enumerate(items) for b in items[i + 1:] for c in (a + b, a & b)}
        if grown == current:
            return tuple(items)
        if len(grown) > cap:
            raise ClosureCapExceeded(f"closure exceeded {cap} elements")
        current = grown


# ---------------------------------------------------------------------------
# Reference builders: every decision is handed the list of the simplex's
# submodules, deduplicated in order, with no per-build memo.
# ---------------------------------------------------------------------------


def reference_membership_test(ring, n: int, sigma_members=()):
    def test(members) -> bool:
        mems = tuple(dict.fromkeys(list(members) + list(sigma_members)))
        return has_cbp_ie(Collection(ring, n, mems, trusted=True))
    return test


def reference_common_basis_complex(n: int, p: int):
    labels = sorted(all_subspaces(n, p, 1, n - 1), key=label_key)
    test = reference_membership_test(GF(p), n)
    return _clique_complex(labels, lambda i, j: test([labels[i], labels[j]]),
                           lambda s: len(s) <= 2 or test([labels[i] for i in s]))


def reference_higher_tits(a: int, b: int, n: int, p: int, sigma=None):
    """The higher building relative to ``sigma``, which must have a common
    basis, labelled as ``complexes.higher_tits`` labels it."""
    subs = all_subspaces(n, p, 1, n - 1)
    pairs = [(x, y) for x in subs for y in subs if x.rank + y.rank == n and (x & y).is_zero]
    tagged = a + b > 1
    labels = []
    for slot in range(a + b):
        payloads = sorted(subs if slot < a else pairs, key=label_key)
        labels.extend((slot, x) if tagged else x for x in payloads)
    test = reference_membership_test(GF(p), n, sigma.members if sigma is not None else ())
    members_of = [label_members(lbl) for lbl in labels]

    def comparable(i: int, j: int) -> bool:
        (si, x), (sj, y) = (labels[i], labels[j]) if tagged else ((0, labels[i]), (0, labels[j]))
        if si != sj:
            return True
        if si < a:
            return x != y and (contains(x, y) or contains(y, x))
        return _st_less(x, y) or _st_less(y, x)

    def edge(i: int, j: int) -> bool:
        return comparable(i, j) and test(members_of[i] + members_of[j])

    def accept(simplex) -> bool:
        return len(simplex) == 2 or test([m for i in simplex for m in members_of[i]])

    return _clique_complex(labels, edge, accept)


# ---------------------------------------------------------------------------
# Reference models: simplices as tuples of submodules, every face filtered
# for nondegeneracy, degeneracies and the GL action applied entry by entry.
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


def _degen_flag(flag, j: int):
    return flag[: j + 1] + (flag[j],) + flag[j + 1:]


def _degen_parts(parts, j: int, zero):
    return parts[:j] + (zero,) + parts[j:]


def reference_apply_degens(simplex, positions, a: int, zero):
    """Degeneracies at the given steps, in increasing order, applied entry
    by entry: a flag repeats entry j, a splitting gets a zero part at j."""
    out = list(simplex)
    for j in sorted(positions):
        for f in range(len(out)):
            out[f] = _degen_flag(out[f], j) if f < a else _degen_parts(out[f], j, zero)
    return tuple(out)


def apply_gl_to_simplex(simplex, g_rows, ring, n: int):
    """Every constituent subspace of a model simplex relabelled along the
    row action v -> v @ g_rows."""
    return tuple(
        tuple(span(ring, n, [[sum(c * g[j] for c, g in zip(row, g_rows)) for j in range(n)]
                             for row in sub.basis]) for sub in factor)
        for factor in simplex)


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


# ---------------------------------------------------------------------------
# The reference sparse Smith form: every unit pivot chosen by minimal
# fill-in from one lazy Markowitz heap seeded with every unit entry, with
# no zero-fill queue in front of it.  Unit pivots are not reported; the
# residual goes through the same dense routine as ``snf_divisors``.
# ---------------------------------------------------------------------------


def reference_snf_divisors(entries: dict[tuple[int, int], int], nrows: int,
                           ncols: int) -> list[int]:
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    heap = [(cost(r, c), r, c) for r, row in rows.items() for c, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)

    def row_sub(r2: int, f: int, r: int) -> None:
        target = rows[r2]
        for c, v in rows[r].items():
            new = target.get(c, 0) - f * v
            if new:
                if c not in target:
                    cols[c].add(r2)
                target[c] = new
                if new in (1, -1):
                    heapq.heappush(heap, (0, r2, c))
            elif c in target:
                del target[c]
                cols[c].discard(r2)
        if not target:
            del rows[r2]

    unit_count = 0
    while heap:
        cst, r, c = heapq.heappop(heap)
        v = rows.get(r, {}).get(c, 0)
        if v not in (1, -1):
            continue
        actual = cost(r, c)
        if actual > cst:
            heapq.heappush(heap, (actual, r, c))
            continue
        for r2 in sorted(cols[c] - {r}):
            row_sub(r2, rows[r2][c] * v, r)
        for c2 in rows.pop(r):
            cols[c2].discard(r)
            if not cols[c2]:
                del cols[c2]
        unit_count += 1
    if not rows:
        return [1] * unit_count
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    col_of = {c: j for j, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[i][col_of[c]] = v
    return [1] * unit_count + _normalize_chain(_snf_dense(dense, len(live_cols))[0])
