"""Reduced integral simplicial homology via Smith normal form.

The chain complexes here are augmented: a nonempty complex has a basis
element in degree -1 (the empty simplex) and the empty complex has reduced
homology Z in degree -1.  This convention is fixed once so that joins and
suspensions shift homology uniformly.

All homology is computed over the integers (betti numbers and torsion
coefficients), never through a field shortcut: torsion in any of the groups
this package verifies would be a finding, not an inconvenience.

Every boundary (and every chain map of ``simpmodel``) is stored by column,
as ``{col: {row: value}}``, the one layout: assembly writes it, and the
boundary-squared check and the Smith normal form read it as stored.

The Smith normal form engine first eliminates zero-fill unit pivots (a
unit alone in its row or column) from a FIFO queue, then the other unit
pivots by minimal fill-in (Markowitz) with deterministic tie-breaking, then
hands any residual matrix without unit entries to an exact gcd-pivot phase.

A chain complex reduces its boundaries from low degree to high and clears
as it goes: the rows of the boundary out of degree d+1 indexed by the
columns where the unit phase pivoted on the boundary out of degree d are
dropped before reduction, since they are integer combinations of the other
rows (the proof sketch is above ``ChainComplex.boundary_divisors``).  The
boundary-squared check always runs on the full boundaries.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable, Collection, Iterable

from .exactlin import _snf_dense


class HomologyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Sparse integer Smith normal form.
# ---------------------------------------------------------------------------


# Why the unit pivots may come in any order, and why the queue goes first:
# - a unit pivot (r, c, v) subtracts multiples of row r from the other
#   rows of column c, a unimodular row operation, and then drops row r and
#   column c, which the implied column operations have cleared; so each
#   step splits off one divisor 1 and leaves a matrix with the remaining
#   nonzero elementary divisors, whatever unit is picked;
# - a unit alone in its column needs no row operation, and one alone in its
#   row only cancels the other entries of its column: neither creates an
#   entry, so these pivots cost no fill-in;
# - clearing (``ChainComplex.boundary_divisors``) needs only that the
#   reported columns are unit-phase pivots, and its proof does not depend
#   on their order.
def snf_divisors(columns: dict[int, dict[int, int]], cleared: Collection[int] = (),
                 unit_pivot_cols: list[int] | None = None) -> list[int]:
    """Nonzero elementary divisors ``d_1 | d_2 | ...`` of a sparse integer
    matrix stored by column, ``{col: {row: value}}``, with the rows in
    ``cleared`` left out.  ``columns`` is read, never changed.

    Units alone in their row or column are pivoted first, from a FIFO queue
    seeded in row order and fed as elimination leaves such units behind.
    FIFO matters: a LIFO stack took the homology of ``d_model(2,0,3,3)``
    from 4-5 s to 19-22 s (2-vCPU VM, Python 3.11).  The Markowitz heap is
    built, from the units still live, only when the queue first runs dry.

    If ``unit_pivot_cols`` is a list, the columns where the unit phase
    pivoted are appended to it in pivot order; the dense fallback's pivots
    are never reported."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, column in columns.items():
        for r, v in column.items():
            if v and r not in cleared:
                rows.setdefault(r, {})[c] = v
                cols.setdefault(c, set()).add(r)

    queue = deque((r, c) for r in sorted(rows) for c, v in rows[r].items()
                  if v in (1, -1) and (len(rows[r]) == 1 or len(cols[c]) == 1))
    heap: list[tuple[int, int, int]] | None = None

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(cols[c]) - 1)

    def row_sub(r2: int, f: int, r: int) -> None:
        """row r2 -= f * row r, maintaining indices, queue and heap."""
        target = rows[r2]
        for c, v in rows[r].items():
            new = target.get(c, 0) - f * v
            if new:
                if c not in target:
                    cols[c].add(r2)
                target[c] = new
                if heap is not None and new in (1, -1):
                    heapq.heappush(heap, (0, r2, c))
            elif c in target:
                del target[c]
                cols[c].discard(r2)  # row r keeps column c alive
        if len(target) == 1:
            (c, v), = target.items()
            if v in (1, -1):
                queue.append((r2, c))
        elif not target:
            del rows[r2]

    unit_count = 0
    while rows:
        pivot = None
        while queue:
            r, c = queue.popleft()
            v = rows.get(r, {}).get(c, 0)
            if v in (1, -1) and (len(rows[r]) == 1 or len(cols[c]) == 1):
                pivot = (r, c, v)
                break
        if pivot is None:
            # Markowitz phase: cheapest valid (cost, r, c) from the lazy heap.
            if heap is None:
                heap = [(cost(r, c), r, c) for r, row in rows.items()
                        for c, v in row.items() if v in (1, -1)]
                heapq.heapify(heap)
            while heap:
                cst, r, c = heapq.heappop(heap)
                v = rows.get(r, {}).get(c, 0)
                if v not in (1, -1):
                    continue
                actual = cost(r, c)
                if actual > cst:
                    heapq.heappush(heap, (actual, r, c))
                    continue
                pivot = (r, c, v)
                break
            if pivot is None:
                break
        r, c, v = pivot
        for r2 in sorted(cols[c] - {r}):
            row_sub(r2, rows[r2][c] * v, r)
        for c2 in rows.pop(r):  # a column left with one unit queues it
            col = cols[c2]
            col.discard(r)
            if len(col) == 1:
                r3, = col
                if rows[r3][c2] in (1, -1):
                    queue.append((r3, c2))
            elif not col:
                del cols[c2]
        unit_count += 1
        if unit_pivot_cols is not None:
            unit_pivot_cols.append(c)

    # Residual without unit entries: hand off to the dense exact routine.
    # After unit elimination of simplicial boundary matrices this residual is
    # tiny (it carries exactly the torsion), so the dense cost is irrelevant;
    # the guard is a tripwire, not a tuning knob.
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    if len(live_rows) * len(live_cols) > 4_000_000:
        raise HomologyError(f"residual matrix {len(live_rows)}x{len(live_cols)} without unit "
                            "pivots is too large for the dense fallback")
    dense = [[rows[r].get(c, 0) for c in live_cols] for r in live_rows]
    residual, _ = _snf_dense(dense, len(live_cols))
    return [1] * unit_count + _normalize_chain(residual)


def _normalize_chain(values: list[int]) -> list[int]:
    """Turn diagonal values into a divisor chain via pairwise gcd/lcm."""
    ds = sorted(v for v in values if v)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        ds.sort()
    return ds


def _compose(a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The nonzero columns of the sparse product ``a @ b``, both factors and
    the result stored by column; every entry is summed in full."""
    out: dict[int, dict[int, int]] = {}
    for j, b_col in b.items():
        acc: dict[int, int] = {}
        for k, v in b_col.items():
            for r, w in a.get(k, {}).items():
                acc[r] = acc.get(r, 0) + v * w
        column = {r: x for r, x in acc.items() if x}
        if column:
            out[j] = column
    return out


# ---------------------------------------------------------------------------
# Chain complexes and homology profiles.
# ---------------------------------------------------------------------------


class ChainComplex:
    """A bounded complex of finitely generated free abelian groups.

    ``sizes`` maps degree to basis size; ``boundaries[d]`` holds the map
    from degree d to degree d-1 by column, as ``{col: {row: value}}``.
    Zero entries and all-zero columns are dropped, every row and column is
    checked to be in range, and the composite of consecutive boundaries is
    checked to vanish.
    """

    def __init__(self, sizes: dict[int, int], boundaries: dict[int, dict[int, dict[int, int]]]):
        self.sizes = {d: s for d, s in sizes.items() if s}
        self.boundaries = {}
        for d, columns in boundaries.items():
            kept = {}
            for c, column in columns.items():
                if not all(column.values()):
                    column = {r: v for r, v in column.items() if v}
                if column:
                    kept[c] = column
            if not kept:
                continue
            nrows, ncols = self.sizes.get(d - 1, 0), self.sizes.get(d, 0)
            if nrows == 0 or ncols == 0:
                raise HomologyError(f"boundary in degree {d} without matching basis sizes")
            if min(kept) < 0 or max(kept) >= ncols or any(
                    min(column) < 0 or max(column) >= nrows for column in kept.values()):
                raise HomologyError(f"boundary entry out of range in degree {d}")
            self.boundaries[d] = kept
        self._check_dd_zero()
        self._divisor_cache: dict[int, list[int]] = {}
        # unit-phase pivot columns of the latest reduced boundaries, kept
        # until the boundary one degree up has been cleared by them
        self._unit_pivots: dict[int, set[int]] = {}

    def _check_dd_zero(self) -> None:
        for d, upper in self.boundaries.items():
            lower = self.boundaries.get(d - 1)
            if lower and _compose(lower, upper):
                raise HomologyError(f"boundary squared is nonzero from degree {d}")

    def degrees(self) -> list[int]:
        return sorted(self.sizes)

    def size(self, d: int) -> int:
        return self.sizes.get(d, 0)

    # Clearing (the twist of Chen-Kerber, carried over from Z/2 to unimodular
    # pivots over Z).  Write B_e for boundaries[e], the map out of degree e.
    # Boundaries are reduced from low degree to high, and the rows of
    # B_{e+1} indexed by the unit-phase pivot columns C of B_e are dropped
    # before B_{e+1} is reduced.  Why its nonzero elementary divisors do not
    # change:
    # - the unit phase uses row operations only, so E B_e = U with E
    #   unimodular;
    # - U restricted to the pivot rows R and the pivot columns C, taken in
    #   pivot order, is triangular with +-1 on its diagonal (a pivot row is
    #   frozen once used, and each later pivot column is cleared from every
    #   row still live), so U[R, C] is unimodular;
    # - B_e B_{e+1} = 0 (checked in __init__ on the full boundaries) gives
    #   U[R, :] B_{e+1} = 0, so rows C of B_{e+1} equal
    #   -U[R, C]^-1 U[R, not C] B_{e+1}[not C, :], integer combinations of
    #   its other rows;
    # - the row lattice of B_{e+1}, and with it the nonzero elementary
    #   divisors, is therefore unchanged when those rows are dropped.
    # B_e may itself have been cleared: dropping rows keeps B_e B_{e+1} = 0.
    # Pivots of the dense fallback come with column operations, so they
    # are never used to clear.
    def boundary_divisors(self, d: int) -> list[int]:
        for e in sorted(self.boundaries):
            if e > d:
                break
            if e in self._divisor_cache:
                continue
            cleared = self._unit_pivots.pop(e - 1, ())
            pivots: list[int] = []
            self._divisor_cache[e] = snf_divisors(self.boundaries[e], cleared, pivots)
            self._unit_pivots[e] = set(pivots)
        return self._divisor_cache.get(d, [])

    def boundary_rank(self, d: int) -> int:
        return len(self.boundary_divisors(d))


@dataclass(frozen=True)
class HomologyProfile:
    """Betti number and torsion coefficients per degree; zero groups are
    omitted.  Torsion coefficients are > 1 and form a divisor chain within
    each degree."""

    groups: tuple[tuple[int, int, tuple[int, ...]], ...]  # (degree, betti, torsion)

    @staticmethod
    def from_dict(data: dict[int, tuple[int, tuple[int, ...]]]) -> "HomologyProfile":
        items = []
        for d in sorted(data):
            betti, torsion = data[d]
            if betti or torsion:
                items.append((d, betti, tuple(torsion)))
        return HomologyProfile(tuple(items))

    def betti(self, d: int) -> int:
        for deg, b, _ in self.groups:
            if deg == d:
                return b
        return 0

    def torsion(self, d: int) -> tuple[int, ...]:
        for deg, _, t in self.groups:
            if deg == d:
                return t
        return ()

    def nonzero_degrees(self) -> list[int]:
        return [d for d, _, _ in self.groups]

    def shifted(self, k: int) -> "HomologyProfile":
        return HomologyProfile(tuple((d + k, b, t) for d, b, t in self.groups))

    def is_trivial(self) -> bool:
        return not self.groups

    def has_torsion(self) -> bool:
        return any(t for _, _, t in self.groups)

    def to_jsonable(self) -> dict:
        return {str(d): {"betti": b, "torsion": list(t)} for d, b, t in self.groups}

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        parts = []
        for d, b, t in self.groups:
            summands = ([f"Z^{b}" if b > 1 else "Z"] if b else []) + [f"Z/{m}" for m in t]
            parts.append(f"H~_{d} = " + " + ".join(summands))
        return "; ".join(parts)


def homology(c: ChainComplex, up_to_degree: int | None = None) -> HomologyProfile:
    """Homology of a chain complex: per degree, the betti number and the
    torsion coefficients (elementary divisors of the incoming boundary that
    exceed 1).  An independent Euler characteristic cross-check guards the
    rank arithmetic.

    ``up_to_degree`` restricts the computation (and the profile) to degrees
    up to the given bound; the Euler cross-check is skipped then, since the
    complex is only partially reduced.
    """
    data: dict[int, tuple[int, tuple[int, ...]]] = {}
    degrees = c.degrees()
    if not degrees:
        return HomologyProfile(())
    top = max(degrees) if up_to_degree is None else min(max(degrees), up_to_degree)
    for d in range(min(degrees), top + 1):
        size = c.size(d)
        if size == 0:
            continue
        betti = size - c.boundary_rank(d) - c.boundary_rank(d + 1)
        torsion = tuple(x for x in c.boundary_divisors(d + 1) if x != 1)
        if betti < 0:
            raise HomologyError("negative betti number: rank bookkeeping is broken")
        data[d] = (betti, torsion)
    if up_to_degree is None:
        euler_sizes = sum((-1) ** d * c.size(d) for d in degrees)
        euler_betti = sum((-1) ** d * b for d, (b, _) in data.items())
        if euler_sizes != euler_betti:
            raise HomologyError("Euler characteristic mismatch between sizes and betti numbers")
    return HomologyProfile.from_dict(data)


def assemble(index: dict[int, dict], faces: Callable[[int, Any], Iterable[tuple[Any, int]]]) -> ChainComplex:
    """The chain complex on the basis ``index`` (degree -> basis element ->
    position) whose boundary sends an element ``e`` of degree d to the sum
    of ``coefficient * face`` over the pairs of ``faces(d, e)``.  Every face
    must be indexed one degree down: an unindexed face raises
    :class:`HomologyError`, it is never dropped."""
    boundaries: dict[int, dict[int, dict[int, int]]] = {}
    for d, elements in index.items():
        lower = index.get(d - 1, {})
        columns: dict[int, dict[int, int]] = {}
        for element, col in elements.items():
            column: dict[int, int] = {}
            for face, coefficient in faces(d, element):
                row = lower.get(face)
                if row is None:
                    raise HomologyError(
                        f"a face of basis element {col} in degree {d} is not indexed one degree down")
                column[row] = column.get(row, 0) + coefficient
            if column:
                columns[col] = column
        if columns:
            boundaries[d] = columns
    return ChainComplex({d: len(elements) for d, elements in index.items()}, boundaries)


def _simplex_faces(d: int, simplex: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The faces of a d-simplex with the standard alternating signs."""
    return [(simplex[:i] + simplex[i + 1:], (-1) ** i) for i in range(d + 1)]


def chains(complex_) -> ChainComplex:
    """The reduced (augmented) simplicial chain complex of an abstract
    simplicial complex, with the standard alternating-sign boundary taken in
    the complex's deterministic vertex order.  The bases are the complex's
    ``levels``, in their order, and degree -1 is the empty simplex; the
    empty complex has only that degree."""
    return assemble({-1: {(): 0}, **complex_.levels}, _simplex_faces)


def relative_chains(x, y) -> ChainComplex:
    """The quotient chain complex of a pair: simplices of ``x`` not in ``y``,
    in the order of ``x.levels``, with faces in ``y`` and the empty face
    left out, no augmentation."""
    if not y.is_subcomplex_of(x):
        raise HomologyError("second complex is not a subcomplex of the first")
    # the subcomplex in the ambient complex's vertex indices
    y_simplices = {tuple(sorted(x.index_of(lbl) for lbl in y.label_simplex(s))) for s in y}
    index: dict[int, dict[tuple[int, ...], int]] = {}
    for d, level in x.levels.items():
        kept = [s for s in level if s not in y_simplices]
        if kept:
            index[d] = {s: i for i, s in enumerate(kept)}

    def faces(d: int, simplex: tuple[int, ...]):
        return ((f, c) for f, c in _simplex_faces(d, simplex) if f and f not in y_simplices)

    return assemble(index, faces)


def relative_homology(x, y) -> HomologyProfile:
    """Homology of the pair ``(x, y)`` through the quotient complex."""
    return homology(relative_chains(x, y))


def is_c_connected_homologically(complex_, c: int) -> bool:
    """Whether all reduced homology vanishes in degrees <= c.  For c = -1
    this is the nonemptiness check of the reduced degree -1; for c < -1 it
    is vacuously true."""
    prof = homology(chains(complex_))
    return all(d > c for d in prof.nonzero_degrees())
