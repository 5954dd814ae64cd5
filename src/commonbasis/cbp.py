"""Deciding the common basis property.

A collection of summands of ``R^n`` *has a common basis* when one basis of
``R^n`` contains a spanning subset for every member.  This module decides
that property two independent ways:

* :func:`has_cbp_ie` -- an inclusion-exclusion criterion: ranks of the
  intersection lattice must satisfy an alternating-sum identity for every
  subset of members, and (over the integers) certain sums of intersections
  must be summands;
* :func:`common_basis_greedy` -- a constructive procedure that walks the
  poset of distinct intersections by height and extends partial bases,
  returning an explicit verified common basis when one exists.

The two procedures agree on every input; the test suite checks this
exhaustively at small sizes and on large seeded random families, against a
third brute-force search over all bases in the prime-field case.

Subset enumeration is capped (``2^k`` tables) and collections over the
integers reject non-split members loudly at construction: the property is
only defined for summands, and a non-split member is a caller bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .exactlin import (
    GF,
    Matrix,
    Ring,
    Submodule,
    ambient_module,
    contains,
    dump_submodule,
    is_split,
    is_unimodular,
    load_submodule,
    span,
    sum_of,
    _extend_inside,
)


class CbpError(Exception):
    pass


class SubsetCapExceeded(CbpError):
    pass


class NonSplitMember(CbpError):
    pass


class ClosureCapExceeded(CbpError):
    pass


DEFAULT_SUBSET_CAP = 12
DEFAULT_CLOSURE_CAP = 4096


@dataclass(frozen=True)
class Collection:
    """An ordered collection ``U_1, ..., U_k`` of submodules of ``R^n``.

    Over the integers every member must be a summand; membership is checked
    at construction unless ``trusted`` is set (used internally by
    :func:`closure`, whose output can legitimately contain non-split sums).
    """

    ring: Ring
    ambient: int
    members: tuple[Submodule, ...]
    trusted: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for m in self.members:
            if m.ring != self.ring or m.ambient != self.ambient:
                raise CbpError("member does not live in the collection's ambient module")
        if not self.trusted and not self.ring.is_field:
            for m in self.members:
                if not is_split(m):
                    raise NonSplitMember(f"{m!r} is not a summand of Z^{self.ambient}")

    def __len__(self) -> int:
        return len(self.members)


def collection(members: Iterable[Submodule], ring: Ring | None = None, ambient: int | None = None) -> Collection:
    mems = tuple(members)
    if not mems and (ring is None or ambient is None):
        raise CbpError("empty collection needs explicit ring and ambient rank")
    ring = ring if ring is not None else mems[0].ring
    ambient = ambient if ambient is not None else mems[0].ambient
    return Collection(ring, ambient, mems)


# ---------------------------------------------------------------------------
# Subset tables.  Subsets of [k] are bitmasks; U[mask] is the intersection of
# the members indexed by the mask, U[0] the ambient module.
#
# Over F_p with p^n <= _FP_BITS_CAP a subspace is the bitmask of its elements,
# vector v having index sum_j v_j p^j.  This is exact: a subspace is
# determined by its element set; the intersection of subspaces is the
# intersection of their element sets, a single AND; |U| = p^rank U, so the
# rank is log_p of the popcount; and for e outside a subspace U, closing U
# under adding every multiple of e gives U + <e>, of rank exactly rank U + 1.
# So a span is built from the zero vector, and a sum from its largest part,
# by closing under each given element that is not yet in it.  A subspace is
# encoded once per canonical basis (``_encode_bits``).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GenericBackend:
    ring: Ring
    ambient: int

    def encode(self, sub: Submodule) -> Submodule:
        return sub

    def full(self) -> Submodule:
        return ambient_module(self.ring, self.ambient)

    def rank(self, obj: Submodule) -> int:
        return obj.rank

    def intersect(self, a: Submodule, b: Submodule) -> Submodule:
        return a & b

    def sum_many(self, objs: Sequence[Submodule]) -> Submodule:
        return sum_of(objs, self.ring, self.ambient)

    def split(self, obj: Submodule) -> bool:
        return is_split(obj)


class _FpBitsBackend:
    """Subspaces of F_p^n as bitmasks over the p^n vectors.  Adding ``d`` to
    digit ``j`` of every index moves those whose digit is below ``p - d`` up
    by ``d p^j`` and the others down by ``(p - d) p^j``; ``_rep[j]`` has a
    bit at the start of each run of ``p^(j+1)`` indices, so the indices with
    digit ``j`` below ``c`` are ``(_rep[j] << c p^j) - _rep[j]``."""

    def __init__(self, p: int, ambient: int):
        self.p, self.ambient = p, ambient
        self._pow = [p ** j for j in range(ambient)]
        self._full = (1 << p ** ambient) - 1
        self._rep = [self._full // ((1 << s * p) - 1) for s in self._pow]
        self._log = {p ** r: r for r in range(ambient + 1)}

    def _close(self, mask: int, digits: Sequence[int]) -> int:
        """``mask`` closed under adding every multiple of the vector: union
        with its translate by 1, 2, 4, ... times the vector while 2^i < p."""
        p, reach = self.p, 1
        while reach < p:
            moved = mask
            for d, s, rep in zip(digits, self._pow, self._rep):
                if d:
                    low = moved & ((rep << (p - d) * s) - rep)
                    moved = (low << d * s) | ((moved ^ low) >> (p - d) * s)
            mask |= moved
            digits = [2 * d % p for d in digits]
            reach *= 2
        return mask

    def encode(self, sub: Submodule) -> int:
        return _encode_bits(self.p, self.ambient, sub.basis)

    def full(self) -> int:
        return self._full

    def rank(self, obj: int) -> int:
        return self._log[obj.bit_count()]

    def intersect(self, a: int, b: int) -> int:
        return a & b

    def sum_many(self, objs: Sequence[int]) -> int:
        acc = max(objs, key=int.bit_count, default=1)
        for b in objs:
            while rest := b & ~acc:
                v = (rest & -rest).bit_length() - 1
                acc = self._close(acc, [v // s % self.p for s in self._pow])
        return acc


_FP_BITS_CAP = 1 << 12


@lru_cache(maxsize=64)
def _backend(ring: Ring, ambient: int):
    if ring.is_field and ring.p ** ambient <= _FP_BITS_CAP:
        return _FpBitsBackend(ring.p, ambient)
    return _GenericBackend(ring, ambient)


@lru_cache(maxsize=1 << 12)
def _encode_bits(p: int, ambient: int, basis: tuple[tuple[int, ...], ...]) -> int:
    """The span of ``basis``: the zero vector closed under each row not in it."""
    backend = _backend(GF(p), ambient)
    acc = 1
    for row in basis:
        if not acc >> sum(x * s for x, s in zip(row, backend._pow)) & 1:
            acc = backend._close(acc, row)
    return acc


def _check_cap(k: int, cap: int) -> None:
    if k > cap:
        raise SubsetCapExceeded(f"{k} members exceeds the subset cap {cap}")


def _intersection_masks(col: Collection, backend) -> tuple[list, list[int]]:
    k = len(col.members)
    size = 1 << k
    objs = [backend.encode(m) for m in col.members]
    table = [None] * size
    table[0] = backend.full()
    for mask in range(1, size):
        low = mask & -mask
        table[mask] = backend.intersect(table[mask ^ low], objs[low.bit_length() - 1])
    ranks = [backend.rank(t) for t in table]
    return table, ranks


def _expected_coranks(ranks: list[int], k: int) -> list[int]:
    """For every subset S: the alternating sum over strict supersets required
    by the inclusion-exclusion identity, i.e. rank(U_S) minus the
    superset-Moebius transform of the rank table."""
    alt = list(ranks)
    for i in range(k):
        bit = 1 << i
        for mask in range(1 << k):
            if not mask & bit:
                alt[mask] -= alt[mask | bit]
    return [ranks[s] - alt[s] for s in range(1 << k)]


def _violations(col: Collection, backend, first_only: bool) -> list[dict]:
    k = len(col.members)
    table, ranks = _intersection_masks(col, backend)
    expected = _expected_coranks(ranks, k)
    out = []
    bits = [1 << i for i in range(k)]
    for s in range(1 << k):
        parts = [table[s | b] for b in bits if not s & b]
        # every part lies in U_S, so a part equal to U_S is the whole sum
        w = table[s] if table[s] in parts else backend.sum_many(parts)
        got = backend.rank(w)
        if got != expected[s]:
            bad = {"kind": "rank", "got": got, "want": expected[s]}
        elif not col.ring.is_field and not backend.split(w):
            bad = {"kind": "split"}
        else:
            continue
        out.append({"subset": tuple(i + 1 for i in range(k) if s & (1 << i)), **bad})
        if first_only:
            break
    return out


class _MemberSet(frozenset):
    """The member bases of a collection, the memo key of its decision: a
    set, so every order and repetition of the same members shares one entry.
    Until decided it carries the collection, so that a miss walks the
    members in their own order and never rebuilds them from their bases."""

    __slots__ = ("col",)


@lru_cache(maxsize=1 << 15)
def _decide(p: int, ambient: int, bases: _MemberSet) -> bool:
    col, bases.col = bases.col, None  # the memo keeps the bases only
    return not _violations(col, _backend(col.ring, ambient), first_only=True)


def has_cbp_ie(col: Collection, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """Inclusion-exclusion test for the common basis property.

    True iff (a) for every subset ``S`` of members the rank of
    ``sum_{i not in S} (U_S & U_i)`` equals the alternating sum of ranks of
    the intersections over strict supersets of ``S``, and (b) over the
    integers each such sum is a summand.  Over a field (b) is automatic and
    is skipped.
    """
    _check_cap(len(col.members), cap)
    bases = _MemberSet(m.basis for m in col.members)
    bases.col = col
    return _decide(col.ring.p, col.ambient, bases)


def ie_violations(col: Collection, cap: int = DEFAULT_SUBSET_CAP) -> list[dict]:
    """All subsets violating the inclusion-exclusion criterion, with the kind
    of failure (``rank`` or ``split``).  Empty iff :func:`has_cbp_ie`.  Uses
    the generic backend, so it cross-checks the bitset one."""
    _check_cap(len(col.members), cap)
    return _violations(col, _GenericBackend(col.ring, col.ambient), first_only=False)


# ---------------------------------------------------------------------------
# Corank tables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorankRecord:
    subset: tuple[int, ...]
    module: Submodule
    f_value: int
    minimal: bool


@dataclass(frozen=True)
class CorankTable:
    collection: Collection
    records: tuple[CorankRecord, ...]
    g_values: tuple[tuple[Submodule, int], ...]

    @property
    def f_total(self) -> int:
        return sum(r.f_value for r in self.records)

    @property
    def g_total(self) -> int:
        return sum(g for _, g in self.g_values)

    def to_jsonable(self) -> list[dict]:
        gmap = {mod: g for mod, g in self.g_values}
        out = []
        for rec in self.records:
            item = {
                "subset": list(rec.subset),
                "module": [list(row) for row in rec.module.basis],
                "F": rec.f_value,
                "minimal": rec.minimal,
            }
            if rec.minimal:
                item["G"] = gmap[rec.module]
            out.append(item)
        return out


def corank_table(col: Collection, cap: int = DEFAULT_SUBSET_CAP) -> CorankTable:
    """The two corank functions on the subset lattice and on the poset of
    distinct intersections.  The structural identities relating them (the
    F value vanishes off minimal fiber elements, where it equals the G value
    of the image module, and both functions have equal totals) are verified
    here and raised as errors if violated; they are theorems, so a violation
    means a bug in the linear algebra."""
    k = len(col.members)
    _check_cap(k, cap)
    backend = _GenericBackend(col.ring, col.ambient)
    table, ranks = _intersection_masks(col, backend)
    size = 1 << k

    fiber_union: dict[Submodule, int] = {}
    for s in range(size):
        fiber_union[table[s]] = fiber_union.get(table[s], 0) | s
    distinct = sorted(fiber_union, key=lambda m: (m.rank, m.sort_key()))

    records = []
    for s in range(size):
        parts = [table[s | (1 << i)] for i in range(k) if not s & (1 << i)]
        w = backend.sum_many(parts)
        f_val = ranks[s] - w.rank
        subset = tuple(i + 1 for i in range(k) if s & (1 << i))
        records.append(CorankRecord(subset, table[s], f_val, fiber_union[table[s]] == s))

    g_values = []
    for mod in distinct:
        below = [other for other in distinct if other != mod and contains(mod, other)]
        w = sum_of(below, col.ring, col.ambient)
        g_values.append((mod, mod.rank - w.rank))

    gmap = dict(g_values)
    for rec in records:
        want = gmap[rec.module] if rec.minimal else 0
        if rec.f_value != want:
            raise CbpError(f"corank identity violated at subset {rec.subset}")
    if sum(r.f_value for r in records) != sum(g for _, g in g_values):
        raise CbpError("corank totals disagree")
    return CorankTable(col, tuple(records), tuple(g_values))


# ---------------------------------------------------------------------------
# The greedy constructive procedure.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonBasis:
    """A verified common basis: ``basis`` rows span the ambient module and
    ``marks[i]`` indexes the rows spanning member ``i``."""

    basis: Matrix
    marks: tuple[tuple[int, ...], ...]


def common_basis_greedy(col: Collection, cap: int = DEFAULT_SUBSET_CAP) -> CommonBasis | None:
    """Construct a common basis by walking the poset of distinct
    intersections by height, extending a basis of the sum of everything
    strictly below each node.  Returns None when an extension step hits a
    non-split sum or the assembled spanning set exceeds the ambient rank;
    a returned basis always reverifies.
    """
    _check_cap(len(col.members), cap)
    ring, n = col.ring, col.ambient
    backend = _GenericBackend(ring, n)
    table, _ = _intersection_masks(col, backend)

    distinct = sorted(set(table), key=lambda m: (m.rank, m.sort_key()))
    below: dict[Submodule, list[Submodule]] = {
        mod: [o for o in distinct if o != mod and contains(mod, o)] for mod in distinct
    }
    height: dict[Submodule, int] = {}
    for mod in distinct:  # sorted by rank, so all strictly-contained are done
        height[mod] = 1 + max((height[o] for o in below[mod]), default=-1)

    rows: list[tuple[int, ...]] = []
    marks: dict[Submodule, frozenset[int]] = {}
    for mod in sorted(distinct, key=lambda m: (height[m], m.sort_key())):
        inherited = frozenset().union(*(marks[o] for o in below[mod])) if below[mod] else frozenset()
        lower_sum = sum_of(below[mod], ring, n)
        if lower_sum == mod:
            marks[mod] = inherited
            continue
        ext = _extend_inside(lower_sum, mod)
        if ext is None:
            return None
        new_indices = range(len(rows), len(rows) + len(ext))
        rows.extend(ext)
        marks[mod] = inherited | frozenset(new_indices)

    if len(rows) != n:
        return None
    basis = Matrix.from_rows(ring, rows, n)
    if not is_unimodular(basis):
        return None
    result_marks = []
    for i, member in enumerate(col.members):
        mod = table[1 << i]
        idx = tuple(sorted(marks[mod]))
        if span(ring, n, [rows[j] for j in idx]) != member:
            return None
        result_marks.append(idx)
    return CommonBasis(basis, tuple(result_marks))


# ---------------------------------------------------------------------------
# Closure and the boolean Moebius function.
# ---------------------------------------------------------------------------


def closure(col: Collection, cap: int = DEFAULT_CLOSURE_CAP) -> Collection:
    """Closure of the member set under binary sum and intersection, iterated
    to a fixed point with duplicates removed.  Over the integers the output
    can contain non-split modules when the input lacks a common basis, so
    the returned collection skips the summand check."""
    current = set(col.members)
    frontier = list(col.members)
    while frontier:
        new: list[Submodule] = []
        items = sorted(current, key=lambda m: (m.rank, m.sort_key()))
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                for cand in (a + b, a & b):
                    if cand not in current:
                        new.append(cand)
                        current.add(cand)
                        if len(current) > cap:
                            raise ClosureCapExceeded(f"closure exceeded {cap} elements")
        frontier = new
    members = tuple(sorted(current, key=lambda m: (m.rank, m.sort_key())))
    return Collection(col.ring, col.ambient, members, trusted=True)


def mobius_boolean(s: Iterable[int], t: Iterable[int]) -> int:
    """Moebius function of the boolean lattice (and its opposite):
    ``(-1)**|difference|`` for nested subsets."""
    a, b = frozenset(s), frozenset(t)
    if not (a <= b or b <= a):
        raise CbpError("mobius_boolean requires nested subsets")
    return -1 if len(a ^ b) % 2 else 1


def dump_collection(col: Collection) -> str:
    """One submodule block per member, blank-line separated."""
    return "\n\n".join(dump_submodule(m) for m in col.members) + "\n"


def load_collection(text: str, ring=None, ambient=None) -> Collection:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    members = tuple(load_submodule(b) for b in blocks)
    return collection(members, ring=ring, ambient=ambient)
