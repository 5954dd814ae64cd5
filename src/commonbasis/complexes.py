"""Finite simplicial complexes: buildings, common basis complexes, joins.

A :class:`SimplicialComplex` stores a deterministic vertex label sequence and
its faces as sorted index tuples, grouped by dimension into sorted levels.
Constructors here build:

* :func:`higher_tits` -- the subcomplex of a join of flag and splitting
  complexes cut out by the joint common basis property, relative to a fixed
  compatible collection;
* :func:`tits` and :func:`split_tits` -- the order complexes of proper
  nonzero subspaces (flags) and of two-part splittings: the one-factor
  higher buildings, built without common-basis decisions;
* :func:`common_basis_complex` -- simplices are collections of proper
  nonzero subspaces admitting a common basis: under the frame cap, the
  face closure of one simplex per frame, with no common-basis decision.

Vertices of joins carry their slot index so equal payloads in different
factors stay distinct.  Everything is deterministic: vertex orders come from
the canonical submodule ordering and simplices are kept sorted, so building
a complex twice yields byte-identical serializations.

The combinatorial Morse decomposition (:func:`morse_check`,
:func:`morse_certificate`) verifies that collapsing the subcomplex of
simplices with no face in a chosen independent set has the homology of a
wedge of suspended links; the homology module referees the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from operator import lt
from typing import Callable, Iterable, Sequence

from . import homology as _homology
from .cbp import (_FP_BITS_CAP, DEFAULT_SUBSET_CAP, Collection, _check_cap, _encode_bits,
                  _FpBitsBackend, has_cbp_ie)
from .exactlin import GF, Ring, Submodule, all_subspaces, ring_from_token, span, sum_of


class ComplexError(Exception):
    pass


class CapExceeded(ComplexError):
    pass


class MorseHypothesisViolated(ComplexError):
    def __init__(self, condition: str, witness=None):
        super().__init__(f"combinatorial Morse hypothesis ({condition}) violated: {witness!r}")
        self.condition = condition
        self.witness = witness


DEFAULT_MAX_VERTICES = 5000
DEFAULT_MAX_SIMPLICES = 2_000_000


# ---------------------------------------------------------------------------
# Labels.  A vertex label is a Submodule, an ordered pair of Submodules (a
# two-part splitting), or a (slot, label) pair inside a join.
# ---------------------------------------------------------------------------


def _label_kind(label) -> int:
    """The one label dispatch: 0 for a Submodule, 1 for a splitting pair,
    2 for a (slot, label) pair."""
    if isinstance(label, Submodule):
        return 0
    if isinstance(label, tuple) and len(label) == 2 and isinstance(label[0], (Submodule, int)):
        return 1 if isinstance(label[0], Submodule) else 2
    raise ComplexError(f"unknown label {label!r}")


def label_key(label):
    kind = _label_kind(label)
    if kind == 2:
        return (2, label[0], label_key(label[1]))
    return (kind,) + tuple(s.sort_key() for s in label_members(label))


def label_members(label) -> list[Submodule]:
    """The submodules a vertex contributes to common-basis tests: the
    submodule itself, both members of a splitting pair, payload of a slot."""
    kind = _label_kind(label)
    return [label] if kind == 0 else list(label) if kind == 1 else label_members(label[1])


def dump_label(label) -> str:
    kind = _label_kind(label)
    if kind == 2:
        return f"slot {label[0]} {dump_label(label[1])}"
    return ("sub ", "pair ")[kind] + " / ".join(
        f"{s.ring} {s.ambient} {s.rank}" + "".join(f" {x}" for row in s.basis for x in row)
        for s in label_members(label))


def _parse_sub_tokens(tokens: list[str]):
    ring = ring_from_token(tokens[0])
    n, rank = int(tokens[1]), int(tokens[2])
    flat = [int(x) for x in tokens[3 : 3 + rank * n]]
    rows = [flat[i * n : (i + 1) * n] for i in range(rank)]
    sub = span(ring, n, rows)
    if sub.basis != tuple(tuple(r) for r in rows):
        raise ComplexError("serialized submodule rows are not canonical")
    return sub, tokens[3 + rank * n:]


def parse_label(text: str):
    tokens = text.split()
    label, rest = _parse_label_tokens(tokens)
    if rest:
        raise ComplexError(f"trailing tokens in label {text!r}")
    return label


def _parse_label_tokens(tokens: list[str]):
    kind = tokens[0]
    if kind == "sub":
        return _parse_sub_tokens(tokens[1:])
    if kind == "pair":
        sep = tokens.index("/")
        first, rest1 = _parse_sub_tokens(tokens[1:sep])
        if rest1:
            raise ComplexError("malformed pair label")
        second, rest2 = _parse_sub_tokens(tokens[sep + 1:])
        return (first, second), rest2
    if kind == "slot":
        inner, rest = _parse_label_tokens(tokens[2:])
        return (int(tokens[1]), inner), rest
    raise ComplexError(f"unknown label kind {kind!r}")


# ---------------------------------------------------------------------------
# The complex type.
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """An abstract simplicial complex over a fixed vertex label sequence.

    ``levels`` is the one store of its nonempty faces: ``levels[d]`` maps
    each d-simplex, a sorted index tuple, to its position among the
    d-simplices.  A level lists its simplices in lexicographic order and the
    levels run in increasing dimension; ``dump_complex`` writes this order
    and ``homology.chains`` takes its bases from it.  Face closure is an
    invariant, checked at construction: every facet of every d-simplex is
    looked up in level d-1.  The empty simplex is implicit: the homology
    module's augmentation supplies it.
    """

    def __init__(self, vertices: Sequence, simplices: Iterable[tuple[int, ...]]):
        self.vertices = tuple(vertices)
        by_dim: dict[int, list[tuple[int, ...]]] = {}
        for s in frozenset(tuple(s) for s in simplices):
            if not s or not all(map(lt, s, s[1:])):
                raise ComplexError(f"bad simplex tuple {s}")
            if s[0] < 0 or s[-1] >= len(self.vertices):
                raise ComplexError(f"simplex {s} is outside the vertex range")
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.levels: dict[int, dict[tuple[int, ...], int]] = {}
        for d in sorted(by_dim):
            level = sorted(by_dim.pop(d))
            if d:
                below = self.levels.get(d - 1, {})
                for s in level:
                    for i in range(d + 1):
                        if s[:i] + s[i + 1:] not in below:
                            raise ComplexError(f"simplex set not closed under faces at {s}")
            self.levels[d] = {s: i for i, s in enumerate(level)}
        self._index = {lbl: i for i, lbl in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ComplexError("duplicate vertex labels")

    # -- basic queries -------------------------------------------------------

    def __iter__(self):
        """The simplices in the order of ``levels``."""
        for level in self.levels.values():
            yield from level

    def simplex_set(self) -> frozenset:
        """The simplices as a new frozenset, built on each call."""
        return frozenset(self)

    def __contains__(self, simplex: tuple[int, ...]) -> bool:
        simplex = tuple(simplex)
        return simplex in self.levels.get(len(simplex) - 1, ())

    def label_simplex(self, simplex: Iterable[int]) -> frozenset:
        return frozenset(self.vertices[i] for i in simplex)

    def index_of(self, label) -> int:
        return self._index[label]

    @property
    def dim(self) -> int:
        return max(self.levels, default=-1)

    def f_vector(self) -> list[int]:
        return [len(level) for level in self.levels.values()]

    def num_simplices(self) -> int:
        return sum(map(len, self.levels.values()))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        try:
            return all(tuple(sorted(other._index[self.vertices[i]] for i in s)) in other
                       for s in self)
        except KeyError:
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.levels == other.levels

    def __hash__(self):
        return hash((self.vertices, tuple(self)))

    def __repr__(self) -> str:
        return f"<SimplicialComplex {len(self.vertices)} vertices, f-vector {self.f_vector()}>"

    # -- derived complexes ----------------------------------------------------

    def restrict(self, simplices: Iterable[tuple[int, ...]]) -> "SimplicialComplex":
        """Subcomplex with the same vertex universe and the given simplices."""
        return SimplicialComplex(self.vertices, simplices)

    def link(self, simplex: Sequence[int]) -> "SimplicialComplex":
        s = tuple(sorted(simplex))
        if s not in self:
            raise ComplexError(f"{s} is not a simplex")
        sset = set(s)
        return self.restrict(t for t in self
                             if sset.isdisjoint(t) and tuple(sorted(sset.union(t))) in self)


def _add_with_faces(target: set, simplex: tuple[int, ...]) -> None:
    stack = [simplex]
    while stack:
        s = stack.pop()
        if s in target or not s:
            continue
        target.add(s)
        if len(s) > 1:
            stack.extend(s[:i] + s[i + 1:] for i in range(len(s)))


# ---------------------------------------------------------------------------
# Joins.
# ---------------------------------------------------------------------------


def join(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex labels carry slot tags 0 and 1."""
    vertices = [(0, v) for v in k.vertices] + [(1, w) for w in l.vertices]
    offset = len(k.vertices)
    l_simps = [()] + [tuple(offset + i for i in t) for t in l]
    simps = [s + t for s in [(), *k] for t in l_simps if s or t]
    return SimplicialComplex(vertices, simps)


# ---------------------------------------------------------------------------
# Chain-style enumeration shared by the building constructors: in a poset,
# every pairwise-comparable vertex set is a chain, so the simplices of an
# order complex are the cliques of the comparability graph.
# ---------------------------------------------------------------------------


def _clique_complex(
    labels: Sequence,
    edge: Callable[[int, int], bool],
    accept: Callable[[tuple[int, ...]], bool] | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
    max_dim: int | None = None,
) -> SimplicialComplex:
    """The cliques of ``edge`` on ``labels`` that ``accept`` admits, grown
    level by level from each simplex's common neighbours above its last
    vertex.

    ``accept`` must be hereditary: a face of an accepted simplex is
    accepted.  Both builders' tests are, since a common basis of a
    collection is also one of every subcollection.  So a candidate with a
    facet that is not a simplex would be rejected by ``accept`` too, and the
    facet filter below changes no answer.  It stays because a set lookup is
    cheaper than a new decision: on the deciding route the edge graph of
    ``common_basis_complex(3, 3)`` is complete, and without the filter that
    build makes 31,433 decisions instead of 7,605 and takes 0.18-0.34 s
    instead of 0.16 s (frame-table decisions, 2-vCPU VM, Python 3.11).  The
    closure check of :class:`SimplicialComplex` stays as the independent guard.

    Both caps are checked here: ``max_vertices`` on the labels before any
    vertex is accepted, ``max_simplices`` as simplices are added."""
    n = len(labels)
    if n > max_vertices:
        raise CapExceeded(f"{n} vertices exceeds the cap {max_vertices}")
    vertices = [i for i in range(n) if accept is None or accept((i,))]
    adj = [0] * n
    for k, i in enumerate(vertices):
        for j in vertices[k + 1:]:
            if edge(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # one set of simplices per dimension: the facet filter reads the last
    levels: list[set[tuple[int, ...]]] = [{(i,) for i in vertices}]
    count = len(vertices)
    level: list[tuple[tuple[int, ...], int]] = [((i,), adj[i]) for i in vertices]
    while level and (max_dim is None or len(level[0][0]) <= max_dim):
        below, grown, nxt = levels[-1], set(), []
        for simplex, common in level:
            m = common >> (simplex[-1] + 1)
            base = simplex[-1] + 1
            while m:
                low = m & -m
                v = base + low.bit_length() - 1
                m ^= low
                cand = simplex + (v,)
                if len(cand) > 2:
                    # All facets must already be simplices.
                    if any(cand[:i] + cand[i + 1:] not in below for i in range(len(cand) - 1)):
                        continue
                if accept is not None and not accept(cand):
                    continue
                grown.add(cand)
                count += 1
                if count > max_simplices:
                    raise CapExceeded(f"more than {max_simplices} simplices")
                nxt.append((cand, common & adj[v]))
        levels.append(grown)
        level = nxt
    simplices = (s for grown in levels for s in grown)
    if len(vertices) < n:
        # Only accepted labels are vertices: compact them, in their order.
        new_index = {i: k for k, i in enumerate(vertices)}
        labels = [labels[i] for i in vertices]
        simplices = (tuple(new_index[v] for v in s) for s in simplices)
    return SimplicialComplex(labels, simplices)


# ---------------------------------------------------------------------------
# Buildings.
# ---------------------------------------------------------------------------


def tits(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
         max_simplices: int = DEFAULT_MAX_SIMPLICES,
         max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of the proper nonzero subspaces of F_p^n under
    inclusion; simplices are flags.  This is ``higher_tits(1, 0, n, p)``."""
    return higher_tits(1, 0, n, p, max_vertices=max_vertices,
                       max_simplices=max_simplices, max_dim=max_dim)


def split_tits(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
               max_simplices: int = DEFAULT_MAX_SIMPLICES,
               max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of two-part splittings (P, Q), P (+) Q the whole space,
    both parts proper nonzero, with (P,Q) < (P',Q') when P < P' and Q' < Q.
    This is ``higher_tits(0, 1, n, p)``."""
    return higher_tits(0, 1, n, p, max_vertices=max_vertices,
                       max_simplices=max_simplices, max_dim=max_dim)


def st_simplex_to_splitting(chain: Sequence[tuple[Submodule, Submodule]]) -> tuple[Submodule, ...]:
    """A chain (P_0,Q_0) < ... < (P_k,Q_k) corresponds to the splitting
    (P_0, P_1 & Q_0, ..., P_k & Q_{k-1}, Q_k) of size k+2."""
    ordered = sorted(chain, key=lambda pq: pq[0].rank)
    parts = [ordered[0][0]]
    for i in range(1, len(ordered)):
        parts.append(ordered[i][0] & ordered[i - 1][1])
    parts.append(ordered[-1][1])
    return tuple(parts)


def splitting_to_st_simplex(parts: Sequence[Submodule]) -> tuple[tuple[Submodule, Submodule], ...]:
    """Inverse of :func:`st_simplex_to_splitting`: prefix/suffix sums of a
    splitting of size k+2 give the chain of two-part splittings."""
    ring, n = parts[0].ring, parts[0].ambient
    out = []
    for i in range(len(parts) - 1):
        front = sum_of(parts[: i + 1], ring, n)
        back = sum_of(parts[i + 1:], ring, n)
        out.append((front, back))
    return tuple(out)


_FRAME_CAP = 1 << 12  # the most frames of F_p^n that the builders tabulate


@lru_cache(maxsize=8)
def _frame_table(n: int, p: int) -> dict[int, int] | None:
    """A frame of F_p^n is a set of n independent lines, with the sums of
    its nonempty proper sets of lines as its coordinate summands.  The table
    maps each proper nonzero subspace, by ``_encode_bits`` mask, to the bitset
    of its frames.  None above the bitset cap or ``_FRAME_CAP`` frames,
    counted as |GL_n(F_p)| / ((p-1)^n n!).  Each set of < n lines is closed once."""
    if p ** n > _FP_BITS_CAP or (
            prod(p ** n - p ** i for i in range(n)) > _FRAME_CAP * (p - 1) ** n * factorial(n)):
        return None
    lines = [s.basis[0] for s in all_subspaces(n, p, 1, 1)]
    at = [sum(x * p ** j for j, x in enumerate(v)) for v in lines]
    close, spans, table = _FpBitsBackend(p, n)._close, {(): 1}, {}
    for t in (t for r in range(1, n) for t in combinations(range(len(lines)), r)):
        spans[t] = close(spans[t[:-1]], lines[t[-1]])
    frames = (f for f in combinations(range(len(lines)), n)  # n-1 independent, and the last
              if spans[f[:-1]].bit_count() == p ** (n - 1) and not spans[f[:-1]] >> at[f[-1]] & 1)
    for k, f in enumerate(frames):
        for t in (t for r in range(1, n) for t in combinations(f, r)):
            table[spans[t]] = table.get(spans[t], 0) | 1 << k
    return table


def _has_common_basis(ring: Ring, n: int, members: tuple[Submodule, ...]) -> bool:
    """The builders' one decision, under the subset cap of ``has_cbp_ie``,
    which decides when there is no frame table.  With one, the members have
    a common basis iff a frame has them all as summands, iff the AND of their
    bitsets is nonzero: a common basis scaled to unit lines is such a frame,
    a member spanned by some of its vectors being the sum of their lines,
    and a generator of each line of a frame gives a basis.  Zero and the
    whole space, the sums of no and all lines, read as every frame, -1."""
    _check_cap(len(members), DEFAULT_SUBSET_CAP)
    table, every = _frame_table(n, ring.p), -1
    if table is None:
        return has_cbp_ie(Collection(ring, n, members))
    for s in members:
        every &= table.get(_encode_bits(ring.p, n, s.basis), -1)
    return every != 0


def _common_basis_build(labels: Sequence, related: Callable[[int, int], bool], n: int, p: int,
                        sigma_members: tuple[Submodule, ...], max_vertices: int,
                        max_simplices: int, max_dim: int | None) -> SimplicialComplex:
    """The cliques of ``related`` on ``labels`` whose members, together with
    sigma's, have a common basis.

    ``mask`` numbers the build's distinct subspaces into ``numbered``, and
    ``test(m)`` decides the members of mask ``m`` with sigma's, once per
    mask: exact, as a decision depends only on the set of member bases,
    canonical and so one to one with subspaces.  Sigma goes before any cap.

    Without sigma a single vertex is accepted undecided.  Its members are
    one subspace, whose own basis extends to a common basis, or a splitting
    pair, whose two bases together form one."""
    ring = GF(p)
    index: dict[Submodule, int] = {}
    numbered: list[Submodule] = []
    decided: dict[int, bool] = {}

    def mask(members: Iterable[Submodule]) -> int:
        m = 0
        for s in members:
            if s not in index:
                index[s] = len(numbered)
                numbered.append(s)
            m |= 1 << index[s]
        return m

    sigma = mask(sigma_members)

    def test(m: int) -> bool:
        m |= sigma
        if m not in decided:
            mems, rest = [], m
            while rest:
                mems.append(numbered[(rest & -rest).bit_length() - 1])
                rest &= rest - 1
            decided[m] = _has_common_basis(ring, n, tuple(mems))
        return decided[m]

    if sigma_members and not test(0):
        raise ComplexError("relative collection must itself have a common basis")
    bit = [mask(label_members(lbl)) for lbl in labels]

    def edge(i: int, j: int) -> bool:
        return related(i, j) and test(bit[i] | bit[j])

    def accept(simplex: tuple[int, ...]) -> bool:
        if len(simplex) == 2 or len(simplex) == 1 and not sigma:
            return True  # edges already tested pairwise, lone vertices above
        m = 0
        for i in simplex:
            m |= bit[i]
        return test(m)

    return _clique_complex(labels, edge, accept, max_vertices, max_simplices, max_dim)


def common_basis_complex(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
                         max_simplices: int = DEFAULT_MAX_SIMPLICES,
                         max_dim: int | None = None) -> SimplicialComplex:
    """Vertices are the proper nonzero subspaces of F_p^n; a vertex set
    spans a simplex iff it has a common basis, iff one frame has every member
    as a summand (``_has_common_basis``).  So with a frame table nothing is
    decided: the simplices are the nonempty sets of at most ``max_dim + 1`` of
    one frame's summands, face-closed by construction, and every label, a
    summand of some frame, is a vertex, as on the deciding route.  The caps
    act as in ``_clique_complex``: ``max_simplices`` counts the vertices but
    is compared only as simplices of dimension >= 1 are added."""
    labels = sorted(all_subspaces(n, p, 1, n - 1), key=label_key)
    table = _frame_table(n, p)
    if table is None:
        return _common_basis_build(labels, lambda i, j: True, n, p, (), max_vertices,
                                   max_simplices, max_dim)
    if len(labels) > max_vertices:
        raise CapExceeded(f"{len(labels)} vertices exceeds the cap {max_vertices}")
    frames: dict[int, list[int]] = {}
    for i, s in enumerate(labels):
        f = table[_encode_bits(p, n, s.basis)]
        while f:
            frames.setdefault((f & -f).bit_length() - 1, []).append(i)
            f &= f - 1
    simplices = {(i,) for i in range(len(labels))}
    for frame in frames.values():
        top = len(frame) if max_dim is None else min(len(frame), max_dim + 1)
        for r in range(2, top + 1):
            simplices.update(combinations(frame, r))
            if len(simplices) > max_simplices:
                raise CapExceeded(f"more than {max_simplices} simplices")
    return SimplicialComplex(labels, simplices)


def higher_tits(a: int, b: int, n: int, p: int, sigma: Collection | None = None,
                max_vertices: int = DEFAULT_MAX_VERTICES,
                max_simplices: int = DEFAULT_MAX_SIMPLICES,
                max_dim: int | None = None) -> SimplicialComplex:
    """The higher building relative to ``sigma``: the subcomplex of the join
    of ``a`` flag complexes and ``b`` splitting complexes on those simplices
    whose constituent submodules, together with the members of ``sigma``,
    have a common basis.  Vertices are tagged with their join slot.

    With one factor and no sigma nothing is decided.  A simplex is then a
    flag, which has a common basis by basis extension, or a chain of
    two-part splittings.  Such a chain refines to the single splitting that
    :func:`st_simplex_to_splitting` gives, and a basis adapted to that
    splitting spans every P_i and Q_i, each a sum of consecutive parts.  So
    every clique would be accepted, and the build is the clique complex of
    the slot relation alone."""
    if a < 0 or b < 0 or a + b < 1:
        raise ComplexError("need at least one join factor")
    sigma_members: tuple[Submodule, ...] = ()
    if sigma is not None and sigma.members:
        if sigma.ring != GF(p) or sigma.ambient != n:
            raise ComplexError("relative collection lives in the wrong ambient space")
        sigma_members = sigma.members
    subs = sorted(all_subspaces(n, p, 1, n - 1), key=label_key)
    # Splitting pairs are only vertices of slots a..a+b-1.
    pairs = sorted(((x, y) for x in subs for y in subs
                    if x.rank + y.rank == n and (x & y).is_zero), key=label_key) if b else []
    slots: list[int] = []
    payloads: list = []
    for slot in range(a + b):
        factor = subs if slot < a else pairs
        slots += [slot] * len(factor)
        payloads += factor
    # A single factor is a subcomplex of the flag or splitting complex
    # itself, so its vertices stay untagged and directly comparable.
    labels = payloads if a + b == 1 else list(zip(slots, payloads))
    masks = p ** n <= _FP_BITS_CAP
    code = (lambda s: _encode_bits(p, n, s.basis)) if masks else (lambda s: s)
    le = (lambda x, y: x & y == x) if masks else Submodule.__le__
    elements = [code(x) if slot < a else tuple(map(code, x)) for slot, x in zip(slots, payloads)]

    def related(i: int, j: int) -> bool:
        """Distinct payloads of one slot are related when comparable.  As a
        subspace is its set of elements, A <= B iff A & B == A on masks.  And
        P <= P', Q' <= Q give (P, Q) < (P', Q'): P = P' forces Q' = Q by rank."""
        if slots[i] != slots[j]:
            return True
        x, y = elements[i], elements[j]
        if slots[i] < a:
            return le(x, y) or le(y, x)
        return le(x[0], y[0]) and le(y[1], x[1]) or le(y[0], x[0]) and le(x[1], y[1])

    if a + b == 1 and not sigma_members:
        return _clique_complex(labels, related, None, max_vertices, max_simplices, max_dim)
    return _common_basis_build(labels, related, n, p, sigma_members, max_vertices,
                               max_simplices, max_dim)


def is_simplex_over_Z(members: Collection) -> bool:
    """Membership query for the common basis complex over the integers,
    where the vertex set is infinite and only queries are supported.
    Members must be split (the collection constructor enforces this)."""
    if members.ring.is_field:
        raise ComplexError("use the field constructors for finite fields")
    return has_cbp_ie(members)


# ---------------------------------------------------------------------------
# Combinatorial Morse decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorseInstance:
    complex: SimplicialComplex
    simplex_set: frozenset  # of index tuples
    subcomplex: SimplicialComplex
    links: dict


def morse_check(x: SimplicialComplex, s: Iterable[tuple[int, ...]],
                expected_subcomplex: SimplicialComplex | None = None) -> MorseInstance:
    """Validate a combinatorial Morse pair: derive the subcomplex Y of all
    simplices with no face in S, re-check it against a caller-supplied Y if
    given (hypothesis i), and verify no two members of S span a joint
    simplex (hypothesis ii).  Returns the instance with the links of the
    members of S, ready for the homology certificate."""
    s_set = frozenset(tuple(t) for t in s)
    for t in s_set:
        if t not in x:
            raise MorseHypothesisViolated("i", t)
    y = x.restrict(t for t in x if not any(f in s_set for f in _faces_of(t)))
    if expected_subcomplex is not None:
        expected = expected_subcomplex
        if expected.vertices != x.vertices:
            if not expected.is_subcomplex_of(x):
                raise MorseHypothesisViolated("i", "claimed subcomplex is not inside the complex")
            expected = x.restrict(
                tuple(sorted(x.index_of(lbl) for lbl in expected.label_simplex(t)))
                for t in expected
            )
        if expected != y:
            diff = set(expected) ^ set(y)
            raise MorseHypothesisViolated("i", sorted(diff)[:3])
    pairs = sorted(s_set)
    for i, t1 in enumerate(pairs):
        for t2 in pairs[i + 1:]:
            union = tuple(sorted(set(t1) | set(t2)))
            if union in x:
                raise MorseHypothesisViolated("ii", (t1, t2))
    links = {t: x.link(t) for t in pairs}
    return MorseInstance(x, s_set, y, links)


def _faces_of(simplex: tuple[int, ...]):
    for r in range(1, len(simplex) + 1):
        yield from combinations(simplex, r)


@dataclass(frozen=True)
class MorseReport:
    ok: bool
    relative: "_homology.HomologyProfile"
    wedge: "_homology.HomologyProfile"


def morse_certificate(instance: MorseInstance) -> MorseReport:
    """Check that the relative homology of (X, Y) matches the direct sum,
    over the members of S, of the link homologies shifted up by dim+1
    (betti numbers and torsion both)."""
    relative = _homology.relative_homology(instance.complex, instance.subcomplex)
    betti: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for t, link in instance.links.items():
        shift = len(t)  # dim(t) + 1
        prof = _homology.homology(_homology.chains(link))
        for d, b, tor in prof.groups:
            betti[d + shift] = betti.get(d + shift, 0) + b
            torsion.setdefault(d + shift, []).extend(tor)
    wedge = _homology.HomologyProfile.from_dict(
        {
            d: (betti.get(d, 0), tuple(_homology._normalize_chain(torsion.get(d, []))))
            for d in set(betti) | set(torsion)
        }
    )
    return MorseReport(relative == wedge, relative, wedge)


def random_morse_instance(rng, max_vertices: int = 8, max_facets: int = 10,
                          max_facet_size: int = 4) -> tuple[SimplicialComplex, list[tuple[int, ...]]]:
    """A random complex together with a valid independent simplex set:
    facets are sampled on a small vertex set, then simplices are greedily
    added to S while no two members span a joint simplex.  Deterministic
    given the random generator state."""
    nverts = rng.randint(3, max_vertices)
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_size, nverts))
        facets.append(tuple(sorted(rng.sample(range(nverts), size))))
    labels = sorted({v for f in facets for v in f})
    relabel = {v: i for i, v in enumerate(labels)}
    simps: set[tuple[int, ...]] = set()
    for facet in facets:
        _add_with_faces(simps, tuple(sorted(relabel[v] for v in facet)))
    x = SimplicialComplex(tuple(labels), simps)
    candidates = list(x)
    rng.shuffle(candidates)
    chosen: list[tuple[int, ...]] = []
    want = rng.randint(1, 3)
    for cand in candidates:
        ok = True
        for prev in chosen:
            union = tuple(sorted(set(prev) | set(cand)))
            if union in x:
                ok = False
                break
        if ok:
            chosen.append(cand)
            if len(chosen) >= want:
                break
    return x, sorted(chosen)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def dump_complex(k: SimplicialComplex) -> str:
    lines = [f"#vertices {len(k.vertices)}"]
    lines.extend(dump_label(v) for v in k.vertices)
    lines.extend(" ".join(map(str, s)) for s in k)
    return "\n".join(lines) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    lines = [ln.rstrip("\n") for ln in text.strip().splitlines()]
    if not lines or not lines[0].startswith("#vertices "):
        raise ComplexError("missing #vertices header")
    try:
        nverts = int(lines[0].split()[1])
        vertices = [parse_label(ln) for ln in lines[1 : 1 + nverts]]
        simplices = [tuple(int(x) for x in ln.split()) for ln in lines[1 + nverts:] if ln.strip()]
    except (ValueError, IndexError) as err:
        raise ComplexError(f"malformed complex file: {err}") from err
    return SimplicialComplex(vertices, simplices)
