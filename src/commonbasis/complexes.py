"""Finite simplicial complexes: buildings, common basis complexes, joins.

A :class:`SimplicialComplex` stores a deterministic vertex label sequence and
the full set of faces as sorted index tuples.  Constructors here build:

* :func:`tits` -- the order complex of proper nonzero subspaces (flags);
* :func:`split_tits` -- the order complex of two-part splittings;
* :func:`common_basis_complex` -- simplices are collections of proper
  nonzero subspaces admitting a common basis;
* :func:`higher_tits` -- the subcomplex of a join of flag and splitting
  complexes cut out by the joint common basis property, relative to a fixed
  compatible collection.

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
from typing import Callable, Iterable, Sequence

from . import homology as _homology
from .cbp import Collection, has_cbp_ie
from .exactlin import (
    GF,
    Ring,
    Submodule,
    all_subspaces,
    contains,
    ring_from_token,
    span,
    sum_of,
)


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

    ``simplices`` is the set of all nonempty faces as sorted index tuples
    (face closure is an invariant, checked at construction).  The empty
    simplex is implicit: the homology module's augmentation supplies it.
    """

    def __init__(self, vertices: Sequence, simplices: Iterable[tuple[int, ...]]):
        self.vertices = tuple(vertices)
        simps = frozenset(tuple(s) for s in simplices)
        for s in simps:
            if not s or list(s) != sorted(set(s)):
                raise ComplexError(f"bad simplex tuple {s}")
            if s[-1] >= len(self.vertices):
                raise ComplexError(f"simplex {s} exceeds vertex count")
            if len(s) > 1:
                for i in range(len(s)):
                    if s[:i] + s[i + 1:] not in simps:
                        raise ComplexError(f"simplex set not closed under faces at {s}")
        self._simplices = simps
        self._index = {lbl: i for i, lbl in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise ComplexError("duplicate vertex labels")

    # -- basic queries -------------------------------------------------------

    def simplex_set(self) -> frozenset:
        return self._simplices

    def __contains__(self, simplex: tuple[int, ...]) -> bool:
        return tuple(simplex) in self._simplices

    def has_label_simplex(self, labels: Iterable) -> bool:
        try:
            idx = tuple(sorted(self._index[l] for l in labels))
        except KeyError:
            return False
        return idx in self._simplices

    def label_simplex(self, simplex: Iterable[int]) -> frozenset:
        return frozenset(self.vertices[i] for i in simplex)

    def index_of(self, label) -> int:
        return self._index[label]

    @property
    def dim(self) -> int:
        return max((len(s) for s in self._simplices), default=0) - 1

    def f_vector(self) -> list[int]:
        counts = [0] * (self.dim + 1) if self._simplices else []
        for s in self._simplices:
            counts[len(s) - 1] += 1
        return counts

    def num_simplices(self) -> int:
        return len(self._simplices)

    def simplices_by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for s in self._simplices:
            out.setdefault(len(s) - 1, []).append(s)
        for d in out:
            out[d].sort()
        return out

    def simplices_of_dim(self, d: int) -> list[tuple[int, ...]]:
        return sorted(s for s in self._simplices if len(s) == d + 1)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        if self.vertices == other.vertices:
            return self._simplices <= other._simplices
        try:
            mapped = {
                tuple(sorted(other._index[self.vertices[i]] for i in s)) for s in self._simplices
            }
        except KeyError:
            return False
        return mapped <= other._simplices

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._simplices == other._simplices

    def __hash__(self):
        return hash((self.vertices, self._simplices))

    def __repr__(self) -> str:
        return f"<SimplicialComplex {len(self.vertices)} vertices, f-vector {self.f_vector()}>"

    # -- derived complexes ----------------------------------------------------

    def restrict(self, simplices: Iterable[tuple[int, ...]]) -> "SimplicialComplex":
        """Subcomplex with the same vertex universe and the given simplices."""
        return SimplicialComplex(self.vertices, simplices)

    def full_subcomplex(self, vertex_indices: Iterable[int]) -> "SimplicialComplex":
        keep = frozenset(vertex_indices)
        return self.restrict(s for s in self._simplices if keep.issuperset(s))

    def link(self, simplex: Sequence[int]) -> "SimplicialComplex":
        s = tuple(sorted(simplex))
        if s not in self._simplices:
            raise ComplexError(f"{s} is not a simplex")
        sset = set(s)
        out = []
        for t in self._simplices:
            if sset.isdisjoint(t) and tuple(sorted(set(t) | sset)) in self._simplices:
                out.append(t)
        return self.restrict(out)

    def star(self, simplex: Sequence[int]) -> "SimplicialComplex":
        s = tuple(sorted(simplex))
        if s not in self._simplices:
            raise ComplexError(f"{s} is not a simplex")
        sset = set(s)
        # The star is the face closure of the simplices containing s.
        closed: set[tuple[int, ...]] = set()
        for t in self._simplices:
            if sset.issubset(t):
                _add_with_faces(closed, t)
        return self.restrict(closed)


def _add_with_faces(target: set, simplex: tuple[int, ...]) -> None:
    stack = [simplex]
    while stack:
        s = stack.pop()
        if s in target or not s:
            continue
        target.add(s)
        if len(s) > 1:
            stack.extend(s[:i] + s[i + 1:] for i in range(len(s)))


def from_label_facets(facets: Iterable[Iterable]) -> SimplicialComplex:
    """Complex generated by the given facets (faces closed automatically);
    vertices are the labels appearing, in deterministic order."""
    facet_list = [frozenset(f) for f in facets]
    labels = sorted({l for f in facet_list for l in f}, key=_generic_key)
    index = {l: i for i, l in enumerate(labels)}
    simps: set[tuple[int, ...]] = set()
    for f in facet_list:
        _add_with_faces(simps, tuple(sorted(index[l] for l in f)))
    return SimplicialComplex(labels, simps)


def from_label_simplices(simplices: Iterable[Iterable]) -> SimplicialComplex:
    """Complex from an already face-closed family of label simplices."""
    simp_list = [frozenset(s) for s in simplices]
    labels = sorted({l for s in simp_list for l in s}, key=_generic_key)
    index = {l: i for i, l in enumerate(labels)}
    return SimplicialComplex(labels, {tuple(sorted(index[l] for l in s)) for s in simp_list})


def _generic_key(label):
    try:
        return label_key(label)
    except ComplexError:
        return (9, repr(label))


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex((), ())


# ---------------------------------------------------------------------------
# Joins.
# ---------------------------------------------------------------------------


def join(k: SimplicialComplex, l: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; vertex labels carry slot tags 0 and 1."""
    vertices = [(0, v) for v in k.vertices] + [(1, w) for w in l.vertices]
    offset = len(k.vertices)
    simps = set()
    k_simps = [()] + sorted(k.simplex_set())
    l_simps = [()] + sorted(l.simplex_set())
    for s in k_simps:
        for t in l_simps:
            if s or t:
                simps.add(tuple(list(s) + [offset + i for i in t]))
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
    cheaper than a new decision: the edge graph of
    ``common_basis_complex(3, 3)`` is complete, and without the filter that
    build makes 31,433 decisions instead of 7,605 and takes 1.9-3.1 s instead
    of 0.7-0.9 s (2-vCPU VM, Python 3.11).  The closure check of
    :class:`SimplicialComplex` stays as the independent guard."""
    n = len(labels)
    vertices = [i for i in range(n) if accept is None or accept((i,))]
    adj = [0] * n
    for k, i in enumerate(vertices):
        for j in vertices[k + 1:]:
            if edge(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    simplices: set[tuple[int, ...]] = {(i,) for i in vertices}
    level: list[tuple[tuple[int, ...], int]] = [((i,), adj[i]) for i in vertices]
    while level and (max_dim is None or len(level[0][0]) <= max_dim):
        nxt = []
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
                    if any(cand[:i] + cand[i + 1:] not in simplices for i in range(len(cand) - 1)):
                        continue
                if accept is not None and not accept(cand):
                    continue
                simplices.add(cand)
                if len(simplices) > max_simplices:
                    raise CapExceeded(f"more than {max_simplices} simplices")
                nxt.append((cand, common & adj[v]))
        level = nxt
    if len(vertices) < n:
        # Only accepted labels are vertices: compact them, in their order.
        new_index = {i: k for k, i in enumerate(vertices)}
        labels = [labels[i] for i in vertices]
        simplices = {tuple(new_index[v] for v in s) for s in simplices}
    return SimplicialComplex(labels, simplices)


# ---------------------------------------------------------------------------
# Buildings.
# ---------------------------------------------------------------------------


def tits(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
         max_simplices: int = DEFAULT_MAX_SIMPLICES,
         max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of the proper nonzero subspaces of F_p^n under
    inclusion; simplices are flags."""
    subs = all_subspaces(n, p, 1, n - 1) if n >= 1 else []
    if len(subs) > max_vertices:
        raise CapExceeded(f"{len(subs)} vertices exceeds the cap {max_vertices}")
    labels = sorted(subs, key=label_key)

    def edge(i: int, j: int) -> bool:
        return contains(labels[j], labels[i]) or contains(labels[i], labels[j])

    return _clique_complex(labels, edge, max_simplices=max_simplices, max_dim=max_dim)


def _st_less(a: tuple[Submodule, Submodule], b: tuple[Submodule, Submodule]) -> bool:
    return (
        a[0] != b[0]
        and contains(b[0], a[0])
        and a[1] != b[1]
        and contains(a[1], b[1])
    )


def split_tits(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
               max_simplices: int = DEFAULT_MAX_SIMPLICES,
               max_dim: int | None = None) -> SimplicialComplex:
    """Order complex of two-part splittings (P, Q), P (+) Q the whole space,
    both parts proper nonzero, with (P,Q) < (P',Q') when P < P' and Q' < Q."""
    subs = all_subspaces(n, p, 1, n - 1)
    pairs = []
    for a in subs:
        for b in subs:
            if a.rank + b.rank == n and (a & b).is_zero:
                pairs.append((a, b))
    if len(pairs) > max_vertices:
        raise CapExceeded(f"{len(pairs)} vertices exceeds the cap {max_vertices}")
    labels = sorted(pairs, key=label_key)

    def edge(i: int, j: int) -> bool:
        return _st_less(labels[i], labels[j]) or _st_less(labels[j], labels[i])

    return _clique_complex(labels, edge, max_simplices=max_simplices, max_dim=max_dim)


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


# ---------------------------------------------------------------------------
# Common basis complex and higher buildings.
# ---------------------------------------------------------------------------


def _membership_test(ring: Ring, n: int, sigma_members: tuple[Submodule, ...] = ()):
    """One build's decisions: ``mask`` numbers its distinct subspaces, and
    ``test(m)`` decides the members in mask ``m`` with sigma's, once per mask.
    Exact, as a decision depends only on the set of member bases, and
    canonical bases make subspaces and bases one to one."""
    index: dict[Submodule, int] = {}
    decided: dict[int, bool] = {}

    def mask(members: Iterable[Submodule]) -> int:
        return sum({1 << index.setdefault(s, len(index)) for s in members})

    sigma = mask(sigma_members)

    def test(m: int) -> bool:
        m |= sigma
        if m not in decided:
            mems = tuple(s for s, i in index.items() if m >> i & 1)
            decided[m] = has_cbp_ie(Collection(ring, n, mems, trusted=True))
        return decided[m]
    return mask, test


def common_basis_complex(n: int, p: int, max_vertices: int = DEFAULT_MAX_VERTICES,
                         max_simplices: int = DEFAULT_MAX_SIMPLICES,
                         max_dim: int | None = None) -> SimplicialComplex:
    """Vertices are the proper nonzero subspaces of F_p^n; a vertex set
    spans a simplex iff it has a common basis (decided by the
    inclusion-exclusion criterion)."""
    ring = GF(p)
    subs = all_subspaces(n, p, 1, n - 1) if n >= 1 else []
    if len(subs) > max_vertices:
        raise CapExceeded(f"{len(subs)} vertices exceeds the cap {max_vertices}")
    labels = sorted(subs, key=label_key)
    mask, test = _membership_test(ring, n)
    bit = [mask([s]) for s in labels]

    def edge(i: int, j: int) -> bool:
        return test(bit[i] | bit[j])

    def accept(simplex: tuple[int, ...]) -> bool:
        if len(simplex) <= 2:
            return True  # edges already tested pairwise
        return test(sum(bit[i] for i in simplex))  # distinct labels, distinct bits

    return _clique_complex(labels, edge, accept, max_simplices=max_simplices,
                           max_dim=max_dim)


def higher_tits(a: int, b: int, n: int, p: int, sigma: Collection | None = None,
                max_vertices: int = DEFAULT_MAX_VERTICES,
                max_simplices: int = DEFAULT_MAX_SIMPLICES,
                max_dim: int | None = None) -> SimplicialComplex:
    """The higher building relative to ``sigma``: the subcomplex of the join
    of ``a`` flag complexes and ``b`` splitting complexes on those simplices
    whose constituent submodules, together with the members of ``sigma``,
    have a common basis.  Vertices are tagged with their join slot."""
    if a < 0 or b < 0 or a + b < 1:
        raise ComplexError("need at least one join factor")
    ring = GF(p)
    sigma_members: tuple[Submodule, ...] = ()
    if sigma is not None and sigma.members:
        if sigma.ring != ring or sigma.ambient != n:
            raise ComplexError("relative collection lives in the wrong ambient space")
        sigma_members = sigma.members
    mask, test = _membership_test(ring, n, sigma_members)
    if sigma_members and not test(0):
        raise ComplexError("relative collection must itself have a common basis")

    subs = all_subspaces(n, p, 1, n - 1) if n >= 1 else []
    # Splitting pairs are only vertices of slots a..a+b-1.
    pairs = [
        (x, y) for x in subs for y in subs if x.rank + y.rank == n and (x & y).is_zero
    ] if b else []
    # A single factor is a subcomplex of the flag or splitting complex
    # itself, so its vertices stay untagged and directly comparable.
    tagged = a + b > 1
    labels: list = []
    for slot in range(a):
        labels.extend(((slot, s) if tagged else s) for s in sorted(subs, key=label_key))
    for slot in range(a, a + b):
        labels.extend(((slot, pq) if tagged else pq) for pq in sorted(pairs, key=label_key))
    if len(labels) > max_vertices:
        raise CapExceeded(f"{len(labels)} vertices exceeds the cap {max_vertices}")
    mask_of = [mask(label_members(lbl)) for lbl in labels]

    def _slot_payload(i: int):
        return labels[i] if not tagged else labels[i][1]

    def _slot_index(i: int) -> int:
        return labels[i][0] if tagged else 0

    def slot_compatible(i: int, j: int) -> bool:
        si, pi = _slot_index(i), _slot_payload(i)
        sj, pj = _slot_index(j), _slot_payload(j)
        if si != sj:
            return True
        if si < a:
            return pi != pj and (contains(pi, pj) or contains(pj, pi))
        return _st_less(pi, pj) or _st_less(pj, pi)

    def edge(i: int, j: int) -> bool:
        return slot_compatible(i, j) and test(mask_of[i] | mask_of[j])

    def accept(simplex: tuple[int, ...]) -> bool:
        if len(simplex) == 2:
            return True
        m = 0
        for i in simplex:
            m |= mask_of[i]
        return test(m)

    return _clique_complex(labels, edge, accept, max_simplices=max_simplices,
                           max_dim=max_dim)


def is_simplex_over_Z(members: Collection) -> bool:
    """Membership query for the common basis complex over the integers,
    where the vertex set is infinite and only queries are supported.
    Members must be split (the collection constructor enforces this)."""
    if members.ring.is_field:
        raise ComplexError("use the field constructors for finite fields")
    return has_cbp_ie(members)


def intersect_complexes(complexes: Sequence[SimplicialComplex]) -> SimplicialComplex:
    """Intersection as sets of label simplices."""
    if not complexes:
        raise ComplexError("need at least one complex")
    common = None
    for k in complexes:
        label_simps = {k.label_simplex(s) for s in k.simplex_set()}
        common = label_simps if common is None else common & label_simps
    return from_label_simplices(common)


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
        if t not in x.simplex_set():
            raise MorseHypothesisViolated("i", t)
    y_simplices = {
        t for t in x.simplex_set()
        if not any(f in s_set for f in _faces_of(t))
    }
    y = x.restrict(y_simplices)
    if expected_subcomplex is not None:
        expected = expected_subcomplex
        if expected.vertices != x.vertices:
            if not expected.is_subcomplex_of(x):
                raise MorseHypothesisViolated("i", "claimed subcomplex is not inside the complex")
            expected = x.restrict(
                tuple(sorted(x.index_of(lbl) for lbl in expected.label_simplex(t)))
                for t in expected.simplex_set()
            )
        if expected.simplex_set() != y_simplices:
            diff = expected.simplex_set() ^ y_simplices
            raise MorseHypothesisViolated("i", sorted(diff)[:3])
    pairs = sorted(s_set)
    for i, t1 in enumerate(pairs):
        for t2 in pairs[i + 1:]:
            union = tuple(sorted(set(t1) | set(t2)))
            if union in x.simplex_set():
                raise MorseHypothesisViolated("ii", (t1, t2))
    links = {t: x.link(t) for t in pairs}
    return MorseInstance(x, s_set, y, links)


def _faces_of(simplex: tuple[int, ...]):
    from itertools import combinations

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
    candidates = sorted(x.simplex_set(), key=lambda t: (len(t), t))
    rng.shuffle(candidates)
    chosen: list[tuple[int, ...]] = []
    want = rng.randint(1, 3)
    for cand in candidates:
        ok = True
        for prev in chosen:
            union = tuple(sorted(set(prev) | set(cand)))
            if union in x.simplex_set():
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
    for s in sorted(k.simplex_set(), key=lambda t: (len(t), t)):
        lines.append(" ".join(str(i) for i in s))
    return "\n".join(lines) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    lines = [ln.rstrip("\n") for ln in text.strip().splitlines()]
    if not lines or not lines[0].startswith("#vertices "):
        raise ComplexError("missing #vertices header")
    nverts = int(lines[0].split()[1])
    vertices = [parse_label(ln) for ln in lines[1 : 1 + nverts]]
    simplices = [tuple(int(x) for x in ln.split()) for ln in lines[1 + nverts:] if ln.strip()]
    return SimplicialComplex(vertices, simplices)
