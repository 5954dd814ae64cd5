"""Based simplicial-set models of the higher buildings.

`d_model(a, b, n, p)` materializes the finitely many nondegenerate,
non-basepoint simplices of the diagonal of the based multisimplicial set
with `a` lattice factors and `b` splitting factors over `F_p^n`:

* a lattice factor in degree `p` is a weakly increasing flag
  ``0 = V_0 <= ... <= V_p = F_p^n``;
* a splitting factor is a tuple of `p` middle parts (zeros allowed) whose
  internal direct sum is `F_p^n`, the two pinned outer parts being zero;
* all constituent submodules jointly have a common basis;
* nondegeneracy is *joint*: at every step some factor moves (a flag grows
  strictly, or a splitting part is nonzero).

Faces act factorwise (delete a flag entry, merge adjacent splitting parts);
a face that breaks a pinning lands on the basepoint.  Normalized chains over
these simplices compute the reduced homology of the model; the comparison
with the suspended higher buildings is :func:`check_suspension`.

The boundary of a simplex is the signed sum of its inner faces, with no
degeneracy filter.  Proof sketch: position k of a degree-d simplex is
active in a flag factor iff ``flag[k] != flag[k+1]``, and in a splitting
factor iff ``parts[k] != 0``.  Face 0 (face d) survives a factor only if
position 0 (position d-1) is inactive there, so on a nondegenerate simplex
it is the basepoint.  An inner face i merges positions i-1 and i into one
that is active iff either was, so the face is nondegenerate.

A simplex is stored as a code: per factor, the id of its core in
``_l_cores(n, p)`` (flag) or ``_sl_cores(n, p)`` (splitting) and the mask
of its active positions, laid out as the tuple of core ids followed by the
tuple of masks.  Entry j of a flag is ``(0, core..., F_p^n)[L]`` and
nonzero part k is ``core[L]``, where L counts the mask bits below j (below
k).  Enumeration, order, index and boundary all run on codes; the
``Submodule`` simplices are decoded only where they are read.  Inner face i
acts on a factor's code as follows, with ``L`` the number of mask bits
below i-1:

* the new mask ORs bits i-1 and i into bit i-1 and shifts the higher bits
  down one place, which is the activity of the merged position above;
* if only one of the two bits is set, the two positions carry one new
  value (flag) or one nonzero part (splitting), so deleting entry i of the
  flag, or adding a zero part to a part, leaves the core as it is;
* if both are set, entry i of the flag is ``core[L]``, strictly between its
  neighbours, and deleting it drops level L of the core
  (``_flag_drops``); parts i-1 and i are ``core[L]`` and ``core[L+1]``,
  and the face replaces them by their sum, which merges parts L and L+1 of
  the core (``_split_merges``).  Both results are again cores of the
  tables: a shorter strict chain, a shorter decomposition.

So the code's face decodes to :meth:`SemiSimplicialModel.face` of the
decoded simplex.

Degeneracies act on codes too.  Degeneracy j repeats entry j of a flag and
puts a zero part at position j of a splitting, so position j becomes
inactive and the positions at and above j move up one: it inserts a 0 bit
at position j of every factor's mask and leaves the cores alone.  The
degeneracy that spreads a degree-r code over more steps with its steps at
``positions`` therefore keeps the cores and has the mask
:func:`_embed` ``(mask, positions)``.

The GL action moves cores.  An injective linear map fixes 0 and keeps
ranks, strict inclusions and internal direct sums, so it sends a strict
chain to a strict chain and a decomposition of a space to one of its image:
a core to a core (:func:`_move_cores`).  It keeps which entries are equal
and which parts are zero, so it keeps every mask.

The monoid structure is materialized at chain level by
:func:`mu_chain`: the Eilenberg-Zilber shuffle map followed by the
factorwise internal-direct-sum multiplication, with the two factors embedded
as complementary coordinate blocks.  :func:`check_bar_model` exhibits the
simplex-level bijection between the two-sided bar construction on a model
and the model with one more splitting factor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product

from .cbp import Collection, has_cbp_ie
from .complexes import DEFAULT_MAX_SIMPLICES, DEFAULT_MAX_VERTICES, higher_tits
from .exactlin import (
    GF,
    Ring,
    Submodule,
    all_subspaces,
    ambient_module,
    span,
    zero_module,
)
from .homology import ChainComplex, HomologyProfile, _compose, assemble, chains, homology


class ModelError(Exception):
    pass


DEFAULT_MODEL_CAP = 2_000_000


# ---------------------------------------------------------------------------
# Factor simplices.
# ---------------------------------------------------------------------------


def _face_flag(flag: tuple[Submodule, ...], i: int) -> tuple[Submodule, ...] | None:
    """The i-th face, or None where it breaks the pinning to zero at the
    bottom or to the flag's own top; the top is kept iff its rank is, the
    flag being weakly increasing."""
    new = flag[:i] + flag[i + 1:]
    if not new[0].is_zero or new[-1].rank != flag[-1].rank:
        return None
    return new


def _face_parts(parts: tuple[Submodule, ...], i: int) -> tuple[Submodule, ...] | None:
    p = len(parts)
    if i == 0:
        return parts[1:] if parts[0].is_zero else None
    if i == p:
        return parts[:-1] if parts[p - 1].is_zero else None
    merged = parts[i - 1] + parts[i]
    return parts[: i - 1] + (merged,) + parts[i + 1:]


ModelSimplex = tuple  # tuple over factors; each factor a tuple of Submodule


class _DecodedDegree(Sequence):
    """The simplices of one degree of a model, decoded from their codes when
    an item is first read; the length is the number of codes."""

    def __init__(self, codes: tuple, degree: int, spread, decoded: dict):
        self._codes = codes
        self._degree = degree
        self._spread = spread
        self._decoded = decoded

    def __len__(self) -> int:
        return len(self._codes)

    def _simplices(self) -> tuple[ModelSimplex, ...]:
        simps = self._decoded.get(self._degree)
        if simps is None:
            simps = self._decoded[self._degree] = _decode(self._codes, self._degree, self._spread)
        return simps

    def __getitem__(self, i):
        return self._simplices()[i]

    def __iter__(self):
        return iter(self._simplices())


@dataclass(frozen=True, eq=False)
class SemiSimplicialModel:
    """Degreewise-finite collection of the nondegenerate non-basepoint
    diagonal simplices, with face maps and normalized chains.  ``codes``
    holds the simplices as integer codes, put in deterministic order at
    construction; ``simplices`` and ``index`` are their ``Submodule`` view,
    decoded when first read."""

    a: int
    b: int
    n: int
    ring: Ring
    codes: dict  # degree -> codes (core ids, then masks)

    def __post_init__(self):
        spread = _spreader(self.a, self.b, self.n, self.ring.p)
        object.__setattr__(self, "codes", {
            d: _sorted_codes(codes, d, spread) for d, codes in sorted(self.codes.items())})
        decoded: dict[int, tuple[ModelSimplex, ...]] = {}
        object.__setattr__(self, "_decoded", decoded)
        object.__setattr__(self, "simplices", {
            d: _DecodedDegree(codes, d, spread, decoded) for d, codes in self.codes.items()})
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_chains", None)

    @property
    def factors(self) -> int:
        return self.a + self.b

    @property
    def index(self) -> dict:
        """Degree -> simplex -> position."""
        if self._index is None:
            object.__setattr__(self, "_index", {
                d: {s: i for i, s in enumerate(simps)} for d, simps in self.simplices.items()})
        return self._index

    def face(self, simplex: ModelSimplex, i: int) -> ModelSimplex | None:
        """The i-th face, or None for the basepoint."""
        out = []
        for f in range(self.a):
            nf = _face_flag(simplex[f], i)
            if nf is None:
                return None
            out.append(nf)
        for f in range(self.a, self.factors):
            np_ = _face_parts(simplex[f], i)
            if np_ is None:
                return None
            out.append(np_)
        return tuple(out)

    def chain_complex(self) -> ChainComplex:
        if self._chains is None:
            n, p = self.n, self.ring.p
            flags = _flag_drops(n, p) if self.a else ()
            splits = _split_merges(n, p) if self.b else ()
            tables = [flags] * self.a + [splits] * self.b
            index = {d: {c: i for i, c in enumerate(codes)} for d, codes in self.codes.items()}
            object.__setattr__(self, "_chains", assemble(index, _inner_faces(tables)))
        return self._chains

    def homology(self) -> HomologyProfile:
        return homology(self.chain_complex())

    @staticmethod
    def members_of(simplex: ModelSimplex) -> tuple[Submodule, ...]:
        """The distinct proper nonzero constituents, factor by factor; also
        of a tuple of per-factor cores."""
        return tuple(dict.fromkeys(
            v for factor in simplex for v in factor if not v.is_zero and not v.is_ambient))


# ---------------------------------------------------------------------------
# Enumeration: cores (strict data) spread over step positions.
# ---------------------------------------------------------------------------


# Distinct (n, p) keys of the core and face tables: at most 8 over the test
# suite, 3 over tor(3, 2).
_CORE_CACHE_SIZE = 16


@lru_cache(maxsize=_CORE_CACHE_SIZE)
def _l_cores(n: int, p: int) -> tuple[tuple[Submodule, ...], ...]:
    """Strict chains of proper nonzero subspaces (the intermediate values of
    a pinned flag); the empty chain is the direct jump."""
    subs = all_subspaces(n, p, 1, n - 1)
    chains_out: list[tuple[Submodule, ...]] = [()]
    stack: list[tuple[Submodule, ...]] = [(s,) for s in subs]
    while stack:
        chain = stack.pop()
        chains_out.append(chain)
        top = chain[-1]
        for s in subs:
            if s.rank > top.rank and top <= s:
                stack.append(chain + (s,))
    chains_out.sort(key=lambda ch: (len(ch), tuple(s.sort_key() for s in ch)))
    return tuple(chains_out)


def ordered_decompositions(n: int, p: int, length: int) -> list[tuple[Submodule, ...]]:
    """Ordered tuples of `length` nonzero subspaces whose internal direct sum
    is F_p^n."""
    if n == 0:
        return [()] if length == 0 else []
    if length == 0:
        return []
    target = ambient_module(GF(p), n)
    subs = all_subspaces(n, p, 1)
    out: list[tuple[Submodule, ...]] = []

    def rec(remaining: Submodule, parts_left: int, acc: tuple[Submodule, ...]):
        if parts_left == 1:
            out.append(acc + (remaining,))
            return
        for s in subs:
            if s.rank <= remaining.rank - (parts_left - 1) and s <= remaining:
                rest_rank = remaining.rank - s.rank
                for comp in subs:
                    if comp.rank == rest_rank and comp <= remaining and (s & comp).is_zero:
                        rec(comp, parts_left - 1, acc + (s,))

    rec(target, length, ())
    return out


@lru_cache(maxsize=_CORE_CACHE_SIZE)
def _sl_cores(n: int, p: int) -> tuple[tuple[Submodule, ...], ...]:
    """Ordered decompositions into nonzero parts; the zero space has only
    the empty one."""
    cores: list[tuple[Submodule, ...]] = []
    for s in range(n + 1):
        cores.extend(ordered_decompositions(n, p, s))
    cores.sort(key=lambda ch: (len(ch), tuple(s.sort_key() for s in ch)))
    return tuple(cores)


@lru_cache(maxsize=_CORE_CACHE_SIZE)
def _flag_drops(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Per flag core id, per level k: the id of the core without entry k."""
    cores = _l_cores(n, p)
    ids = {core: c for c, core in enumerate(cores)}
    return tuple(tuple(ids[core[:k] + core[k + 1:]] for k in range(len(core))) for core in cores)


@lru_cache(maxsize=_CORE_CACHE_SIZE)
def _split_merges(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Per splitting core id, per k: the id of the core with parts k and k+1
    merged into their sum."""
    cores = _sl_cores(n, p)
    ids = {core: c for c, core in enumerate(cores)}
    return tuple(
        tuple(ids[core[:k] + (core[k] + core[k + 1],) + core[k + 2:]] for k in range(len(core) - 1))
        for core in cores
    )


def _spread_flag(core: tuple[Submodule, ...], mask: int, degree: int,
                 zero: Submodule, full: Submodule) -> tuple[Submodule, ...]:
    values = (zero,) + core + (full,)
    return tuple(values[(mask & ((1 << j) - 1)).bit_count()] for j in range(degree + 1))


def _spread_parts(core: tuple[Submodule, ...], mask: int, degree: int,
                  zero: Submodule) -> tuple[Submodule, ...]:
    return tuple(core[(mask & ((1 << k) - 1)).bit_count()] if mask >> k & 1 else zero
                 for k in range(degree))


def _spreader(a: int, b: int, n: int, p: int, into: Submodule | None = None):
    """The entries of factor f spread from its core id and position mask in
    a given degree.  With ``into``, a subspace of rank n, the cores are
    first moved into it along its canonical basis, and it is every flag's
    top."""
    ring = GF(p)
    flags = _l_cores(n, p) if a else ()
    splits = _sl_cores(n, p) if b else ()
    if into is None:
        zero, full = zero_module(ring, n), ambient_module(ring, n)
    else:
        zero, full = zero_module(ring, into.ambient), into
        flags, splits = (_move_cores(cores, into.basis, ring, into.ambient) for cores in (flags, splits))

    def spread(f: int, core: int, mask: int, degree: int) -> tuple[Submodule, ...]:
        if f < a:
            return _spread_flag(flags[core], mask, degree, zero, full)
        return _spread_parts(splits[core], mask, degree, zero)

    return spread


def _embed(mask: int, positions: Sequence[int]) -> int:
    """The mask with bit k moved to bit positions[k]."""
    return sum(1 << q for k, q in enumerate(positions) if mask >> k & 1)


def _spread_code(spread, code: tuple, positions: Sequence[int], degree: int) -> ModelSimplex:
    """The simplex of ``code`` spread over ``degree`` steps with its own
    steps at ``positions``: its degeneracy at every other step."""
    factors = len(code) // 2
    return tuple(spread(f, code[f], _embed(code[factors + f], positions), degree) for f in range(factors))


def _move_cores(cores: Sequence[tuple[Submodule, ...]], g_rows, ring: Ring,
                n: int) -> tuple[tuple[Submodule, ...], ...]:
    """The cores moved along the row action v -> v @ g_rows of an injective
    map into F_p^n, each distinct subspace once; see the module docstring."""
    moved = {s: span(ring, n, [[sum(c * g[j] for c, g in zip(row, g_rows)) for j in range(n)]
                               for row in s.basis])
             for s in {s for core in cores for s in core}}
    return tuple(tuple(moved[s] for s in core) for core in cores)


def _decode(codes: tuple, degree: int, spread) -> tuple[ModelSimplex, ...]:
    factors = len(codes[0]) // 2
    entries: dict[tuple[int, int, int], tuple[Submodule, ...]] = {}
    out = []
    for code in codes:
        simplex = []
        for f in range(factors):
            key = (f, code[f], code[factors + f])
            factor = entries.get(key)
            if factor is None:
                factor = entries[key] = spread(f, code[f], code[factors + f], degree)
            simplex.append(factor)
        out.append(tuple(simplex))
    return tuple(out)


def _sorted_codes(codes: Sequence, degree: int, spread) -> tuple:
    """The codes in the order of their simplices' keys, the tuple over
    factors of the entries' flattened bases: each factor's distinct
    (core, mask) pairs are ranked by the key of their spread entries, and a
    code is sorted by its tuple of ranks.  Distinct subspaces have distinct
    flattened bases, so the ranks order the codes as the keys would."""
    factors = len(codes[0]) // 2
    ranks = []
    for f in range(factors):
        pairs = sorted({(code[f], code[factors + f]) for code in codes},
                       key=lambda cm: tuple(s.sort_key() for s in spread(f, *cm, degree)))
        ranks.append({cm: r for r, cm in enumerate(pairs)})
    return tuple(sorted(codes, key=lambda code: tuple(
        rank[code[f], code[factors + f]] for f, rank in enumerate(ranks))))


def _inner_faces(tables: list):
    """Faces 1..d-1 of a code, given each factor's table of core faces
    (``_flag_drops`` or ``_split_merges``); see the module docstring."""
    factors = len(tables)

    def faces(d: int, code: tuple):
        for i in range(1, d):
            below = (1 << (i - 1)) - 1
            face = list(code)
            for f, table in enumerate(tables):
                mask = code[factors + f]
                pair = mask >> (i - 1) & 3
                if pair == 3:
                    face[f] = table[code[f]][(mask & below).bit_count()]
                face[factors + f] = (mask & below) | (pair != 0) << (i - 1) | mask >> (i + 1) << i
            yield tuple(face), -1 if i & 1 else 1

    return faces


def _coverings(sizes: Sequence[int], degree: int):
    """Tuples of position masks with the given bit counts covering
    range(degree)."""
    full_mask = (1 << degree) - 1
    masks = {size: [sum(1 << i for i in subset) for subset in combinations(range(degree), size)]
             for size in set(sizes)}

    def rec(f: int, covered: int):
        if f == len(sizes):
            if covered == full_mask:
                yield ()
            return
        tail_capacity = sum(sizes[f + 1:])
        for mask in masks[sizes[f]]:
            uncovered_after = (full_mask & ~(covered | mask)).bit_count()
            if uncovered_after > tail_capacity:
                continue
            for rest in rec(f + 1, covered | mask):
                yield (mask,) + rest

    yield from rec(0, 0)


def d_model(a: int, b: int, n: int, p: int, max_simplices: int = DEFAULT_MODEL_CAP) -> SemiSimplicialModel:
    """Build the full nondegenerate-simplex model with `a` flag factors and
    `b` splitting factors over F_p^n.  The rank-0 model is the unit: one
    simplex in degree 0."""
    if a < 0 or b < 0 or a + b < 1:
        raise ModelError("need at least one factor")
    if n < 0:
        raise ModelError(f"rank {n} is negative")
    ring = GF(p)
    if n == 0:
        return SemiSimplicialModel(a, b, n, ring, {0: ((0,) * (2 * (a + b)),)})
    factor_cores = [_l_cores(n, p) for _ in range(a)] + [_sl_cores(n, p) for _ in range(b)]

    by_degree: dict[int, list[tuple[int, ...]]] = {}
    coverings: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}
    count = 0
    for ids in product(*(range(len(cores)) for cores in factor_cores)):
        combo = [cores[c] for cores, c in zip(factor_cores, ids)]
        sizes = tuple(len(core) + 1 for core in combo[:a]) + tuple(len(core) for core in combo[a:])
        members = SemiSimplicialModel.members_of(combo)
        if members and not has_cbp_ie(Collection(ring, n, members)):
            continue
        for degree in range(max(sizes), sum(sizes) + 1):
            if (sizes, degree) not in coverings:
                # one covering past the cap already makes the loop below raise
                coverings[sizes, degree] = list(islice(_coverings(sizes, degree), max_simplices + 1 - count))
            for masks in coverings[sizes, degree]:
                by_degree.setdefault(degree, []).append(ids + masks)
                count += 1
                if count > max_simplices:
                    raise ModelError(f"model exceeds {max_simplices} simplices")
    return SemiSimplicialModel(a, b, n, ring, by_degree)


# Distinct keys: 9 over the test suite, 3 over tor(3, 2).
@lru_cache(maxsize=16)
def _model(a: int, b: int, n: int, p: int) -> SemiSimplicialModel:
    """The one shared model of each small (a, b, n, p): the Steinberg
    modules, the shuffle product and the bar-model slots all read it.  It
    calls ``d_model`` through the module, so a traced run sees each build;
    one-off large models call ``d_model`` directly and are freed."""
    return d_model(a, b, n, p)


def dump_model(model: SemiSimplicialModel) -> str:
    """Per degree, one line per nondegenerate simplex listing the canonical
    basis rows of its constituent submodules."""
    lines = [f"#model a={model.a} b={model.b} n={model.n} ring={model.ring}"]
    for d in sorted(model.simplices):
        lines.append(f"#degree {d} count {len(model.simplices[d])}")
        for s in model.simplices[d]:
            factor_strs = []
            for factor in s:
                entry_strs = []
                for sub in factor:
                    flat = ",".join(str(x) for row in sub.basis for x in row)
                    entry_strs.append(f"[{flat}]" if flat else "[]")
                factor_strs.append(" ".join(entry_strs))
            lines.append(" | ".join(factor_strs))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Suspension comparison.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuspensionReport:
    a: int
    b: int
    n: int
    p: int
    ok: bool
    building_profile: HomologyProfile
    model_profile: HomologyProfile


def check_suspension(a: int, b: int, n: int, p: int,
                     max_vertices: int = DEFAULT_MAX_VERTICES,
                     max_simplices: int = DEFAULT_MAX_SIMPLICES,
                     max_dim: int | None = None) -> SuspensionReport:
    """Compare the reduced homology of the higher building with the model's
    homology shifted down by a+b+1 in every degree.  The caps go to the
    building; ``max_simplices`` bounds the model too.  A building cut at
    ``max_dim`` is certified only below it, and a model degree beyond fails."""
    if n < 1:
        raise ModelError("suspension comparison needs positive rank")
    building = homology(chains(higher_tits(a, b, n, p, max_vertices=max_vertices,
                                           max_simplices=max_simplices, max_dim=max_dim)),
                        up_to_degree=None if max_dim is None else max_dim - 1)
    model_prof = d_model(a, b, n, p, max_simplices).homology()
    ok = model_prof == building.shifted(a + b + 1)
    return SuspensionReport(a, b, n, p, ok, building, model_prof)


# ---------------------------------------------------------------------------
# Tensor complexes and the shuffle product.
# ---------------------------------------------------------------------------


def tensor_chain_complex(cx: ChainComplex, cy: ChainComplex) -> tuple[ChainComplex, dict]:
    """Tensor product complex with basis pairs ordered by (left degree, left
    index, right index); returns the complex and the pair index maps."""
    pairs: dict[int, list[tuple[int, int, int]]] = {}
    for i in cx.degrees():
        for j in cy.degrees():
            pairs.setdefault(i + j, []).extend(
                (i, xi, yj) for xi in range(cx.size(i)) for yj in range(cy.size(j))
            )
    for d in pairs:
        pairs[d].sort()
    index = {d: {t: k for k, t in enumerate(lst)} for d, lst in pairs.items()}

    def faces(d: int, pair: tuple[int, int, int]):
        i, xi, yj = pair
        for r, v in cx.boundaries.get(i, {}).get(xi, {}).items():
            yield (i - 1, r, yj), v
        sign = (-1) ** i
        for r, v in cy.boundaries.get(d - i, {}).get(yj, {}).items():
            yield (i, xi, r), sign * v

    return assemble(index, faces), index


def _shuffles(p: int, q: int):
    """(alpha, beta, sign) with alpha the left factor's step positions."""
    for alpha in combinations(range(p + q), p):
        beta = tuple(i for i in range(p + q) if i not in alpha)
        inversions = sum(1 for a in alpha for b in beta if a > b)
        yield alpha, beta, (-1) ** inversions


def _combine(x: ModelSimplex, y: ModelSimplex, factors: int, m: int, n: int) -> ModelSimplex:
    out = []
    for f in range(factors):
        xs, ys = x[f], y[f]
        assert len(xs) == len(ys)
        combined = tuple(
            _block_sum(xe, ye, m, n) for xe, ye in zip(xs, ys)
        )
        out.append(combined)
    return tuple(out)


def _block_sum(left: Submodule, right: Submodule, m: int, n: int) -> Submodule:
    rows = [tuple(row) + (0,) * n for row in left.basis]
    rows += [(0,) * m + tuple(row) for row in right.basis]
    return span(left.ring, m + n, rows)


@dataclass(frozen=True, eq=False)
class BasedChainMap:
    """A degreewise integer matrix between chain complexes; commutation with
    the boundaries is asserted at construction."""

    domain: ChainComplex
    codomain: ChainComplex
    matrices: dict  # degree -> {domain col: {codomain row: value}}, as boundaries are stored

    def __post_init__(self):
        for d, mat in self.matrices.items():
            # codomain boundary . map == map . domain boundary
            lhs = _compose(self.codomain.boundaries.get(d, {}), mat)
            rhs = _compose(self.matrices.get(d - 1, {}), self.domain.boundaries.get(d, {}))
            if lhs != rhs:
                raise ModelError(f"chain map does not commute with boundaries in degree {d}")

    def apply(self, degree: int, vector: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        mat = self.matrices.get(degree, {})
        for c, x in vector.items():
            if x:
                for r, v in mat.get(c, {}).items():
                    out[r] = out.get(r, 0) + v * x
        return {r: v for r, v in out.items() if v}


def mu_chain(a: int, b: int, m: int, n: int, p: int) -> tuple[BasedChainMap, dict, SemiSimplicialModel]:
    """The chain-level product: Eilenberg-Zilber shuffles followed by the
    factorwise internal direct sum, the left factor embedded in the first
    `m` coordinates and the right factor in the last `n`.

    Returns the chain map from the tensor complex of the two models to the
    rank-(m+n) model's complex, the tensor pair index, and the target model.
    """
    mx, my, mz = _model(a, b, m, p), _model(a, b, n, p), _model(a, b, m + n, p)
    cx, cy, cz = mx.chain_complex(), my.chain_complex(), mz.chain_complex()
    tensor, pair_index = tensor_chain_complex(cx, cy)
    spread_x, spread_y = _spreader(a, b, m, p), _spreader(a, b, n, p)
    factors = a + b

    matrices: dict[int, dict[int, dict[int, int]]] = {}
    for d, idx in pair_index.items():
        columns: dict[int, dict[int, int]] = {}
        target_index = mz.index.get(d, {})
        for (i, xi, yj), col in idx.items():
            x, y = mx.codes[i][xi], my.codes[d - i][yj]
            acc: dict[int, int] = {}
            for alpha, beta, sign in _shuffles(i, d - i):
                xs = _spread_code(spread_x, x, alpha, d)
                ys = _spread_code(spread_y, y, beta, d)
                combined = _combine(xs, ys, factors, m, n)
                row = target_index.get(combined)
                if row is None:
                    raise ModelError("shuffle product left the target model")
                acc[row] = acc.get(row, 0) + sign
            column = {r: v for r, v in acc.items() if v}
            if column:
                columns[col] = column
        if columns:
            matrices[d] = columns
    return BasedChainMap(tensor, cz, matrices), pair_index, mz


# ---------------------------------------------------------------------------
# The bar-model bijection.
# ---------------------------------------------------------------------------


# Bar and internal degrees both run 1..BAR_CUTOFF.
BAR_CUTOFF = 3


@dataclass(frozen=True)
class BarModelReport:
    a: int
    b: int
    n: int
    p: int
    cutoff: int
    ok: bool
    counts: dict  # (internal degree, bar degree) -> (lhs count, rhs count)
    faces_checked: int


def check_bar_model(a: int, b: int, n: int, p: int,
                    max_simplices: int = DEFAULT_MODEL_CAP) -> BarModelReport:
    """Enumerate the nondegenerate bisimplices of the two-sided bar
    construction on the diagonal model in bidegrees up to BAR_CUTOFF and
    exhibit the bijection with the model having one extra splitting factor
    (the bar direction becomes the new splitting slot).  Counts must agree
    exactly and faces in both directions must correspond."""
    ring = GF(p)
    factors = a + b
    base = d_model(a, b, n, p, max_simplices)
    block_models: dict[tuple, tuple] = {}

    def slot_elements(part: Submodule, degree: int):
        """All (possibly degenerate) non-basepoint degree-`degree` elements
        of the diagonal model over the subspace `part`: the codes of the
        standard model (no larger than ``base``, which was built under the
        cap) with their cores moved into `part`, spread over active
        position sets."""
        key = part.basis
        if key not in block_models:
            block_models[key] = (_model(a, b, part.rank, p).codes, _spreader(a, b, part.rank, p, part))
        codes, spread = block_models[key]
        out = []
        for r, degree_codes in codes.items():
            if r > degree:
                continue
            for code in degree_codes:
                for positions in combinations(range(degree), r):
                    out.append((_spread_code(spread, code, positions, degree), positions))
        return out

    def bar_elements(p_int: int, q: int):
        """LHS: decomposition + per-slot elements, jointly nondegenerate."""
        out = []
        for dec in ordered_decompositions(n, p, q):
            slots = [slot_elements(part, p_int) for part in dec]
            full_mask = (1 << p_int) - 1
            for choice in product(*slots):
                mask = 0
                for elt, positions in choice:
                    for i in positions:
                        mask |= 1 << i
                if mask == full_mask:
                    out.append((dec, tuple(e for e, _ in choice)))
        return out

    def rhs_elements(p_int: int, q: int):
        out = []
        decs = ordered_decompositions(n, p, q)
        for w in base.simplices.get(p_int, ()):
            mems = base.members_of(w)
            for dec in decs:
                all_mems = tuple(dict.fromkeys(mems + tuple(d for d in dec if not d.is_ambient)))
                if not all_mems or has_cbp_ie(Collection(ring, n, all_mems)):
                    out.append((w, dec))
        return out

    counts = {}
    ok = True
    faces_checked = 0
    lhs_tables: dict[tuple[int, int], dict] = {}
    for p_int in range(1, BAR_CUTOFF + 1):
        for q in range(1, BAR_CUTOFF + 1):
            lhs = bar_elements(p_int, q)
            rhs = rhs_elements(p_int, q)
            mapped = {}
            for dec, elts in lhs:
                image = (_combine_bar(elts, ring, n, factors), dec)
                if image in mapped:
                    ok = False
                mapped[image] = (dec, elts)
            counts[(p_int, q)] = (len(lhs), len(rhs))
            if len(lhs) != len(rhs) or set(mapped) != set(rhs):
                ok = False
            lhs_tables[(p_int, q)] = mapped

    # Face correspondence.  An inner bar face merges adjacent decomposition
    # parts and multiplies the elements they carry; it must be the element,
    # enumerated one bar degree down, that the bijection sends to the same
    # simplex with the extra splitting slot's parts merged.  Internal faces
    # act on every slot element on one side and on the original factors on
    # the other.
    for (p_int, q), mapped in lhs_tables.items():
        for (image, _), (dec, elts) in mapped.items():
            for j in range(1, q):
                merged_dec = dec[: j - 1] + (dec[j - 1] + dec[j],) + dec[j + 1:]
                merged = _combine_bar(elts[j - 1: j + 1], ring, n, factors)
                face = (merged_dec, elts[: j - 1] + (merged,) + elts[j + 1:])
                if lhs_tables[(p_int, q - 1)].get((image, merged_dec)) != face:
                    ok = False
                faces_checked += 1
            for i in range(p_int + 1):
                lf = tuple(base.face(e, i) for e in elts)
                image_of_lf = None if None in lf else _combine_bar(lf, ring, n, factors)
                if image_of_lf != base.face(image, i):
                    ok = False
                faces_checked += 1
    return BarModelReport(a, b, n, p, BAR_CUTOFF, ok, counts, faces_checked)


def _combine_bar(elts, ring: Ring, n: int, factors: int) -> ModelSimplex:
    """Multiply the elements carried by the bar slots: factorwise and
    entrywise internal sums of their constituents."""
    factors_out = []
    for f in range(factors):
        cols = [e[f] for e in elts]
        length = len(cols[0])
        combined = []
        for r in range(length):
            rows: list[tuple[int, ...]] = []
            for colsimp in cols:
                rows.extend(colsimp[r].basis)
            combined.append(span(ring, n, rows))
        factors_out.append(tuple(combined))
    return tuple(factors_out)
