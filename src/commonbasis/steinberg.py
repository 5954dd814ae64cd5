"""The Steinberg monoid, its bar complex, and Koszulness checks.

`St_n(F_p)` is realized as the top reduced homology of the rank-n flag model
(one lattice factor), which is free.  Its cycles are kept as a canonical
submodule of Z^(top simplices), the kernel of the top boundary in row HNF,
and ``exactlin.coordinates_in`` expresses any top-degree cycle in that
basis.  The
multiplication pushes tensor products of cycles through the chain-level
shuffle product and transports arbitrary internal summands to standard
coordinate blocks along their canonical bases.

The graded bar complex in a fixed rank grading `n` has degree-q basis the
ordered internal direct-sum decompositions of `F_p^n` into q nonzero
summands, each summand carrying a Steinberg basis index; the differential
multiplies adjacent factors.  Outer bar faces vanish on the normalized
complex because the monoid is connected.

`tor` computes the homology of that complex and cross-checks it two
independent ways: against the shifted homology of the two-factor flag model,
and in the top degree against the join of two copies of the flag complex.
Any disagreement or any torsion is an error, never coerced away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from .complexes import join, tits
from .exactlin import (
    GF,
    ZZ,
    Matrix,
    Submodule,
    coordinates_in,
    left_kernel,
    span,
)
from .homology import ChainComplex, HomologyProfile, assemble, chains, homology
from .simpmodel import (
    SemiSimplicialModel,
    _l_cores,
    _model,
    _move_cores,
    d_model,
    mu_chain,
    ordered_decompositions,
)


class SteinbergError(Exception):
    pass


ST_CAPS = {2: 3, 3: 3}


def st_rank_classical(n: int, p: int) -> int:
    """The classical rank of the degree-n Steinberg module over F_p,
    p^(n(n-1)/2).  Used only as a cross-check oracle and as the rank source
    above the homology caps, never as computed ground truth."""
    return p ** (n * (n - 1) // 2)


def gl_order(n: int, p: int) -> int:
    """Order of the group of invertible n x n matrices over F_p."""
    order = 1
    for i in range(n):
        order *= p**n - p**i
    return order


def decomposition_count(n: int, p: int, composition: Sequence[int]) -> int:
    """Number of ordered internal direct-sum decompositions of F_p^n with
    the given part ranks."""
    comp = tuple(composition)
    if any(c < 1 for c in comp) or sum(comp) != n:
        raise SteinbergError(f"composition {comp} does not sum to {n}")
    denom = 1
    for c in comp:
        denom *= gl_order(c, p)
    total = gl_order(n, p)
    assert total % denom == 0
    return total // denom


def compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered compositions of n into positive parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def bar_euler(n: int, p: int, rank_fn: Callable[[int], int] | None = None) -> int:
    """Euler characteristic of the graded bar complex at rank grading n:
    the alternating sum over bar degrees of the basis sizes."""
    if rank_fn is None:
        rank_fn = lambda m: st_rank_classical(m, p)
    total = 0
    for comp in compositions(n):
        size = decomposition_count(n, p, comp)
        for m in comp:
            size *= rank_fn(m)
        total += (-1) ** len(comp) * size
    return total


# ---------------------------------------------------------------------------
# Steinberg modules with exact cycle bases.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SteinbergModule:
    """Top homology of the rank-n flag model with a frozen cycle basis."""

    n: int
    p: int
    model: SemiSimplicialModel
    cycles: Submodule  # the top cycles over Z^top_size; basis rows in HNF

    @property
    def rank(self) -> int:
        return self.cycles.rank

    @property
    def top_size(self) -> int:
        return len(self.model.simplices.get(self.n, ()))

    def express(self, cycle: Sequence[int]) -> list[int]:
        """Coefficients of a top-degree cycle in the frozen basis."""
        coeffs = coordinates_in(self.cycles, cycle)
        if coeffs is None:
            raise SteinbergError("vector is not an integral combination of basis cycles")
        return coeffs


def st_module(n: int, p: int) -> SteinbergModule:
    """The degree-n Steinberg module over F_p: verified-free top homology of
    the one-factor flag model, with its integral cycle basis.  All lower
    homology must vanish and any torsion is an error."""
    if n > ST_CAPS.get(p, 0):
        raise SteinbergError(f"rank {n} over F_{p} is beyond the computed cap")
    return _st_module(n, p)


# ST_CAPS admits 8 keys (n, p).
@lru_cache(maxsize=8)
def _st_module(n: int, p: int) -> SteinbergModule:
    model = _model(1, 0, n, p)
    prof = model.homology()
    if prof.nonzero_degrees() != [n] or prof.has_torsion():
        raise SteinbergError(f"flag model homology is not concentrated and free: {prof}")
    cx = model.chain_complex()
    top, width = cx.size(n), cx.size(n - 1)
    # row c of the transposed boundary is column c of the boundary
    columns = cx.boundaries.get(n, {})
    rows = [[columns.get(c, {}).get(r, 0) for r in range(width)] for c in range(top)]
    cycles = span(ZZ, top, left_kernel(Matrix.from_rows(ZZ, rows, width)).entries)
    mod = SteinbergModule(n, p, model, cycles)
    if mod.rank != prof.betti(n):
        raise SteinbergError("cycle basis size disagrees with the betti number")
    return mod


# ---------------------------------------------------------------------------
# Multiplication.
# ---------------------------------------------------------------------------


# Distinct keys counted over the test suite: 6 block products and 317
# transport permutations; over tor(3, 2) alone 3 and 60, over
# bar_complex(3, 3) alone 3 and 243.
_BLOCK_PRODUCT_CACHE_SIZE = 16
_TRANSPORT_CACHE_SIZE = 1024


@lru_cache(maxsize=_BLOCK_PRODUCT_CACHE_SIZE)
def _block_product(a: int, b: int, p: int) -> dict[tuple[int, int], list[int]]:
    """For each Steinberg basis pair, the product cycle (as a vector over the
    top simplices of the rank-(a+b) one-factor model) with the two factors in
    standard complementary blocks."""
    chain_map, pair_index, mz = mu_chain(1, 0, a, b, p)
    sa, sb = st_module(a, p), st_module(b, p)
    out: dict[tuple[int, int], list[int]] = {}
    d = a + b
    idx = pair_index[d]
    size_z = mz.chain_complex().size(d)
    for i, za in enumerate(sa.cycles.basis):
        for j, zb in enumerate(sb.cycles.basis):
            vec: dict[int, int] = {}
            for xi, xv in enumerate(za):
                if not xv:
                    continue
                for yj, yv in enumerate(zb):
                    if yv:
                        vec[idx[(a, xi, yj)]] = xv * yv
            image = chain_map.apply(d, vec)
            dense = [0] * size_z
            for r, v in image.items():
                dense[r] = v
            out[(i, j)] = dense
    return out


def transport_rows(a_sub: Submodule, b_sub: Submodule,
                   total: Submodule) -> tuple[tuple[int, ...], ...]:
    """The change of coordinates comparing the block identification of
    A (+) B with the canonical basis of the sum ``total`` = A + B: row i is
    the i-th stacked basis row of A then B, written in that basis."""
    if total.rank != a_sub.rank + b_sub.rank:
        raise SteinbergError("summands are not independent")
    rows = []
    for row in list(a_sub.basis) + list(b_sub.basis):
        coords = coordinates_in(total, row)
        assert coords is not None
        rows.append(tuple(coords))
    return tuple(rows)


def st_multiply(a_sub: Submodule, x_coeffs: Sequence[int], b_sub: Submodule,
                y_coeffs: Sequence[int]) -> tuple[Submodule, list[int]]:
    """Product St(A) x St(B) -> St(A (+) B): bilinear push of the cycle
    tensor through the chain-level shuffle product, transported along the
    canonical bases.  Returns the sum and the coefficient vector in the
    Steinberg basis of its rank."""
    p = a_sub.ring.p
    a, b = a_sub.rank, b_sub.rank
    target = st_module(a + b, p)
    total = a_sub + b_sub
    if a == 0:
        return total, list(y_coeffs)
    if b == 0:
        return total, list(x_coeffs)
    products = _block_product(a, b, p)
    size = target.top_size
    acc = [0] * size
    for i, xv in enumerate(x_coeffs):
        if not xv:
            continue
        for j, yv in enumerate(y_coeffs):
            if yv:
                vec = products[(i, j)]
                for r in range(size):
                    if vec[r]:
                        acc[r] += xv * yv * vec[r]
    g = transport_rows(a_sub, b_sub, total)
    action = _gl_action_on_chain(g, target)
    out = [0] * size
    for c, v in enumerate(acc):
        if v:
            out[action[c]] += v
    return total, target.express(out)


@lru_cache(maxsize=_TRANSPORT_CACHE_SIZE)
def _gl_action_on_chain(g_rows: tuple[tuple[int, ...], ...], st: SteinbergModule) -> list[int]:
    """The permutation of the top simplices of ``st``'s model under the row
    action of ``g_rows``: ``g_rows`` moves each flag core to a core and
    keeps its mask (see ``simpmodel``).  Keyed by the module object, which
    ``st_module`` keeps one of per (n, p)."""
    cores = _l_cores(st.n, st.p)
    ids = {core: c for c, core in enumerate(cores)}
    moved = [ids[core] for core in _move_cores(cores, g_rows, GF(st.p), st.n)]
    top = st.model.codes.get(st.n, ())
    index = {code: i for i, code in enumerate(top)}
    return [index[moved[core], mask] for core, mask in top]


# ---------------------------------------------------------------------------
# The graded bar complex.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GradedBarComplex:
    """Normalized two-sided bar complex of the Steinberg monoid in rank
    grading n: degree-q basis indexed by ordered decompositions into q
    nonzero summands with a Steinberg basis index per summand."""

    n: int
    p: int
    basis: dict  # degree -> tuple of (decomposition, index tuple)
    complex: ChainComplex

    def size(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    def euler(self) -> int:
        return sum((-1) ** q * len(items) for q, items in self.basis.items())


def bar_complex(n: int, p: int) -> GradedBarComplex:
    """Assemble the normalized bar complex at rank grading n.  The degree-q
    basis size must match the composition/decomposition-count formula; the
    differential is the alternating sum of adjacent multiplications and is
    checked to square to zero."""
    if n > ST_CAPS.get(p, 0):
        raise SteinbergError(f"rank {n} over F_{p} is beyond the computed cap")
    ranks = {m: st_module(m, p).rank for m in range(1, n + 1)}
    if n == 0:
        return GradedBarComplex(0, p, {0: (((), ()),)}, ChainComplex({0: 1}, {}))
    basis: dict[int, list] = {}
    for q in range(1, n + 1):
        items = []
        for dec in ordered_decompositions(n, p, q):
            for idxs in product(*(range(ranks[part.rank]) for part in dec)):
                items.append((dec, idxs))
        if items:
            basis[q] = items
    # Cross-check the size formula degree by degree.
    for q, items in basis.items():
        expected = 0
        for comp in compositions(n):
            if len(comp) != q:
                continue
            size = decomposition_count(n, p, comp)
            for m in comp:
                size *= ranks[m]
            expected += size
        if expected != len(items):
            raise SteinbergError(f"bar basis size in degree {q} disagrees with the formula")

    def faces(q: int, item):
        """The adjacent multiplications, expanded in the Steinberg bases."""
        dec, idxs = item
        for j in range(1, q):
            a_sub, b_sub = dec[j - 1], dec[j]
            ei = [0] * ranks[a_sub.rank]
            ej = [0] * ranks[b_sub.rank]
            ei[idxs[j - 1]] = 1
            ej[idxs[j]] = 1
            merged, coeffs = st_multiply(a_sub, ei, b_sub, ej)
            new_dec = dec[: j - 1] + (merged,) + dec[j + 1:]
            for t, cv in enumerate(coeffs):
                if cv:
                    yield (new_dec, idxs[: j - 1] + (t,) + idxs[j + 1:]), (-1) ** j * cv

    index = {q: {item: k for k, item in enumerate(items)} for q, items in basis.items()}
    cc = assemble(index, faces)  # asserts boundary squared is zero
    return GradedBarComplex(n, p, {q: tuple(items) for q, items in basis.items()}, cc)


# ---------------------------------------------------------------------------
# Tor and the Koszulness report.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorReport:
    n: int
    p: int
    profile: HomologyProfile  # degree q -> Tor_q at grading n
    euler: int
    koszul: bool  # concentrated in degree n and free
    tord_ok: bool  # matches the two-factor model's shifted homology
    join_ok: bool  # top rank matches the join route and the squared rank
    euler_ok: bool

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "profile": self.profile.to_jsonable(),
            "cross_checks": {
                "two_factor_model": "pass" if self.tord_ok else "fail",
                "join_rank": "pass" if self.join_ok else "fail",
            },
            "euler": self.euler,
            "koszul": self.koszul,
        }


def tor(n: int, p: int, strict: bool = True) -> TorReport:
    """Tor of the Steinberg monoid against the trivials in rank grading n,
    from the bar complex, cross-checked against (1) the homology of the
    two-factor flag model shifted by n and (2) the top-degree rank of the
    join of two flag complexes.  With ``strict`` any mismatch raises."""
    bar = bar_complex(n, p)
    profile = homology(bar.complex)
    koszul = profile.nonzero_degrees() in ([], [n]) and not profile.has_torsion()

    model_prof = d_model(2, 0, n, p).homology()
    tord_ok = model_prof == profile.shifted(n)

    if n >= 1:
        t = tits(n, p)
        join_prof = homology(chains(join(t, t)))
        top_rank = join_prof.betti(2 * n - 3)
        join_ok = (
            top_rank == profile.betti(n) == st_module(n, p).rank ** 2
            and not join_prof.torsion(2 * n - 3)
        )
    else:
        join_ok = profile.betti(0) == 1

    euler = bar.euler()
    euler_ok = euler == sum(
        (-1) ** d * b for d, b, _ in profile.groups
    ) and euler == bar_euler(n, p, rank_fn=lambda m: st_module(m, p).rank)

    report = TorReport(n, p, profile, euler, koszul, tord_ok, join_ok, euler_ok)
    if strict and not (tord_ok and join_ok and euler_ok):
        raise SteinbergError(f"cross-check failure: {report}")
    return report
