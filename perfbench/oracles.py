"""Exact oracles that referee the program's answers.

They share no code with ``commonbasis`` (nor with its tests): rational
arithmetic through :class:`fractions.Fraction` over Z, and plain enumeration
of vectors and bases over small prime fields.  ``self_test`` runs them on
hand cases whose answers are known.

Run ``python3 perfbench/oracles.py`` to run the self-test alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# Over Z: verify a returned common basis.
# ---------------------------------------------------------------------------


def _echelon_q(rows: list[list[int]]) -> list[list[Fraction]]:
    """Row echelon form over Q (rows of the result are independent)."""
    work = [[Fraction(x) for x in r] for r in rows]
    out: list[list[Fraction]] = []
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((r for r in work if r[c] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        work = [[a - r[c] / piv[c] * b for a, b in zip(r, piv)] if r[c] else r for r in work]
        out.append(piv)
    return out


def rank_q(rows: list[list[int]]) -> int:
    return len(_echelon_q(rows))


def det_q(rows: list[list[int]]) -> Fraction:
    """Determinant of a square integer matrix by Gaussian elimination over Q."""
    work = [[Fraction(x) for x in r] for r in rows]
    n = len(work)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] / work[c][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def inverse_q(rows: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square integer matrix, by Gauss-Jordan over Q."""
    n = len(rows)
    work = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [r[n:] for r in work]


def verify_z_common_basis(members: list[list[list[int]]], basis: list[list[int]],
                          marks: list[list[int]]) -> str | None:
    """None when ``basis`` is a basis of Z^n adapted to every member, else the
    reason it is not.  ``members[i]`` holds generator rows of a summand;
    ``marks[i]`` the basis rows claimed to span it.  A member is spanned by
    its marked rows when every generator has coordinates only on those rows
    and the member's rank equals their number: the marked rows of a basis
    span a saturated lattice, so equal rational span means equal lattice."""
    n = len(basis)
    if any(len(r) != n for r in basis) or any(not isinstance(x, int) for r in basis for x in r):
        return "basis is not a square integer matrix"
    if abs(det_q(basis)) != 1:
        return f"determinant {det_q(basis)} is not +-1"
    inverse = inverse_q(basis)
    if len(marks) != len(members):
        return "one mark set per member is required"
    for i, (gens, mark) in enumerate(zip(members, marks)):
        if len(set(mark)) != len(mark) or not all(0 <= j < n for j in mark):
            return f"member {i}: malformed marks {mark}"
        if rank_q(gens) != len(mark):
            return f"member {i}: rank {rank_q(gens)} but {len(mark)} marked rows"
        for g in gens:
            coords = [sum(x * inverse[r][c] for r, x in enumerate(g)) for c in range(n)]
            if any(c.denominator != 1 for c in coords):
                return f"member {i}: generator {g} has non-integral coordinates"
            if any(c for j, c in enumerate(coords) if j not in mark):
                return f"member {i}: generator {g} leaves its marked rows"
    return None


# ---------------------------------------------------------------------------
# Over F_p: brute force over all bases.
# ---------------------------------------------------------------------------


def subspace_elements(rows, p: int) -> frozenset:
    """All vectors of the span of ``rows`` over F_p (a subspace as a set)."""
    out = {tuple(0 for _ in rows[0])} if rows else set()
    for r in rows:
        out = {tuple((a + c * b) % p for a, b in zip(v, r)) for v in out for c in range(p)}
    return frozenset(out)


class FpOracle:
    """Every unordered basis of F_p^n with the subspaces its subsets span.
    A collection has a common basis iff some basis spans every member by a
    subset; that is the definition, checked by exhaustion."""

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        nonzero = [v for v in product(range(p), repeat=n) if any(v)]
        self.adapted: list[frozenset] = []
        for basis in combinations(nonzero, n):
            if len(subspace_elements(list(basis), p)) != p ** n:
                continue
            spans = {subspace_elements(list(s), p)
                     for r in range(1, n + 1) for s in combinations(basis, r)}
            self.adapted.append(frozenset(spans))
        self.subspaces = frozenset().union(*self.adapted)

    def proper_subspaces(self) -> list[frozenset]:
        return sorted((s for s in self.subspaces if 1 < len(s) < self.p ** self.n), key=sorted)

    def has_common_basis(self, members: list[frozenset]) -> bool:
        wanted = [m for m in members if len(m) > 1]
        return any(all(m in adapted for m in wanted) for adapted in self.adapted)

    def relative_vertices(self, sigma: list[frozenset]) -> set[frozenset]:
        """Proper nonzero subspaces V such that sigma with V has a common basis."""
        bases = [a for a in self.adapted if all(m in a for m in sigma if len(m) > 1)]
        return {v for v in self.proper_subspaces() if any(v in a for a in bases)}


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def steinberg_rank(n: int, p: int) -> int:
    """Rank of the Steinberg module of GL_n(F_p): p^(n(n-1)/2)."""
    return p ** (n * (n - 1) // 2)


def reduced_euler(f_vector: list[int]) -> int:
    """Reduced Euler characteristic -1 + f_0 - f_1 + f_2 - ..."""
    return -1 + sum((-1) ** d * f for d, f in enumerate(f_vector))


# ---------------------------------------------------------------------------
# Self-test on hand cases.
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Failures of the oracles on hand cases (empty when all pass)."""
    failures = []

    # Z^2: the index-2 pair <e1+e2>, <e1-e2> has no common basis.  A basis
    # adapted to a line contains a generator of it, unique up to sign, so
    # the four sign choices are every candidate, and each must be refused.
    pair = [[[1, 1]], [[1, -1]]]
    for s, t in product((1, -1), repeat=2):
        for order in ((0, 1), (1, 0)):
            rows = [[s, s], [t, -t]]
            basis = [rows[order[0]], rows[order[1]]]
            marks = [[order.index(0)], [order.index(1)]]
            if verify_z_common_basis(pair, basis, marks) is None:
                failures.append(f"index-2 pair accepted with basis {basis}")

    # Z^3: the nested flag <e1> < <e1, e2> has the standard basis, and a
    # mixed unimodular basis too; wrong marks are refused.
    flag = [[[2, 0, 0], [3, 0, 0]], [[1, 1, 0], [0, 1, 0]]]
    if verify_z_common_basis(flag, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [0, 1]]) is not None:
        failures.append("nested flag refused with the standard basis")
    if verify_z_common_basis(flag, [[1, 0, 0], [1, 1, 0], [5, 3, 1]], [[0], [0, 1]]) is not None:
        failures.append("nested flag refused with a mixed basis")
    if verify_z_common_basis(flag, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1], [0, 1]]) is None:
        failures.append("nested flag accepted with wrong marks")
    if verify_z_common_basis(flag, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [0, 1]]) is None:
        failures.append("a basis of determinant 2 was accepted")

    # F_3^3: any two subspaces have a common basis.
    f33 = FpOracle(3, 3)
    subs = f33.proper_subspaces()
    if len(subs) != gaussian_binomial(3, 1, 3) + gaussian_binomial(3, 2, 3) or len(f33.adapted) != 1872:
        failures.append(f"F_3^3 enumeration: {len(subs)} subspaces, {len(f33.adapted)} bases")
    if not all(f33.has_common_basis([u, w]) for u, w in combinations(subs, 2)):
        failures.append("two subspaces of F_3^3 without a common basis")

    # F_3^2: two distinct lines have one, three distinct lines have none.
    f32 = FpOracle(2, 3)
    lines = f32.proper_subspaces()
    if len(lines) != 4:
        failures.append(f"F_3^2 has {len(lines)} lines, not 4")
    if not all(f32.has_common_basis(list(c)) for c in combinations(lines, 2)):
        failures.append("two lines of F_3^2 without a common basis")
    if any(f32.has_common_basis(list(c)) for c in combinations(lines, 3)):
        failures.append("three lines of F_3^2 with a common basis")

    # Closed forms: St_3(F_2) has rank 8; a hollow triangle has reduced Euler
    # characteristic -1.
    if steinberg_rank(3, 2) != 8 or reduced_euler([3, 3]) != -1:
        failures.append("closed forms")
    return failures


if __name__ == "__main__":
    problems = self_test()
    print("\n".join(problems) if problems else "oracle self-test: all hand cases pass")
    raise SystemExit(1 if problems else 0)
