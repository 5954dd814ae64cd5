"""Exact linear algebra over the integers and prime fields.

Everything in this module is exact: integers are arbitrary precision and
residues mod p are stored as reduced representatives in ``0..p-1``.  No
floating point is used anywhere in the package.

The central object is :class:`Submodule`, a submodule of ``R^n`` (``R`` the
integers or a prime field) stored in a canonical form:

* over a prime field, the reduced row echelon form of any generating set;
* over the integers, the row-style Hermite normal form with positive pivots
  and the entries above each pivot reduced into ``[0, pivot)``.

Canonical forms are unique, so structural equality of :class:`Submodule`
decides equality of submodules, and the flattened basis matrix gives a
deterministic total order used for reproducible vertex orderings downstream.
Over the integers the stored rows generate the submodule exactly, not merely
a finite-index sublattice.  An intersection is one echelon form of the
Zassenhaus rows ``(u | u)`` and ``(w | 0)``, whose bottom block is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


class ExactLinError(Exception):
    """Base error for this module."""


class AmbientMismatch(ExactLinError):
    """Operands live in different ambient modules or over different rings."""


class NotSplit(ExactLinError):
    """A submodule of Z^n that is not a direct summand was passed where a
    summand is required."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Ring:
    """The integers (``p == 0``) or the prime field ``F_p`` (``p`` prime).

    Prime powers are rejected: residue rings that are not prime fields are
    outside the scope of this package.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"modulus must be 0 (integers) or prime, got {self.p}")

    @property
    def is_field(self) -> bool:
        return self.p != 0

    def reduce(self, x: int) -> int:
        return x % self.p if self.p else x

    def __str__(self) -> str:
        return "Z" if self.p == 0 else f"F{self.p}"


ZZ = Ring(0)


@lru_cache(maxsize=64)
def GF(p: int) -> Ring:
    ring = Ring(p)
    if not ring.is_field:
        raise ValueError("GF expects a prime")
    return ring


def ring_from_token(token: str) -> Ring:
    if token == "Z":
        return ZZ
    if token.startswith("F"):
        return GF(int(token[1:]))
    raise ValueError(f"unknown ring token {token!r}")


@dataclass(frozen=True)
class Matrix:
    """An immutable exact matrix: a tuple of row tuples over a ring."""

    ring: Ring
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(ring: Ring, rows: Iterable[Sequence[int]], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(x % ring.p for x in row) if ring.p else tuple(row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None or cols < 0:
            raise ValueError(f"empty matrix needs a column count >= 0, not {cols}")
        return Matrix(ring, len(data), cols, data)

    @staticmethod
    def identity(ring: Ring, n: int) -> "Matrix":
        return Matrix.from_rows(ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    def row_list(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


# ---------------------------------------------------------------------------
# Row reduction primitives.  These work on plain lists of lists of ints and
# are shared by the public operations below.
# ---------------------------------------------------------------------------


def _rref_mod_p(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p of the first ``ncols`` columns.  Row
    operations act on whole rows, so columns past ``ncols`` record them.
    Returns all rows, the nonzero echelon rows first, and the pivot
    columns."""
    mat = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def _hnf(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row-style Hermite normal form of the first ``ncols`` columns: echelon
    shape, positive pivots, the entries above each pivot reduced into
    [0, pivot).  Row operations act on whole rows, so columns past ``ncols``
    record them: run on ``[M | I]`` the right block is a unimodular T with
    T @ M the HNF above zero rows.  Returns all rows, the nonzero HNF rows
    first, and the pivot columns."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, len(mat)) if mat[i][c]]
        if not live:
            continue
        # Chase the gcd into row r.
        while len(live) > 1:
            i = min(live, key=lambda k: abs(mat[k][c]))
            mat[r], mat[i] = mat[i], mat[r]
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            live = [i for i in range(r, len(mat)) if mat[i][c]]
        i = live[0]
        mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def _echelon(ring: Ring, rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """The canonical echelon form of the first ``ncols`` columns: RREF over a
    prime field, row HNF over the integers."""
    if ring.is_field:
        return _rref_mod_p(rows, ncols, ring.p)
    return _hnf(rows, ncols)


def _snf_dense(
    rows: list[list[int]], ncols: int, want_colbasis: bool = False
) -> tuple[list[int], list[list[int]] | None]:
    """Classical Smith normal form by elimination with minimal-absolute-value
    pivots.  Returns the nonzero elementary divisors ``d_1 | d_2 | ...``.

    With ``want_colbasis`` the second return value is a unimodular ``ncols x
    ncols`` matrix whose first ``rank`` rows span the row space of the input
    (used for basis completion: the remaining rows complete any basis of a
    split row space to a basis of the ambient module).
    """
    a = [list(r) for r in rows]
    m = len(a)
    # w tracks the inverse of the accumulated column transform: row ops on w
    # mirror column ops on a so that rowspace(input) = rowspace(D @ w).
    w = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if want_colbasis else None
    divisors: list[int] = []
    t = 0
    while True:
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            if w is not None:
                w[t], w[bj] = w[bj], w[t]
        while True:
            # Clear column t.
            progress = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        progress = True
            if progress:
                continue
            # Clear row t (column ops, mirrored on w).
            progress = False
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        if w is not None:
                            w[t] = [x + q * y for x, y in zip(w[t], w[j])]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if w is not None:
                            w[t], w[j] = w[j], w[t]
                        progress = True
            if not progress:
                break
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            if w is not None:
                w[t] = [-x for x in w[t]]
        d = a[t][t]
        # Enforce divisibility of the remaining block by the pivot.
        culprit = None
        if d != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, ncols):
                    if a[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            continue
        divisors.append(d)
        t += 1
    return divisors, w


# ---------------------------------------------------------------------------
# Submodules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Submodule:
    """A submodule of ``R^n`` in canonical form.

    ``basis`` holds the canonical basis rows (RREF over a prime field, row
    HNF over the integers); the number of rows is the rank.  Instances are
    immutable, hashable and totally ordered by the flattened basis matrix,
    which makes downstream vertex orders reproducible.
    """

    ring: Ring
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_ambient(self) -> bool:
        """Equal to the ambient module: full rank with every pivot 1, as the
        canonical form of ``R^n`` is the identity over both rings."""
        return self.rank == self.ambient and all(row[i] == 1 for i, row in enumerate(self.basis))

    def sort_key(self) -> tuple[int, ...]:
        return tuple(x for row in self.basis for x in row)

    # -- set-style operators ------------------------------------------------

    def __add__(self, other: "Submodule") -> "Submodule":
        return span_sum(self, other)

    def __and__(self, other: "Submodule") -> "Submodule":
        return intersect(self, other)

    def __le__(self, other: "Submodule") -> bool:
        return contains(other, self)

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.basis)
        return f"<{self.ring} sub of rank {self.rank} in {self.ring}^{self.ambient}: [{rows}]>"


def _check_same_ambient(u: Submodule, w: Submodule) -> None:
    if u.ring != w.ring or u.ambient != w.ambient:
        raise AmbientMismatch(f"{u!r} vs {w!r}")


def canonicalize(generators: Matrix) -> Submodule:
    """The submodule generated by the rows of ``generators``, in canonical
    form.  Idempotent: canonicalizing the basis of the result returns the
    same object."""
    rows, pivots = _echelon(generators.ring, generators.row_list(), generators.cols)
    return Submodule(generators.ring, generators.cols, tuple(tuple(r) for r in rows[:len(pivots)]))


def span(ring: Ring, ambient: int, rows: Iterable[Sequence[int]]) -> Submodule:
    """Convenience wrapper: the canonical submodule spanned by ``rows``."""
    return canonicalize(Matrix.from_rows(ring, list(rows), ambient))


def zero_module(ring: Ring, ambient: int) -> Submodule:
    return Submodule(ring, ambient, ())


def ambient_module(ring: Ring, ambient: int) -> Submodule:
    return canonicalize(Matrix.identity(ring, ambient))


def snf(m: Matrix) -> tuple[int, ...]:
    """Elementary divisors ``d_1 | d_2 | ... | d_r`` of an integer matrix,
    ``r`` its rank."""
    if m.ring.is_field:
        raise ExactLinError("elementary divisors are an integer-matrix notion")
    divisors, _ = _snf_dense(m.row_list(), m.cols)
    return tuple(divisors)


def is_split(u: Submodule) -> bool:
    """Whether ``u`` is a direct summand of the ambient module.  Always true
    over a field; over the integers, true iff all elementary divisors of the
    basis matrix are 1 (equivalently, the quotient is torsion-free)."""
    if u.ring.is_field:
        return True
    divisors, _ = _snf_dense([list(r) for r in u.basis], u.ambient)
    return all(d == 1 for d in divisors)


def span_sum(u: Submodule, w: Submodule) -> Submodule:
    """The submodule generated by ``u`` and ``w`` together.  Over the
    integers the sum of split submodules need not be split."""
    _check_same_ambient(u, w)
    return span(u.ring, u.ambient, u.basis + w.basis)


def sum_of(modules: Iterable[Submodule], ring: Ring, ambient: int) -> Submodule:
    """Sum of an iterable of submodules (zero module for an empty iterable)."""
    rows: list[Sequence[int]] = []
    for m in modules:
        if m.ring != ring or m.ambient != ambient:
            raise AmbientMismatch("sum over mismatched modules")
        rows.extend(m.basis)
    return span(ring, ambient, rows)


def left_kernel(m: Matrix) -> Matrix:
    """A basis (as rows) of ``{x : x @ m == 0}``.  Over the integers the
    kernel of an integer matrix is automatically saturated."""
    aug = [list(row) + [1 if j == i else 0 for j in range(m.rows)] for i, row in enumerate(m.entries)]
    full, pivots = _echelon(m.ring, aug, m.cols)
    return Matrix.from_rows(m.ring, [row[m.cols:] for row in full[len(pivots):]], m.rows)


# Zassenhaus: the rows (u | u), u in a basis of U, and (w | 0), w in a basis
# of W, span {(a + b, a) : a in U, b in W}, whose elements with zero left half
# (b = -a) are 0 + (U & W).  In an echelon form a combination is nonzero at
# the pivot of its first row with a nonzero coefficient, so those elements are
# exactly the combinations (integral over Z) of the rows with pivot >= n.  The
# rows form the bottom block of the HNF or RREF, itself one: their right
# halves are the canonical basis of U & W.
def intersect(u: Submodule, w: Submodule) -> Submodule:
    """Set-theoretic intersection, exact over both rings, from one echelon
    form of the Zassenhaus rows (see above)."""
    _check_same_ambient(u, w)
    if u.is_zero or w.is_zero:
        return zero_module(u.ring, u.ambient)
    if u.is_ambient or w.is_ambient:  # the other operand is already canonical
        return w if u.is_ambient else u
    n = u.ambient
    rows = [list(r + r) for r in u.basis] + [list(r) + [0] * n for r in w.basis]
    full, pivots = _echelon(u.ring, rows, 2 * n)
    return Submodule(u.ring, n, tuple(tuple(full[i][n:]) for i, c in enumerate(pivots) if c >= n))


def member(u: Submodule, vector: Sequence[int]) -> bool:
    """Exact membership of a vector in ``u``."""
    return coordinates_in(u, vector) is not None


def contains(u: Submodule, w: Submodule) -> bool:
    """Whether ``w`` is contained in ``u`` as a set, decided by exact
    membership of the basis rows of ``w``."""
    _check_same_ambient(u, w)
    return all(member(u, row) for row in w.basis)


def coordinates_in(u: Submodule, vector: Sequence[int]) -> list[int] | None:
    """Coefficients expressing ``vector`` in the canonical basis of ``u``,
    or None if the vector is not a member."""
    v = [u.ring.reduce(x) for x in vector]
    coeffs = []
    if u.ring.is_field:
        p = u.ring.p
        for row in u.basis:
            c = next(j for j, x in enumerate(row) if x)
            f = v[c]
            coeffs.append(f)
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return coeffs if not any(v) else None
    for row in u.basis:
        c = next(j for j, x in enumerate(row) if x)
        if v[c] % row[c]:
            return None
        q = v[c] // row[c]
        coeffs.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return coeffs if not any(v) else None


def _extend_inside(p: Submodule, x: Submodule) -> list[tuple[int, ...]] | None:
    """Vectors of ``x`` extending a basis of ``p`` to one of ``x`` (in
    ambient coordinates), or None when ``p`` is not split in ``x``.
    Assumes ``p`` is contained in ``x``."""
    m = x.rank
    coords = []
    for row in p.basis:
        c = coordinates_in(x, row)
        assert c is not None
        coords.append(c)
    if x.ring.is_field:
        _, pivots = _rref_mod_p([list(c) for c in coords], m, x.ring.p)
        ext_coords = [[int(c == j) for c in range(m)] for j in range(m) if j not in pivots]
    else:
        divisors, w = _snf_dense([list(c) for c in coords], m, want_colbasis=True)
        if any(d != 1 for d in divisors):
            return None
        assert w is not None
        ext_coords = w[len(divisors):]
    return [tuple(x.ring.reduce(sum(c * brow[j] for c, brow in zip(coeffs, x.basis)))
                  for j in range(x.ambient)) for coeffs in ext_coords]


def extend_to_ambient_basis(u: Submodule) -> Matrix:
    """A basis of the ambient module whose first ``rank(u)`` rows span ``u``:
    the canonical basis of ``u`` followed by its :func:`_extend_inside`
    completion, verified to be unimodular; raises :class:`NotSplit` when
    ``u`` is not a summand.
    """
    ext = _extend_inside(u, ambient_module(u.ring, u.ambient))
    if ext is None:
        raise NotSplit(f"{u!r} is not a summand")
    result = Matrix.from_rows(u.ring, u.basis + tuple(ext), u.ambient)
    if not is_unimodular(result):
        raise ExactLinError("basis completion failed verification")
    return result


def is_unimodular(m: Matrix) -> bool:
    """Whether a square matrix is invertible over its ring."""
    if m.rows != m.cols:
        return False
    full, pivots = _echelon(m.ring, m.row_list(), m.cols)
    if len(pivots) != m.cols:
        return False
    return all(full[i][i] == 1 for i in range(m.cols)) and all(
        full[i][j] == 0 for i in range(m.cols) for j in range(m.cols) if i != j
    )


# ---------------------------------------------------------------------------
# Enumeration over prime fields.
# ---------------------------------------------------------------------------


def all_subspaces(n: int, p: int, min_rank: int = 0, max_rank: int | None = None) -> list[Submodule]:
    """All subspaces of ``F_p^n`` with rank in ``[min_rank, max_rank]``,
    enumerated through their canonical RREF matrices, in deterministic order."""
    ring = GF(p)
    if max_rank is None:
        max_rank = n
    out: list[Submodule] = []
    if min_rank <= 0:
        out.append(zero_module(ring, n))
    for r in range(max(1, min_rank), max_rank + 1):
        out.extend(_subspaces_of_rank(n, p, r))
    out.sort(key=lambda s: (s.rank, s.sort_key()))
    return out


def _subspaces_of_rank(n: int, p: int, r: int) -> list[Submodule]:
    from itertools import combinations, product

    ring = GF(p)
    result = []
    for pivots in combinations(range(n), r):
        free_positions = []
        for i in range(r):
            for j in range(n):
                if j > pivots[i] and j not in pivots:
                    free_positions.append((i, j))
                # Columns that are pivots of later rows must be 0; pivot
                # column of own row is 1; columns before the pivot are 0.
        for values in product(range(p), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free_positions, values):
                rows[i][j] = v
            result.append(Submodule(ring, n, tuple(tuple(row) for row in rows)))
    return result


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# Serialization: line-oriented text form, bit-exact round trip.
# ---------------------------------------------------------------------------


def dump_submodule(u: Submodule) -> str:
    """Block form: header ``ring n rank`` then one basis row per line."""
    lines = [f"{u.ring} {u.ambient} {u.rank}"]
    lines.extend(" ".join(str(x) for x in row) for row in u.basis)
    return "\n".join(lines)


def load_submodule(text: str) -> Submodule:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    ring_tok, n_tok, rank_tok = lines[0].split()
    ring, n, rank = ring_from_token(ring_tok), int(n_tok), int(rank_tok)
    rows = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + rank]]
    if len(rows) != rank:
        raise ValueError("row count does not match header")
    sub = span(ring, n, rows)
    if sub.basis != tuple(tuple(r) for r in rows):
        raise ValueError("stored rows are not in canonical form")
    return sub
