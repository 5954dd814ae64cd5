import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonbasis import exactlin
from commonbasis.exactlin import (
    GF,
    ZZ,
    AmbientMismatch,
    Matrix,
    NotSplit,
    Ring,
    _snf_dense,
    all_subspaces,
    ambient_module,
    canonicalize,
    contains,
    coordinates_in,
    dump_submodule,
    extend_to_ambient_basis,
    gaussian_binomial,
    intersect,
    is_split,
    is_unimodular,
    left_kernel,
    load_submodule,
    member,
    snf,
    span,
    span_sum,
    zero_module,
)
from helpers import (
    dump_matrix,
    load_matrix,
    quotient_torsion_divisors,
    random_split_submodule,
    random_unimodular,
    reference_intersect,
    saturate,
)


def test_ring_rejects_prime_powers():
    with pytest.raises(ValueError):
        Ring(4)
    with pytest.raises(ValueError):
        GF(9)
    assert str(ZZ) == "Z" and str(GF(7)) == "F7"


def test_canonicalize_gcd_row():
    assert span(ZZ, 2, [(2, 4), (1, 2)]).basis == ((1, 2),)


def test_canonicalize_full_rank_f2():
    assert span(GF(2), 2, [(1, 1), (0, 1)]).basis == ((1, 0), (0, 1))


def test_span_input_checks():
    with pytest.raises(ValueError, match="^ragged rows$"):
        span(ZZ, 2, [(1, 0), (1,)])
    with pytest.raises(ValueError, match="^cols does not match row width$"):
        span(ZZ, 3, [(1, 0)])
    assert Matrix.from_rows(GF(3), [[4, -1]]).entries == ((1, 2),)
    assert Matrix.from_rows(ZZ, [[4, -1]]).entries == ((4, -1),)


def test_canonicalize_empty():
    z = span(ZZ, 3, [])
    assert z.rank == 0 and z.is_zero


def test_canonicalize_idempotent_and_row_invariant():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        sub = span(ZZ, n, rows)
        assert span(ZZ, n, sub.basis) == sub
        t = random_unimodular(rng, max(len(rows), 1))
        if rows:
            mixed = [[sum(a * b for a, b in zip(trow, col)) for col in zip(*rows)]
                     for trow in t.entries]
            assert canonicalize(Matrix.from_rows(ZZ, mixed, n)) == sub
    for _ in range(200):
        n, p = rng.randint(1, 4), rng.choice([2, 3, 5])
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))]
        sub = span(GF(p), n, rows)
        assert span(GF(p), n, sub.basis) == sub


def test_snf_worked_examples():
    assert snf(Matrix.from_rows(ZZ, [[2, 0], [0, 3]])) == (1, 6)
    assert snf(Matrix.identity(ZZ, 3)) == (1, 1, 1)
    assert snf(Matrix.from_rows(ZZ, [[2, 0], [0, 2]])) == (2, 2)


def test_snf_divisor_chain_and_minor_gcd():
    from math import gcd

    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        divisors = snf(Matrix.from_rows(ZZ, rows, n))
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        # product of the first r divisors = gcd of all r x r minors
        for r in range(1, len(divisors) + 1):
            g = 0
            for rset in combinations(range(m), r):
                for cset in combinations(range(n), r):
                    g = gcd(g, _det([[rows[i][j] for j in cset] for i in rset]))
            prod = 1
            for d in divisors[:r]:
                prod *= d
            assert prod == g


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_split_examples():
    assert is_split(span(ZZ, 2, [(1, 1)]))
    assert not is_split(span(ZZ, 2, [(2, 0)]))
    assert is_split(span(GF(3), 3, [(1, 2, 0), (0, 0, 1)]))


def test_split_three_way_equivalence():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        sub = span(ZZ, n, rows)
        by_snf = is_split(sub)
        by_quotient = quotient_torsion_divisors(sub) == ()
        try:
            basis = extend_to_ambient_basis(sub)
            by_extension = True
            assert is_unimodular(basis)
            assert span(ZZ, n, basis.entries[: sub.rank]) == sub
        except NotSplit:
            by_extension = False
        assert by_snf == by_quotient == by_extension


def test_extension_worked_examples():
    b = extend_to_ambient_basis(span(ZZ, 2, [(1, 1)]))
    assert span(ZZ, 2, b.entries[:1]) == span(ZZ, 2, [(1, 1)]) and is_unimodular(b)
    full = extend_to_ambient_basis(ambient_module(ZZ, 3))
    assert is_unimodular(full)
    with pytest.raises(NotSplit):
        extend_to_ambient_basis(span(ZZ, 2, [(2, 0)]))
    # A case where no subset of standard vectors completes the basis.
    tricky = extend_to_ambient_basis(span(ZZ, 2, [(3, -2)]))
    assert is_unimodular(tricky)


def test_sum_examples():
    a, b = span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])
    total = span_sum(a, b)
    assert total.basis == ((1, 1), (0, 2))  # index 2 in the ambient lattice
    assert not is_split(total)
    assert span_sum(a, zero_module(ZZ, 2)) == a
    e1, e2 = span(GF(2), 2, [(1, 0)]), span(GF(2), 2, [(0, 1)])
    assert span_sum(e1, e2) == ambient_module(GF(2), 2)
    with pytest.raises(AmbientMismatch):
        span_sum(a, span(ZZ, 3, [(1, 0, 0)]))


def test_intersect_examples():
    e12 = span(GF(2), 3, [(1, 0, 0), (0, 1, 0)])
    e23 = span(GF(2), 3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(e12, e23) == span(GF(2), 3, [(0, 1, 0)])
    u = span(ZZ, 3, [(1, 2, 0), (0, 0, 5)])
    assert intersect(u, ambient_module(ZZ, 3)) == u
    assert intersect(span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])).is_zero
    assert intersect(span(ZZ, 1, [(3,)]), span(ZZ, 1, [(2,)])) == span(ZZ, 1, [(6,)])


def test_is_ambient_means_equal_to_the_ambient_module():
    # full-rank lattices of index > 1 are not Z^n, split or not
    for rows in ([(2,)], [(1, 0), (0, 3)], [(1, 1), (1, -1)], [(1, 2, 0), (0, 1, 0), (0, 0, 5)]):
        lattice = span(ZZ, len(rows), rows)
        assert lattice.rank == lattice.ambient and not lattice.is_ambient
    assert span(ZZ, 2, [(2, 1), (1, 1)]).is_ambient  # a unimodular basis
    rng = random.Random(37)
    kinds = set()
    for ring in (ZZ, GF(2), GF(3)):
        for n in (1, 2, 3):
            full = ambient_module(ring, n)
            assert full.is_ambient and not zero_module(ring, n).is_ambient
            for _ in range(40):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
                u = span(ring, n, rows)
                assert u.is_ambient == (u == full)
                assert intersect(u, full) == u == intersect(full, u)
                kinds.add((ring.p, u.rank == n, u.is_ambient))
    assert {(0, True, False), (0, True, True), (2, True, True), (3, True, True)} <= kinds


def test_intersect_is_exact_over_Z():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 4)
        u = span(ZZ, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        w = span(ZZ, n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        both = intersect(u, w)
        assert contains(u, both) and contains(w, both)
        # Exactness: any vector in both lattices (sampled from each basis) is
        # in the computed intersection.
        for row in both.basis:
            assert member(u, row) and member(w, row)
        # rank identity over the rationals
        assert u.rank + w.rank == span_sum(u, w).rank + both.rank


_KINDS = ("zero", "ambient", "equal", "nested", "random")


def _intersection_pairs(rng: random.Random):
    """Operand pairs over Z, F_2, F_3 and F_5 in ranks 1..6: fixed non-split
    lattices of Z^2, then seeded random spans against a zero, ambient,
    equal, nested (a sublattice or subspace of the first) or random
    second operand."""
    fixed = [span(ZZ, 2, rows) for rows in ([(2, 0)], [(2, 2), (0, 3)], [(1, 0)], [(1, 1)],
                                            [(4, 6)], [(2, 0), (0, 2)], [(1, 2), (0, 4)])]
    for u in fixed:
        for w in fixed:
            yield "fixed", u, w
    for _ in range(2400):
        ring = rng.choice((ZZ, GF(2), GF(3), GF(5)))
        n = rng.randint(1, 6)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]

        def combinations_of(source, count: int):
            coeffs = [[rng.randint(-4, 4) for _ in source] for _ in range(count)]
            return [[sum(c * row[j] for c, row in zip(cs, source)) for j in range(n)] for cs in coeffs]

        u = span(ring, n, combinations_of(unit, rng.randint(0, n + 1)))
        kind = rng.choice(_KINDS)
        if kind == "zero":
            w = zero_module(ring, n)
        elif kind == "ambient":
            w = ambient_module(ring, n)
        elif kind == "equal":
            w = span(ring, n, u.basis)
        elif kind == "nested":
            w = span(ring, n, combinations_of(u.basis, rng.randint(0, u.rank + 1)))
        else:
            w = span(ring, n, combinations_of(unit, rng.randint(0, n + 1)))
        yield kind, u, w


def test_intersect_matches_the_kernel_route():
    seen, pairs = set(), 0
    for kind, u, w in _intersection_pairs(random.Random(59)):
        expected = reference_intersect(u, w)
        assert intersect(u, w) == expected == intersect(w, u), (u, w)
        seen.add((u.ring.p, u.ambient, kind))
        pairs += 1
    assert pairs >= 2000
    assert {(p, n, kind) for p in (0, 2, 3, 5) for n in range(1, 7) for kind in _KINDS} <= seen


def test_intersect_is_one_echelon_without_a_kernel(monkeypatch):
    cases = [(span(ZZ, 3, [(1, 2, 0), (0, 0, 5)]), span(ZZ, 3, [(2, 0, 1), (0, 2, 5)])),
             (span(GF(3), 3, [(1, 2, 0)]), span(GF(3), 3, [(1, 2, 0), (0, 0, 1)]))]
    zero, full = zero_module(ZZ, 3), ambient_module(ZZ, 3)
    echelon, calls = exactlin._echelon, []

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    def no_kernel(m):
        raise AssertionError("intersect ran left_kernel")

    monkeypatch.setattr(exactlin, "_echelon", counted)
    monkeypatch.setattr(exactlin, "left_kernel", no_kernel)
    for u, w in cases:
        calls.clear()
        intersect(u, w)
        assert len(calls) == 1
    calls.clear()
    for u in (zero, full):
        intersect(u, cases[0][0])
        intersect(cases[0][0], u)
    assert not calls


def test_contains_examples():
    assert contains(span(ZZ, 2, [(1, 0), (0, 1)]), span(ZZ, 2, [(1, 0)]))
    assert not contains(span(ZZ, 2, [(2, 2)]), span(ZZ, 2, [(1, 1)]))
    assert contains(span(ZZ, 2, [(1, 1)]), zero_module(ZZ, 2))


def test_nested_split_lemma():
    rng = random.Random(41)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        w = random_split_submodule(rng, n)
        if w.rank < 1:
            continue
        rows = [[rng.randint(-3, 3) for _ in range(w.rank)] for _ in range(rng.randint(1, w.rank))]
        u_rows = []
        for cr in rows:
            vec = [0] * n
            for c, brow in zip(cr, w.basis):
                for j, x in enumerate(brow):
                    vec[j] += c * x
            u_rows.append(vec)
        u = span(ZZ, n, u_rows)
        coords = [coordinates_in(w, r) for r in u.basis]
        inner = span(ZZ, w.rank, coords)
        assert is_split(u) == is_split(inner)
        checked += 1
    assert checked > 100


def test_intersection_of_split_is_split():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 4)
        u, w = random_split_submodule(rng, n), random_split_submodule(rng, n)
        assert is_split(intersect(u, w))


def test_sum_then_intersect_proper_transfer():
    # If W + V is the whole space and U <= W, then U + V is proper exactly
    # when U + (W & V) is proper in W.
    rng = random.Random(47)
    checked = 0
    for _ in range(2000):
        n = rng.randint(2, 4)
        w = random_split_submodule(rng, n)
        v = random_split_submodule(rng, n)
        if span_sum(w, v) != ambient_module(ZZ, n) or w.rank == 0:
            continue
        u = saturate(span(ZZ, n, [w.basis[i] for i in range(rng.randint(0, w.rank))]))
        if not contains(w, u):
            continue
        lhs = span_sum(u, v) != ambient_module(ZZ, n)
        rhs = span_sum(u, intersect(w, v)) != w
        assert lhs == rhs
        checked += 1
    assert checked > 200


def test_subspace_counts_match_gaussian_binomials():
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        subs = all_subspaces(n, p)
        for k in range(n + 1):
            assert sum(1 for s in subs if s.rank == k) == gaussian_binomial(n, k, p)
        assert len(set(subs)) == len(subs)


def test_left_kernel_is_saturated():
    rng = random.Random(53)
    for _ in range(100):
        m_rows, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = Matrix.from_rows(ZZ, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m_rows)], n)
        ker = left_kernel(mat)
        for row in ker.entries:
            prod = [sum(row[i] * mat.entries[i][j] for i in range(m_rows)) for j in range(n)]
            assert not any(prod)
        sub = canonicalize(ker)
        assert is_split(sub)


def test_serialization_round_trip():
    a = span(ZZ, 3, [(1, 2, 0), (0, 5, 3)])
    assert load_submodule(dump_submodule(a)) == a
    assert dump_submodule(load_submodule(dump_submodule(a))) == dump_submodule(a)
    b = span(GF(3), 2, [(1, 2)])
    assert load_submodule(dump_submodule(b)) == b
    m = Matrix.from_rows(ZZ, [[1, -7], [0, 4]])
    assert load_matrix(dump_matrix(m)) == m
    with pytest.raises(ValueError):
        load_submodule("Z 2 1\n-1 2")  # not canonical (negative pivot)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), max_size=4))
def test_membership_closed_under_combinations(seed, rows):
    sub = span(ZZ, 3, rows)
    rng = random.Random(seed)
    if sub.rank:
        coeffs = [rng.randint(-3, 3) for _ in range(sub.rank)]
        vec = [sum(c * row[j] for c, row in zip(coeffs, sub.basis)) for j in range(3)]
        assert member(sub, vec)
        assert coordinates_in(sub, vec) is not None


# ---------------------------------------------------------------------------
# Properties of the eliminators behind canonicalize, left_kernel and
# is_unimodular, over Z (p = 0) and F_p, refereed by Fraction elimination.
# ---------------------------------------------------------------------------


def _rank(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank over Q (p = 0, Fraction arithmetic) or over F_p, by plain
    Gaussian elimination."""
    mat = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        for i in range(rank + 1, len(mat)):
            if p == 0:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
            else:
                f = mat[i][c] * pow(mat[rank][c], p - 2, p)
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        pr = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return int(det)


def _ring(p: int) -> Ring:
    return ZZ if p == 0 else GF(p)


@st.composite
def _matrices(draw, square: bool = False):
    p = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(0, 2 * n))
    rows = draw(st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return p, n, rows


@st.composite
def _row_mixings(draw, m: int):
    """Elementary row operations (i, j, c): row i += c * row j, i != j."""
    ops = draw(st.lists(st.tuples(st.integers(0, max(m - 1, 0)), st.integers(0, max(m - 1, 0)),
                                  st.integers(-3, 3)), max_size=8))
    return [(i, j, c) for i, j, c in ops if i != j]


def _mix(rows: list[list[int]], ops) -> list[list[int]]:
    rows = [list(r) for r in rows]
    for i, j, c in ops:
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_left_kernel_rows_annihilate_and_count(case):
    p, n, rows = case
    ring = _ring(p)
    mat = Matrix.from_rows(ring, rows, n)
    ker = left_kernel(mat)
    assert ker.cols == len(rows)
    for x in ker.entries:
        prod = [sum(x[i] * mat.entries[i][j] for i in range(len(rows))) for j in range(n)]
        assert all(ring.reduce(v) == 0 for v in prod)
    assert ker.rows == len(rows) - _rank(rows, n, p)
    assert _rank([list(r) for r in ker.entries], len(rows), p) == ker.rows
    if p == 0 and ker.rows:
        assert set(snf(ker)) == {1}  # saturated: Z^m / ker is torsion-free


@settings(max_examples=150, deadline=None)
@given(_matrices(), st.data())
def test_canonicalize_is_idempotent_and_row_mixing_invariant(case, data):
    p, n, rows = case
    ring = _ring(p)
    sub = canonicalize(Matrix.from_rows(ring, rows, n))
    assert canonicalize(Matrix.from_rows(ring, sub.basis, n)) == sub
    assert sub.rank == _rank(rows, n, p)
    mixed = _mix(rows, data.draw(_row_mixings(len(rows))))
    assert canonicalize(Matrix.from_rows(ring, mixed, n)) == sub


@st.composite
def _square_near_unimodular(draw):
    """A square matrix of known determinant d: diag(1, .., 1, d) mixed by
    elementary row operations."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    n = draw(st.integers(1, 6))
    d = draw(st.sampled_from([-2, -1, 1, 2, 3, 5]))
    rows = [[(d if i == n - 1 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return p, n, _mix(rows, draw(_row_mixings(n)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrices(square=True), _square_near_unimodular()))
def test_is_unimodular_agrees_with_the_determinant(case):
    p, n, rows = case
    ring = _ring(p)
    det = _det(rows)
    expected = abs(det) == 1 if p == 0 else det % p != 0
    assert is_unimodular(Matrix.from_rows(ring, rows, n)) == expected


# ---------------------------------------------------------------------------
# The dense Smith form on larger entries and shapes.
# ---------------------------------------------------------------------------


def _invariant_factors(diagonal: list[int]) -> list[int]:
    """The Smith divisors of a diagonal matrix: (x, y) -> (gcd, lcm) on
    every pair, zeros dropped, in increasing order."""
    from math import gcd

    ds = [abs(x) for x in diagonal if x]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return ds


@st.composite
def _mixed_diagonals(draw):
    """diag(d_1, .., d_k, 0, ..) in an m x n matrix mixed by row and column
    operations, with its known divisors; pairs like 4, 6 make the pivot
    fail to divide the rest of the block."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    diagonal = draw(st.lists(st.integers(-60, 60), min_size=min(m, n), max_size=min(m, n)))
    rows = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)]
    rows = _mix(rows, draw(_row_mixings(m)))
    cols = _mix([list(c) for c in zip(*rows)], draw(_row_mixings(n)))
    return [list(r) for r in zip(*cols)], n, _invariant_factors(diagonal)


@st.composite
def _large_matrices(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-10**4, 10**4), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return rows, n, None


@settings(max_examples=120, deadline=None)
@given(st.one_of(_large_matrices(), _mixed_diagonals()))
def test_dense_snf_is_a_divisor_chain_of_the_right_product(case):
    # returning at all shows that the culprit loop terminates
    rows, n, expected = case
    divisors, _ = _snf_dense(rows, n)
    assert all(d > 0 for d in divisors)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    assert len(divisors) == _rank(rows, n, 0)
    if expected is not None:
        assert divisors == expected
    if len(rows) == n and len(divisors) == n:
        prod = 1
        for d in divisors:
            prod *= d
        assert prod == abs(_det(rows))
