import random
from itertools import product

import pytest

from commonbasis.exactlin import GF, all_subspaces, span
from commonbasis.homology import snf_divisors
from commonbasis.simpmodel import ordered_decompositions
from helpers import apply_gl_to_simplex, random_invertible_mod_p
from commonbasis.steinberg import (
    ST_CAPS,
    SteinbergError,
    _gl_action_on_chain,
    bar_complex,
    bar_euler,
    compositions,
    decomposition_count,
    gl_order,
    st_module,
    st_multiply,
    st_rank_classical,
    tor,
)


def test_gl_order_formula_and_enumeration():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    for n in (1, 2, 3):
        count = 0
        for entries in product(range(2), repeat=n * n):
            rows = [entries[i * n:(i + 1) * n] for i in range(n)]
            if span(GF(2), n, rows).rank == n:
                count += 1
        assert count == gl_order(n, 2)


def test_decomposition_count_formula_and_enumeration():
    assert decomposition_count(2, 2, (1, 1)) == 6
    assert decomposition_count(3, 2, (1, 2)) == 28
    assert decomposition_count(3, 2, (1, 1, 1)) == 168
    with pytest.raises(SteinbergError):
        decomposition_count(3, 2, (1, 1))
    for n, comp in [(2, (1, 1)), (2, (2,)), (3, (1, 1, 1)), (3, (1, 2)), (3, (2, 1)), (3, (3,))]:
        direct = [d for d in ordered_decompositions(n, 2, len(comp))
                  if tuple(p.rank for p in d) == comp]
        assert len(direct) == decomposition_count(n, 2, comp)


def test_steinberg_ranks():
    assert st_module(1, 2).rank == 1
    assert st_module(2, 2).rank == 2
    assert st_module(3, 2).rank == 8
    assert st_module(1, 3).rank == 1
    assert st_module(2, 3).rank == 3
    for (n, p) in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        assert st_module(n, p).rank == st_rank_classical(n, p)
    with pytest.raises(SteinbergError):
        st_module(4, 2)


def test_steinberg_cycle_basis_is_read_back_by_express():
    for (n, p) in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        st = st_module(n, p)
        boundary = st.model.chain_complex().boundaries.get(n, {})
        for i, z in enumerate(st.cycles.basis):
            image = {}
            for c, x in enumerate(z):
                for r, v in boundary.get(c, {}).items():
                    image[r] = image.get(r, 0) + x * v
            assert not any(image.values()), (n, p, i)
            assert st.express(z) == [int(j == i) for j in range(st.rank)], (n, p, i)
        assert st.cycles.rank == st_rank_classical(n, p)
    with pytest.raises(SteinbergError):  # one top simplex has a nonzero boundary
        st_module(2, 2).express([1] + [0] * (st_module(2, 2).top_size - 1))


def test_gl_action_on_codes_equals_the_action_on_simplices():
    # moving the flag cores and keeping the masks permutes the top simplices
    # as relabelling every entry of every decoded simplex does
    rng = random.Random(18)
    for p in (2, 3):
        for n in range(1, ST_CAPS[p] + 1):
            st = st_module(n, p)
            for _ in range(4):
                g = random_invertible_mod_p(rng, n, p).entries
                want = [st.model.index[n][apply_gl_to_simplex(s, g, GF(p), n)]
                        for s in st.model.simplices[n]]
                assert _gl_action_on_chain(g, st) == want, (n, p, g)


def test_bar_euler_examples():
    assert bar_euler(1, 5) == -1
    assert bar_euler(2, 2) == 4
    assert bar_euler(3, 2) == -8 + 112 - 168 == -64
    assert [bar_euler(n, 2) for n in range(1, 5)] == [
        (-1) ** n * st_rank_classical(n, 2) ** 2 for n in range(1, 5)
    ]
    assert bar_euler(4, 3) == st_rank_classical(4, 3) ** 2


def test_compositions():
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_bar_complex_sizes():
    one = bar_complex(1, 2)
    assert {q: one.size(q) for q in sorted(one.basis)} == {1: 1}
    assert one.complex.boundaries == {}
    two = bar_complex(2, 2)
    assert {q: two.size(q) for q in sorted(two.basis)} == {1: 2, 2: 6}
    three = bar_complex(3, 2)
    assert {q: three.size(q) for q in sorted(three.basis)} == {1: 8, 2: 112, 3: 168}
    assert three.euler() == -64


def test_unit_multiplication():
    st2 = st_module(2, 2)
    unit_support = span(GF(2), 2, [])
    full = span(GF(2), 2, [(1, 0), (0, 1)])
    for i in range(st2.rank):
        coeffs = [0] * st2.rank
        coeffs[i] = 1
        total, out = st_multiply(unit_support, [1], full, coeffs)
        assert out == coeffs and total == full


def test_degree_two_multiplication_is_surjective():
    # the six line-pair products span the rank-2 Steinberg module
    st2 = st_module(2, 2)
    rows = []
    for dec in ordered_decompositions(2, 2, 2):
        total, coeffs = st_multiply(dec[0], [1], dec[1], [1])
        rows.append(coeffs)
    columns = {c: {r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(st2.rank)}
    divisors = snf_divisors(columns)
    assert divisors == [1, 1]  # surjective onto Z^2


def test_multiplication_associativity_into_rank_three():
    lines = all_subspaces(3, 2, 1, 1)
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        a, b, c = rng.sample(lines, 3)
        ab = a + b
        if ab.rank != 2 or (ab & c).rank != 0:
            continue
        left_support, left = st_multiply(a, [1], b, [1])
        t1_support, t1 = st_multiply(left_support, left, c, [1])
        right_support, right = st_multiply(b, [1], c, [1])
        t2_support, t2 = st_multiply(a, [1], right_support, right)
        assert t1_support == t2_support and t1 == t2
        checked += 1
    assert checked > 20


def test_multiplication_graded_commutativity_on_homology():
    # both orders land in St(A (+) B) through the canonical basis of the
    # sum, so swapping the factors costs exactly the sign of the degree
    # product (the module lives in homological degree = rank)
    cases = [(m, n, dec) for (m, n) in [(1, 1), (1, 2)]
             for dec in ordered_decompositions(m + n, 2, 2)
             if dec[0].rank == m and dec[1].rank == n]
    assert cases
    for m, n, (a_sub, b_sub) in cases:
        sm, sn = st_module(m, 2), st_module(n, 2)
        sign = (-1) ** (m * n)
        for i in range(sm.rank):
            for j in range(sn.rank):
                xi = [1 if t == i else 0 for t in range(sm.rank)]
                yj = [1 if t == j else 0 for t in range(sn.rank)]
                fwd_support, fwd = st_multiply(a_sub, xi, b_sub, yj)
                back_support, back = st_multiply(b_sub, yj, a_sub, xi)
                assert fwd_support == back_support
                assert fwd == [sign * v for v in back]


def test_tor_small_and_reports():
    rep = tor(1, 2)
    assert rep.profile.nonzero_degrees() == [1] and rep.profile.betti(1) == 1
    assert rep.koszul and rep.tord_ok and rep.join_ok and rep.euler_ok
    rep = tor(2, 2)
    assert rep.profile.betti(2) == 4 and not rep.profile.has_torsion()
    rep = tor(2, 3)
    assert rep.profile.betti(2) == 9 and rep.koszul
    blob = rep.to_jsonable()
    assert blob["cross_checks"] == {"two_factor_model": "pass", "join_rank": "pass"}
    assert blob["euler"] == 9


def test_tor_rank_three_over_f3_is_koszul():
    rep = tor(3, 3)
    assert rep.profile.groups == ((3, 729, ()),)
    assert rep.koszul and rep.tord_ok and rep.join_ok and rep.euler_ok
    assert rep.euler == -729
