import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonbasis import cbp
from commonbasis.cbp import (
    CbpError,
    Collection,
    NonSplitMember,
    SubsetCapExceeded,
    closure,
    collection,
    common_basis_greedy,
    corank_table,
    dump_collection,
    has_cbp_ie,
    ie_violations,
    load_collection,
    mobius_boolean,
)
from commonbasis.exactlin import (
    GF,
    ZZ,
    all_subspaces,
    ambient_module,
    coordinates_in,
    intersect,
    is_prime,
    is_split,
    is_unimodular,
    span,
    span_sum,
    sum_of,
)
from helpers import (
    brute_force_cbp,
    random_flag_Z,
    random_invertible_mod_p,
    random_split_submodule,
    random_subspace,
)

F2 = GF(2)
E1 = span(F2, 2, [(1, 0)])
E2 = span(F2, 2, [(0, 1)])
E12 = span(F2, 2, [(1, 1)])


def test_collection_rejects_non_split_over_Z():
    with pytest.raises(NonSplitMember):
        collection([span(ZZ, 2, [(2, 0)])])
    collection([span(F2, 2, [(1, 0)])])  # fields: anything goes


def test_subset_cap():
    members = [span(F2, 2, [(1, 0)])] * 13
    with pytest.raises(SubsetCapExceeded):
        has_cbp_ie(collection(members))
    has_cbp_ie(collection(members), cap=13)


def test_corank_table_two_lines():
    table = corank_table(collection([E1, E2]))
    f = {rec.subset: rec.f_value for rec in table.records}
    assert f == {(): 0, (1,): 1, (2,): 1, (1, 2): 0}
    assert table.f_total == table.g_total == 2


def test_corank_table_ambient_member():
    table = corank_table(collection([ambient_module(F2, 2)]))
    f = {rec.subset: rec.f_value for rec in table.records}
    assert f == {(): 0, (1,): 2}


def test_corank_table_duplicate_member():
    table = corank_table(collection([E1, E1]))
    recs = {rec.subset: rec for rec in table.records}
    assert recs[(1, 2)].minimal and recs[(1, 2)].f_value == 1
    assert recs[(1,)].f_value == 0 and not recs[(1,)].minimal
    assert recs[(2,)].f_value == 0


def test_corank_totals_agree_on_random_collections():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        members = [random_split_submodule(rng, n) for _ in range(k)]
        table = corank_table(collection(members, ring=ZZ, ambient=n))
        assert table.f_total == table.g_total  # raises internally too


def test_ie_worked_examples():
    # ambient + coordinate axes + diagonal: the top-level identity holds but
    # the criterion fails at the subset {1}
    cex = collection([ambient_module(ZZ, 2), span(ZZ, 2, [(1, 0)]),
                      span(ZZ, 2, [(0, 1)]), span(ZZ, 2, [(1, 1)])])
    assert not has_cbp_ie(cex)
    violations = ie_violations(cex)
    assert violations[0]["subset"] == (1,) and violations[0]["kind"] == "rank"
    # three distinct coplanar lines
    assert not has_cbp_ie(collection([E1, E2, E12]))
    # any two distinct lines in F_q^2
    for p in (2, 3):
        lines = all_subspaces(2, p, 1, 1)
        for a, b in combinations(lines, 2):
            assert has_cbp_ie(collection([a, b]))
            assert brute_force_cbp([a, b], 2, p)


def test_greedy_worked_examples():
    pair = collection([span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])])
    assert common_basis_greedy(pair) is None and not has_cbp_ie(pair)
    lines3 = [span(ZZ, 3, [(1, 1, 0)]), span(ZZ, 3, [(1, 0, 1)]), span(ZZ, 3, [(0, 1, 1)])]
    assert common_basis_greedy(collection(lines3)) is None
    for a, b in combinations(lines3, 2):
        assert common_basis_greedy(collection([a, b])) is not None
    flag = collection([span(ZZ, 3, [(1, 0, 0)]), span(ZZ, 3, [(1, 0, 0), (0, 1, 0)])])
    result = common_basis_greedy(flag)
    assert result is not None and is_unimodular(result.basis)
    for idx, member in zip(result.marks, flag.members):
        assert span(ZZ, 3, [result.basis.entries[i] for i in idx]) == member


def test_greedy_returns_verified_bases():
    rng = random.Random(5)
    found = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        members = [random_split_submodule(rng, n) for _ in range(rng.randint(1, 3))]
        col = collection(members, ring=ZZ, ambient=n)
        result = common_basis_greedy(col)
        if result is None:
            continue
        found += 1
        assert is_unimodular(result.basis)
        for idx, member in zip(result.marks, members):
            assert span(ZZ, n, [result.basis.entries[i] for i in idx]) == member
    assert found > 50


def test_oracle_equivalence_exhaustive_small_fields():
    for n, p in [(2, 2), (2, 3)]:
        subs = all_subspaces(n, p, 1, n - 1)
        for k in range(1, 4):
            for members in combinations(subs, k):
                col = collection(list(members))
                ie = has_cbp_ie(col)
                greedy = common_basis_greedy(col) is not None
                brute = brute_force_cbp(members, n, p)
                assert ie == greedy == brute


def test_oracle_equivalence_random_rank_four():
    # beyond the exhaustive acceptance scale: seeded random collections of
    # subspaces of F_2^4 against the self-contained basis search
    rng = random.Random(404)
    checked = 0
    for _ in range(400):
        members = tuple(dict.fromkeys(
            m for m in (random_subspace(rng, 4, 2) for _ in range(rng.randint(1, 3)))
            if 0 < m.rank < 4))
        if not members:
            continue
        col = Collection(GF(2), 4, members, trusted=True)
        ie = has_cbp_ie(col)
        greedy = common_basis_greedy(col) is not None
        brute = brute_force_cbp(members, 4, 2)
        assert ie == greedy == brute
        checked += 1
    assert checked > 300


def test_field_split_conditions_are_vacuous():
    # Over a prime field every sum that the criterion inspects is split, so
    # evaluating the splitness half of the test cannot change the answer.
    rng = random.Random(9)
    for _ in range(50):
        n, p = rng.randint(1, 3), rng.choice([2, 3])
        members = [span(GF(p), n, [[rng.randrange(p) for _ in range(n)]
                                   for _ in range(rng.randint(0, n))])
                   for _ in range(rng.randint(1, 3))]
        col = collection(members, ring=GF(p), ambient=n)
        for violation in ie_violations(col):
            assert violation["kind"] != "split"


def test_intersection_distributes_when_compatible():
    rng = random.Random(13)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        u, v, w = (random_split_submodule(rng, n) for _ in range(3))
        col = collection([u, v, w], ring=ZZ, ambient=n)
        if not has_cbp_ie(col):
            continue
        checked += 1
        assert intersect(span_sum(u, v), w) == span_sum(intersect(u, w), intersect(v, w))
    assert checked > 80


def test_closure_examples():
    cl = closure(collection([E1, E2]))
    assert set(cl.members) == {span(F2, 2, []), E1, E2, ambient_module(F2, 2)}
    chain = collection([span(ZZ, 3, [(1, 0, 0)]), span(ZZ, 3, [(1, 0, 0), (0, 1, 0)])])
    cl2 = closure(chain)
    assert set(chain.members) <= set(cl2.members)
    bad = closure(Collection(ZZ, 2, (span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)]))))
    sums = [m for m in bad.members if m.rank == 2 and not is_split(m)]
    assert sums and sums[0].basis == ((1, 1), (0, 2))


def test_closure_preserves_cbp_and_compatibility():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        members = [random_split_submodule(rng, n) for _ in range(rng.randint(1, 3))]
        col = collection(members, ring=ZZ, ambient=n)
        cl = closure(col)
        cbp_before = has_cbp_ie(col)
        if cbp_before:
            cl_col = Collection(ZZ, n, cl.members, trusted=True)
            assert all(is_split(m) for m in cl.members)
            assert has_cbp_ie(cl_col)
            extra = random_split_submodule(rng, n)
            with_extra = Collection(ZZ, n, tuple(members) + (extra,), trusted=True)
            with_extra_cl = Collection(ZZ, n, cl.members + (extra,), trusted=True)
            assert has_cbp_ie(with_extra) == has_cbp_ie(with_extra_cl)
            checked += 1
    assert checked > 50


def test_flag_lemma_small():
    rng = random.Random(19)
    premise_hits = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        us = [random_split_submodule(rng, n) for _ in range(rng.randint(1, 2))]
        flag = random_flag_Z(rng, n, rng.randint(2, 3))
        if not all(has_cbp_ie(collection(us + [v], ring=ZZ, ambient=n)) for v in flag):
            continue
        premise_hits += 1
        assert has_cbp_ie(collection(us + flag, ring=ZZ, ambient=n))
    assert premise_hits > 40


def test_mobius_boolean():
    assert mobius_boolean([], []) == 1
    assert mobius_boolean([1, 2], [1]) == -1
    assert mobius_boolean([1, 2, 3], [1]) == 1
    with pytest.raises(CbpError):
        mobius_boolean([1], [2])


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_mobius_inversion_on_subset_lattice(k, seed):
    rng = random.Random(seed)
    g = {s: rng.randint(-50, 50) for s in range(1 << k)}
    f = {
        s: sum(g[t] for t in range(1 << k) if t & s == s)
        for s in range(1 << k)
    }
    for s in range(1 << k):
        recovered = 0
        for t in range(1 << k):
            if t & s == s:
                diff = bin(t ^ s).count("1")
                recovered += (-1) ** diff * f[t]
        assert recovered == g[s]


def test_collection_file_round_trip(tmp_path):
    col = collection([span(ZZ, 3, [(1, 0, 2)]), span(ZZ, 3, [(1, 0, 0), (0, 1, 0)])])
    text = dump_collection(col)
    assert load_collection(text) == col


# ---------------------------------------------------------------------------
# The small-field bitset backend against the generic one and the oracle.
# ---------------------------------------------------------------------------


def _admitted_classes() -> list[tuple[int, int]]:
    """Every (p, n) whose decisions go through the bitset backend."""
    cap = cbp._FP_BITS_CAP
    return [(p, n) for p in range(2, cap + 1) if is_prime(p)
            for n in range(1, cap.bit_length()) if p ** n <= cap]


def _random_field_collection(rng: random.Random, n: int, p: int) -> Collection:
    """2 to 5 subspaces, one of three kinds at random: spans of subsets of one
    random basis (a common basis exists); three lines of one plane and such
    spans (none exists); free draws."""
    ring = GF(p)
    k = rng.randint(2, 5)
    kind = rng.randrange(3) if n > 1 else 2
    basis = random_invertible_mod_p(rng, n, p).entries
    if kind == 2:
        members = [random_subspace(rng, n, p) for _ in range(k)]
    else:
        members = [span(ring, n, rng.sample(basis, rng.randint(0, n))) for _ in range(k)]
    if kind == 1:
        b1, b2 = basis[:2]
        members += [span(ring, n, [b]) for b in (b1, b2, [x + y for x, y in zip(b1, b2)])]
        rng.shuffle(members)
    return Collection(ring, n, tuple(dict.fromkeys(members)), trusted=True)


def test_fp_bits_backend_matches_submodule_operations():
    classes = _admitted_classes()
    assert {(2, 12), (3, 7), (61, 2), (4093, 1)} <= set(classes)
    rng = random.Random(4)
    for p, n in classes:
        ring = GF(p)
        backend = cbp._backend(ring, n)
        assert isinstance(backend, cbp._FpBitsBackend)
        assert backend.full() == backend.encode(ambient_module(ring, n))
        for _ in range(3 if n > 1 else 1):
            members = _random_field_collection(rng, n, p).members
            enc = [backend.encode(m) for m in members]
            assert [backend.rank(e) for e in enc] == [m.rank for m in members]
            assert backend.intersect(enc[0], enc[-1]) == backend.encode(members[0] & members[-1])
            assert backend.sum_many(enc) == backend.encode(sum_of(members, ring, n))
            assert backend.rank(backend.sum_many(enc)) == sum_of(members, ring, n).rank
        if p ** n <= 243:
            # the encoding is the element set, indexed in base p
            m = members[0]
            vectors = [[v // p ** j % p for j in range(n)] for v in range(p ** n)]
            want = sum(1 << v for v, vec in enumerate(vectors) if coordinates_in(m, vec) is not None)
            assert backend.encode(m) == want
    above = next(q for q in range(cbp._FP_BITS_CAP + 1, 2 * cbp._FP_BITS_CAP) if is_prime(q))
    for p, n in [(2, 13), (3, 8), (67, 2), (above, 1)]:
        assert isinstance(cbp._backend(GF(p), n), cbp._GenericBackend)


def test_fp_bits_decisions_match_generic_and_brute_force():
    oracle_classes = {(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)}
    rng = random.Random(7)
    answers = {True: 0, False: 0}
    for p, n in _admitted_classes():
        for _ in range(12 if (p, n) in oracle_classes else 4 if n > 1 else 1):
            col = _random_field_collection(rng, n, p)
            cbp._decide.cache_clear()
            ie = has_cbp_ie(col)
            assert ie == (not ie_violations(col)), (p, n, col.members)
            if (p, n) in oracle_classes:
                assert ie == brute_force_cbp(col.members, n, p), (p, n, col.members)
            answers[ie] += 1
    assert min(answers.values()) > 50


def test_cbp_cache_stays_bounded(monkeypatch):
    # the decision memo, given a bound of 8, evicts and still answers right
    small = lru_cache(maxsize=8)(cbp._decide.__wrapped__)
    monkeypatch.setattr(cbp, "_decide", small)
    subs = all_subspaces(3, 2, 1, 2)
    cols = [collection(list(m)) for m in combinations(subs, 3)][:40]
    first = []
    for col in cols:
        first.append(has_cbp_ie(col))
        assert 0 < small.cache_info().currsize <= 8
    assert [has_cbp_ie(col) for col in cols] == first
    assert small.cache_info().misses == 2 * len(cols)
    # every order and repetition of the same members shares one entry
    assert [has_cbp_ie(collection(c.members[::-1] + c.members[:1])) for c in cols[-8:]] == first[-8:]
    assert small.cache_info().misses == 2 * len(cols)
    assert first == [not ie_violations(col) for col in cols]
    assert True in first and False in first
