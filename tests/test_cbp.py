import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonbasis import cbp
from commonbasis.cbp import (
    DEFAULT_CLOSURE_CAP,
    CbpError,
    ClosureCapExceeded,
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
    contains,
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
    random_unimodular,
    reference_closure,
    reference_common_basis_greedy,
    reference_corank,
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


def _element_bits(sub, p: int, n: int) -> int:
    """The element set of ``sub``, every combination of its basis rows, as
    a bitset with vector v at index sum_j v_j p^j."""
    vectors = {(0,) * n}
    for row in sub.basis:
        vectors = {tuple((x + c * r) % p for x, r in zip(v, row)) for v in vectors for c in range(p)}
    return sum(1 << sum(x * p ** j for j, x in enumerate(v)) for v in vectors)


def test_fp_bits_backend_matches_submodule_operations():
    classes = _admitted_classes()
    assert {(2, 12), (3, 7), (61, 2), (4093, 1)} <= set(classes)
    rng = random.Random(4)
    for p, n in classes:
        ring = GF(p)
        backend = cbp._backend(ring, n)
        assert isinstance(backend, cbp._FpBitsBackend)
        assert backend.full() == backend.encode(ambient_module(ring, n))
        assert backend.sum_many([]) == 1
        for _ in range(3 if n > 1 else 1):
            members = _random_field_collection(rng, n, p).members
            enc = [backend.encode(m) for m in members]
            # the memoised encoding is the element set, on a hit as on a miss
            assert [backend.encode(m) for m in members] == enc
            assert enc == [_element_bits(m, p, n) for m in members]
            assert [backend.rank(e) for e in enc] == [m.rank for m in members]
            assert backend.intersect(enc[0], enc[-1]) == backend.encode(members[0] & members[-1])
            assert backend.sum_many(enc) == backend.encode(sum_of(members, ring, n))
            assert backend.rank(backend.sum_many(enc)) == sum_of(members, ring, n).rank
            # a sum starts from its largest part, whatever the order of the parts
            assert ({backend.sum_many(list(order)) for order in permutations(enc[:4])}
                    == {backend.encode(sum_of(members[:4], ring, n))})
        if p ** n <= 243:
            # the encoding is the element set, indexed in base p
            m = members[0]
            vectors = [[v // p ** j % p for j in range(n)] for v in range(p ** n)]
            want = sum(1 << v for v, vec in enumerate(vectors) if coordinates_in(m, vec) is not None)
            assert backend.encode(m) == want
    above = next(q for q in range(cbp._FP_BITS_CAP + 1, 2 * cbp._FP_BITS_CAP) if is_prime(q))
    for p, n in [(2, 13), (3, 8), (67, 2), (above, 1)]:
        assert isinstance(cbp._backend(GF(p), n), cbp._GenericBackend)


def _violations_by_definition(col: Collection) -> list[dict]:
    """``ie_violations`` from the definition, by submodule operations alone:
    for every subset S the sum of U_S & U_i over i not in S has rank
    sum over T > S of (-1)^(|T - S| + 1) rank U_T, and over Z is a summand."""
    ring, n, k = col.ring, col.ambient, len(col.members)
    meet = [ambient_module(ring, n)]
    for t in range(1, 1 << k):
        low = (t & -t).bit_length() - 1
        meet.append(meet[t & (t - 1)] & col.members[low])
    out = []
    for s in range(1 << k):
        want = sum((-1) ** (bin(t ^ s).count("1") + 1) * meet[t].rank
                   for t in range(1 << k) if t & s == s and t != s)
        w = sum_of([meet[s | 1 << i] for i in range(k) if not s >> i & 1], ring, n)
        bad = ({"kind": "rank", "got": w.rank, "want": want} if w.rank != want
               else {"kind": "split"} if not is_split(w) else None)
        if bad:
            out.append({"subset": tuple(i + 1 for i in range(k) if s >> i & 1), **bad})
    return out


def test_ie_violations_match_the_definition():
    rng = random.Random(12)
    kinds = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        members = [random_split_submodule(rng, n) for _ in range(rng.randint(1, 4))]
        cols = [collection(members, ring=ZZ, ambient=n),
                _random_field_collection(rng, n, rng.choice([2, 3, 5]))]
        for col in cols:
            got = ie_violations(col)
            assert got == _violations_by_definition(col), col.members
            assert has_cbp_ie(col) == (not got)
            kinds |= {(col.ring.p, v["kind"]) for v in got} | {(col.ring.p, not got)}
    assert {(0, "rank"), (0, "split"), (0, True)} <= kinds
    assert {(2, "rank"), (2, True), (3, "rank"), (3, True)} <= kinds


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


def test_encode_memo_stays_bounded(monkeypatch):
    # with room for two encodings and two decisions, encodings and decisions
    # made after eviction equal the first ones
    monkeypatch.setattr(cbp, "_encode_bits", lru_cache(maxsize=2)(cbp._encode_bits.__wrapped__))
    monkeypatch.setattr(cbp, "_decide", lru_cache(maxsize=2)(cbp._decide.__wrapped__))
    subs = all_subspaces(3, 2, 1, 2)
    backend = cbp._backend(F2, 3)
    codes = [backend.encode(s) for s in subs]
    cols = [collection(list(m)) for m in combinations(subs, 3)][:40]
    first = [has_cbp_ie(col) for col in cols]
    assert cbp._encode_bits.cache_info().currsize == 2
    assert cbp._encode_bits.cache_info().misses > len(subs)
    assert [backend.encode(s) for s in subs] == codes == [_element_bits(s, 2, 3) for s in subs]
    assert [has_cbp_ie(col) for col in cols] == first == [not ie_violations(col) for col in cols]
    assert True in first and False in first


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


# ---------------------------------------------------------------------------
# One generic table per collection, and containment read from it, against
# the unoptimised paths of tests/helpers.py.
# ---------------------------------------------------------------------------

RINGS = (ZZ, GF(2), GF(3))


def _lattice_collection(rng: random.Random, ring, n: int) -> tuple[Collection, set[str]]:
    """1 to 3 spans of proper subsets of one random basis of R^n, with up to
    two of: a member nested in another, a duplicate, the ambient module, and
    a planted-false part (over Z the index-2 pair b1+b2, b1-b2; over a field
    three lines of one plane).  Returns the collection and the extras drawn."""
    rows = (random_unimodular(rng, n) if ring == ZZ else random_invertible_mod_p(rng, n, ring.p)).entries
    members = [span(ring, n, rng.sample(rows, rng.randint(1, n - 1))) for _ in range(rng.randint(1, 3))]
    extras = set(rng.sample(["nested", "duplicate", "ambient", "false"], rng.randint(0, 2)))
    if "nested" in extras:
        members.append(span(ring, n, members[0].basis + (rng.choice(rows),)))
    if "duplicate" in extras:
        members.append(rng.choice(members))
    if "ambient" in extras:
        members.append(ambient_module(ring, n))
    if "false" in extras:
        b1, b2 = rows[:2]
        plus, minus = [x + y for x, y in zip(b1, b2)], [x - y for x, y in zip(b1, b2)]
        members += [span(ring, n, [v]) for v in ([plus, minus] if ring == ZZ else [b1, b2, plus])]
    rng.shuffle(members)
    return collection(members, ring=ring, ambient=n), extras


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_poset_readers_match_the_contains_reference(ring):
    rng = random.Random(f"poset/{ring}")
    seen = set()
    for _ in range(60):
        col, extras = _lattice_collection(rng, ring, rng.randint(2, 4))
        got, want = common_basis_greedy(col), reference_common_basis_greedy(col)
        assert (got is None) == (want is None), col.members
        if got is not None:
            assert (got.basis, got.marks) == (want.basis, want.marks)
        table = corank_table(col)
        assert (table.records, table.g_values) == reference_corank(col)
        seen |= extras | {got is not None}
    assert {"nested", "duplicate", "ambient", "false", True, False} <= seen


def test_containment_is_read_from_the_table():
    # U_{F(O) | F(M)} == O exactly when O lies in M, on every pair of
    # distinct entries
    rng = random.Random(29)
    pairs = {True: 0, False: 0}
    for ring in RINGS:
        for _ in range(40):
            col, _ = _lattice_collection(rng, ring, rng.randint(2, 4))
            table, _ = cbp._intersection_masks(col, cbp._GenericBackend(ring, col.ambient))
            fiber, below = cbp._poset(table)
            assert list(fiber) == list(below) == sorted(set(table), key=lambda m: (m.rank, m.sort_key()))
            for m, fm in fiber.items():
                assert table[fm] == m
                for o, fo in fiber.items():
                    if o != m:
                        inside = contains(m, o)
                        assert (table[fo | fm] == o) == inside == (o in below[m])
                        pairs[inside] += 1
    assert min(pairs.values()) > 200


def test_one_generic_table_per_collection(monkeypatch):
    calls = []
    real = cbp._GenericBackend.intersect
    monkeypatch.setattr(cbp._GenericBackend, "intersect", lambda self, a, b: calls.append(1) or real(self, a, b))
    rows = random_unimodular(random.Random(31), 4).entries
    members = [span(ZZ, 4, rows[:1]), span(ZZ, 4, rows[:2]), span(ZZ, 4, rows[1:3]), span(ZZ, 4, rows[2:])]
    col, built = collection(members), (1 << len(members)) - 1
    cbp._decide.cache_clear()
    assert has_cbp_ie(col) and not ie_violations(col)
    assert corank_table(col).records and common_basis_greedy(col) is not None
    assert len(calls) == built  # four readers, one table
    again = collection(members)
    assert again == col and "_generic_table" not in vars(again)
    assert has_cbp_ie(again) and len(calls) == built  # a memo hit builds nothing
    assert not ie_violations(again) and len(calls) == 2 * built
    # an F_p decision through the bitset backend leaves no generic table
    lines = collection(all_subspaces(3, 2, 1, 1)[:3])
    cbp._decide.cache_clear()
    assert isinstance(cbp._backend(F2, 3), cbp._FpBitsBackend)
    has_cbp_ie(lines)
    assert "_generic_table" not in vars(lines) and len(calls) == 2 * built
    assert has_cbp_ie(lines) == (common_basis_greedy(lines) is not None)
    assert "_generic_table" in vars(lines)


def test_closure_matches_the_all_pairs_fixed_point():
    rng = random.Random(23)
    grew = 0
    for ring in RINGS:
        for _ in range(20):
            n = rng.randint(2, 3)
            draws = [random_split_submodule(rng, n) if ring == ZZ else random_subspace(rng, n, ring.p)
                     for _ in range(rng.randint(2, 4))]
            col = Collection(ring, n, tuple(draws), trusted=True)
            want = reference_closure(col, DEFAULT_CLOSURE_CAP)
            assert closure(col).members == want
            if len(want) > len(set(draws)):
                # the cap triggers exactly where the all-pairs loop's does
                grew += 1
                for cap in (len(want) - 1, len(set(draws))):
                    with pytest.raises(ClosureCapExceeded):
                        closure(col, cap)
                    with pytest.raises(ClosureCapExceeded):
                        reference_closure(col, cap)
                assert closure(col, len(want)).members == want
    assert grew > 15
    # four lines of Z^2 generate an infinite lattice: both hit the cap
    four = Collection(ZZ, 2, tuple(span(ZZ, 2, [v]) for v in [(1, 0), (0, 1), (1, 1), (1, -1)]), trusted=True)
    for fixed_point in (closure, reference_closure):
        with pytest.raises(ClosureCapExceeded, match="exceeded 40 elements"):
            fixed_point(four, 40)
