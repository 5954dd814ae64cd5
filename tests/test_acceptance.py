"""Acceptance gate: every desk-scale verification the package promises,
one test per criterion, each printing a single pass/fail line.

All comparisons are exact integer computations with zero tolerance.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.
"""

import random
from itertools import combinations


from commonbasis.cbp import Collection, collection, common_basis_greedy, has_cbp_ie
from commonbasis.complexes import (
    MorseHypothesisViolated,
    common_basis_complex,
    higher_tits,
    is_simplex_over_Z,
    join,
    morse_certificate,
    morse_check,
    random_morse_instance,
    tits,
)
from commonbasis.exactlin import GF, ZZ, all_subspaces, contains, is_split, span
from commonbasis.homology import chains, homology
from commonbasis.simpmodel import check_bar_model, check_suspension
from commonbasis.steinberg import bar_euler, st_module, st_rank_classical, tor
from helpers import (
    brute_force_cbp,
    intersect_complexes,
    random_flag_Z,
    random_split_submodule,
    random_subspace,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_connectivity_of_common_basis_complexes():
    ok = True
    details = []
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        prof = homology(chains(common_basis_complex(n, p)))
        low_zero = all(d > 2 * n - 4 for d in prof.nonzero_degrees())
        top_free = not prof.torsion(2 * n - 3)
        ok = ok and low_zero and top_free
        details.append(f"n={n},p={p}: {prof}")
    exact = homology(chains(common_basis_complex(2, 2)))
    ok = ok and exact.betti(1) == 1 and exact.nonzero_degrees() == [1]
    _report(1, "connectivity", ok, "; ".join(details))


def test_criterion_02_solomon_tits_instances():
    ok = True
    for p in (2, 3):
        for n in range(1, 5):
            prof = homology(chains(tits(n, p)))
            connected = all(d > n - 3 for d in prof.nonzero_degrees())
            top_free = not prof.torsion(n - 2)
            ok = ok and connected and top_free
    _report(2, "solomon-tits", ok)


def test_criterion_03_field_join_identity_and_integer_witness():
    ok = True
    for p in (2, 3):
        for n in range(1, 4):
            t = tits(n, p)
            j = join(t, t)
            h = higher_tits(2, 0, n, p)
            ok = ok and {h.label_simplex(s) for s in h.simplex_set()} == {
                j.label_simplex(s) for s in j.simplex_set()
            }
    u, w = span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])
    # both lines are genuine vertices (split, proper, nonzero), so the pair
    # is a join simplex; it is not a simplex of the two-factor building
    ok = ok and is_split(u) and is_split(w) and 0 < u.rank < 2
    ok = ok and not is_simplex_over_Z(collection([u, w]))
    _report(3, "join-identity", ok)


def test_criterion_04_cbp_oracle_equivalence():
    subspaces = all_subspaces(3, 2, 1, 2)
    assert len(subspaces) == 14
    exhaustive = 0
    ok = True
    for k in (1, 2, 3):
        for members in combinations(subspaces, k):
            col = collection(list(members))
            ie = has_cbp_ie(col)
            greedy = common_basis_greedy(col) is not None
            brute = brute_force_cbp(members, 3, 2)
            ok = ok and (ie == greedy == brute)
            exhaustive += 1
    assert exhaustive == 14 + 91 + 364

    rng = random.Random(20260810)
    randomized = 0
    for _ in range(10_000):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        members = tuple(random_split_submodule(rng, n) for _ in range(k))
        col = Collection(ZZ, n, members, trusted=True)
        ie = has_cbp_ie(col)
        greedy = common_basis_greedy(col) is not None
        ok = ok and ie == greedy
        randomized += 1
    _report(4, "cbp-oracle-equivalence", ok,
            f"{exhaustive} exhaustive + {randomized} randomized, 0 discrepancies")


def test_criterion_05_flag_lemma_suite():
    rng = random.Random(555)
    premise_hits = violations = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        us = [random_split_submodule(rng, n) for _ in range(rng.randint(1, 3))]
        flag = random_flag_Z(rng, n, rng.randint(2, 3))
        if all(has_cbp_ie(Collection(ZZ, n, tuple(us) + (v,), trusted=True)) for v in flag):
            premise_hits += 1
            if not has_cbp_ie(Collection(ZZ, n, tuple(us) + tuple(flag), trusted=True)):
                violations += 1
    for _ in range(1000):
        n = rng.randint(2, 4)
        us = [random_subspace(rng, n, 2) for _ in range(rng.randint(1, 3))]
        ranks = sorted(rng.sample(range(1, n + 1), rng.randint(2, min(3, n))))
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        base = span(GF(2), n, rows)
        if base.rank < max(ranks):
            continue
        flag = [span(GF(2), n, base.basis[:r]) for r in ranks]
        col_members = tuple(us)
        if all(has_cbp_ie(Collection(GF(2), n, col_members + (v,), trusted=True)) for v in flag):
            premise_hits += 1
            if not has_cbp_ie(Collection(GF(2), n, col_members + tuple(flag), trusted=True)):
                violations += 1
    ok = violations == 0 and premise_hits >= 200
    _report(5, "flag-compatibility", ok, f"{premise_hits} premise instances, {violations} violations")


def test_criterion_06_morse_decomposition():
    rng = random.Random(606)
    certified = 0
    ok = True
    for _ in range(120):
        x, s = random_morse_instance(rng)
        inst = morse_check(x, s)
        rep = morse_certificate(inst)
        ok = ok and rep.ok
        certified += 1
    # rejection of violating instances
    tri = common_basis_complex(2, 2)
    try:
        morse_check(tri, [(0,), (1,)])
        ok = False
    except MorseHypothesisViolated as err:
        ok = ok and err.condition == "ii"
    try:
        morse_check(tri, [(0,)], expected_subcomplex=tri.restrict([(1,)]))
        ok = False
    except MorseHypothesisViolated as err:
        ok = ok and err.condition == "i"
    _report(6, "morse-decomposition", ok, f"{certified} instances certified")


def test_criterion_07_suspension_comparison():
    cases = [(a, b, n) for a in range(0, 3) for b in range(0, 3)
             if 1 <= a + b <= 2 for n in (1, 2)]
    cases.append((1, 0, 3))
    ok = True
    for a, b, n in cases:
        rep = check_suspension(a, b, n, 2)
        ok = ok and rep.ok
    _report(7, "suspension-comparison", ok, f"{len(cases)} cases at p=2")


def test_criterion_08_split_comparison():
    ok = True
    checked = 0
    for n in (1, 2, 3):
        flag_side = {}
        for total in (2, 3):
            flag_side[total] = homology(chains(higher_tits(total, 0, n, 2)))
        for a, b in [(1, 1), (2, 1), (1, 2)]:
            left = homology(chains(higher_tits(a, b, n, 2)))
            ok = ok and left == flag_side[a + b]
            checked += 1
    _report(8, "split-comparison", ok, f"{checked} comparisons at p=2")


def test_criterion_09_bar_model_identity():
    ok = True
    for args in [(1, 0, 1, 2), (1, 0, 2, 2)]:
        rep = check_bar_model(*args)
        ok = ok and rep.ok
        ok = ok and all(lhs == rhs for lhs, rhs in rep.counts.values())
    _report(9, "bar-model-identity", ok)


def test_criterion_10_koszulness_and_koszul_dual():
    expected_rank = {(1, 2): 1, (2, 2): 4, (2, 3): 9, (3, 2): 64}
    ok = True
    for (n, p), rank in expected_rank.items():
        rep = tor(n, p, strict=False)
        diagonal = rep.profile.nonzero_degrees() == [n]
        free = not rep.profile.has_torsion()
        right_rank = rep.profile.betti(n) == rank == st_module(n, p).rank ** 2
        ok = ok and diagonal and free and right_rank
        ok = ok and rep.tord_ok and rep.join_ok and rep.euler_ok
    _report(10, "koszul-dual", ok, "ranks 1, 4, 9, 64")


def test_criterion_11_bar_euler_sanity():
    ok = all(
        bar_euler(n, 2) == (-1) ** n * st_rank_classical(n, 2) ** 2 for n in range(1, 5)
    )
    ok = ok and bar_euler(3, 2) == -8 + 112 - 168 == -64
    _report(11, "bar-euler", ok)


def _acyclicity_instances(n: int, p: int, limit: int):
    ring = GF(p)
    t = tits(n, p)
    cb = common_basis_complex(n, p)
    subs = all_subspaces(n, p, 1, n - 1)
    instances = []
    for tau_simplex in sorted(t.simplex_set(), key=lambda s: (len(s), s)):
        tau = sorted((t.vertices[i] for i in tau_simplex), key=lambda s: s.rank)
        tau_idx = {cb.index_of(v) for v in tau}
        for sigma_simplex in sorted(cb.simplex_set(), key=lambda s: (len(s), s)):
            if not tau_idx <= set(sigma_simplex):
                continue
            sigma = [cb.vertices[i] for i in sigma_simplex]
            lifts = _complement_chains(tau, sigma, subs, ring, n)
            for r in (2, 3):
                for chosen in combinations(lifts, r):
                    instances.append((tau, sigma, chosen))
                    if len(instances) >= limit:
                        return instances
    return instances


def _complement_chains(tau, sigma, subs, ring, n):
    out = []

    def rec(level, prefix):
        if level == len(tau):
            out.append(tuple(prefix))
            return
        v = tau[level]
        for c in subs:
            if c.rank != n - v.rank or not (v & c).is_zero:
                continue
            if prefix and not (c != prefix[-1] and contains(prefix[-1], c)):
                continue
            members = tuple(dict.fromkeys(list(sigma) + list(prefix) + [c]))
            if has_cbp_ie(Collection(ring, n, members, trusted=True)):
                rec(level + 1, prefix + [c])

    rec(0, [])
    return out


def test_criterion_12_acyclic_intersections():
    instances = _acyclicity_instances(2, 2, 5) + _acyclicity_instances(3, 2, 20)
    assert len(instances) >= 20
    ok = True
    n_by_instance = []
    for tau, sigma, chosen in instances:
        n = sigma[0].ambient
        pieces = []
        for lift in chosen:
            members = tuple(dict.fromkeys(list(sigma) + list(lift)))
            pieces.append(higher_tits(1, 0, n, 2, collection(members, ring=GF(2), ambient=n)))
        x = intersect_complexes(pieces)
        prof = homology(chains(x))
        ok = ok and prof.is_trivial()
        n_by_instance.append(n)
    _report(12, "acyclic-intersections", ok,
            f"{len(instances)} instances (n=2: {n_by_instance.count(2)}, n=3: {n_by_instance.count(3)})")
