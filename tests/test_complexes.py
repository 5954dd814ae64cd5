import random
from math import factorial, prod

import pytest

from commonbasis import cbp, complexes
from commonbasis.cbp import collection
from commonbasis.complexes import (
    CapExceeded,
    ComplexError,
    MorseHypothesisViolated,
    SimplicialComplex,
    common_basis_complex,
    dump_complex,
    higher_tits,
    is_simplex_over_Z,
    join,
    load_complex,
    morse_certificate,
    morse_check,
    random_morse_instance,
    split_tits,
    splitting_to_st_simplex,
    st_simplex_to_splitting,
    tits,
)
from commonbasis.exactlin import GF, ZZ, all_subspaces, ambient_module, span
from commonbasis.homology import chains, homology
from helpers import (
    _all_bases,
    brute_force_cbp,
    empty_complex,
    from_label_facets,
    full_subcomplex,
    has_label_simplex,
    intersect_complexes,
    random_invertible_mod_p,
    random_subspace,
    reference_common_basis_complex,
    reference_comparable,
    reference_higher_tits,
    simplices_of_dim,
    star,
)


def test_tits_counts():
    assert tits(2, 2).f_vector() == [3]
    assert tits(3, 2).f_vector() == [14, 21]
    assert tits(1, 5) == empty_complex()
    assert tits(2, 3).f_vector() == [4]


def test_split_tits_counts():
    assert split_tits(2, 2).f_vector() == [6]
    assert split_tits(2, 3).f_vector() == [12]
    assert split_tits(3, 2).f_vector() == [56, 168]


def test_split_tits_simplices_match_splittings():
    # p-simplices correspond to ordered splittings into p+2 nonzero parts
    from commonbasis.simpmodel import ordered_decompositions

    st32 = split_tits(3, 2)
    assert len(simplices_of_dim(st32, 1)) == len(ordered_decompositions(3, 2, 3))
    assert len(simplices_of_dim(st32, 0)) == len(ordered_decompositions(3, 2, 2))


def test_st_splitting_bijection_round_trip():
    for n in (2, 3):
        st = split_tits(n, 2)
        for s in st.simplex_set():
            chain = [st.vertices[i] for i in s]
            parts = st_simplex_to_splitting(chain)
            assert sum(part.rank for part in parts) == n
            total = parts[0]
            for part in parts[1:]:
                assert (total & part).is_zero
                total = total + part
            assert total == ambient_module(GF(2), n)
            back = splitting_to_st_simplex(parts)
            assert set(back) == set(chain)
        # and the other composite, over all splittings of each size
        from commonbasis.simpmodel import ordered_decompositions

        for size in range(2, n + 2):
            for parts in ordered_decompositions(n, 2, size):
                if any(part.rank == n for part in parts):
                    continue
                chain = splitting_to_st_simplex(parts)
                assert st_simplex_to_splitting(chain) == tuple(parts)


def test_common_basis_complex_counts():
    assert common_basis_complex(2, 2).f_vector() == [3, 3]
    assert common_basis_complex(2, 3).f_vector() == [4, 6]
    assert common_basis_complex(1, 7) == empty_complex()


def test_higher_building_worked_examples():
    k33 = higher_tits(2, 0, 2, 2)
    j = join(tits(2, 2), tits(2, 2))
    assert {k33.label_simplex(s) for s in k33.simplex_set()} == {
        j.label_simplex(s) for s in j.simplex_set()
    }
    sig = collection([span(GF(3), 2, [(1, 0)])])
    assert higher_tits(1, 0, 2, 3, sig) == tits(2, 3)
    with pytest.raises(ComplexError):
        higher_tits(1, 0, 2, 2, collection([span(GF(2), 2, [(1, 0)]),
                                            span(GF(2), 2, [(0, 1)]),
                                            span(GF(2), 2, [(1, 1)])]))


def test_relative_building_is_full_subcomplex():
    # Flags of individually-compatible subspaces are jointly compatible, so
    # relative buildings are full subcomplexes of the flag complex.
    for n, p, stride in [(2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 23)]:
        t = tits(n, p)
        cb = common_basis_complex(n, p)
        sigmas = sorted(cb.simplex_set(), key=lambda s: (len(s), s))[::stride]
        for s in sigmas:
            sigma = collection([cb.vertices[i] for i in s], ring=GF(p), ambient=n)
            rel = higher_tits(1, 0, n, p, sigma)
            verts = [t.index_of(v) for v in rel.vertices
                     if has_label_simplex(rel, [v])]
            full = full_subcomplex(t, verts)
            assert {rel.label_simplex(x) for x in rel.simplex_set()} == {
                full.label_simplex(x) for x in full.simplex_set()
            }


def test_relative_building_vertices_are_its_0_simplices():
    # labels that the relative condition rejects are not vertices: the
    # label list, the f-vector and the dumped header all agree
    shrunk = 0
    for n, p, stride in [(3, 2, 1), (2, 3, 1), (3, 3, 40)]:
        t = tits(n, p)
        cb = common_basis_complex(n, p)
        for s in sorted(cb.simplex_set(), key=lambda s: (len(s), s))[::stride]:
            sigma = collection([cb.vertices[i] for i in s], ring=GF(p), ambient=n)
            rel = higher_tits(1, 0, n, p, sigma)
            f = rel.f_vector()
            assert len(rel.vertices) == (f[0] if f else 0)
            assert dump_complex(rel).startswith(f"#vertices {len(rel.vertices)}\n")
            assert load_complex(dump_complex(rel)) == rel
            assert rel.is_subcomplex_of(t)
            shrunk += len(rel.vertices) < len(t.vertices)
    assert shrunk > 0


def test_join_link_star_basics():
    three = tits(2, 2)
    k33 = join(three, three)
    assert k33.f_vector() == [6, 9]
    tri = common_basis_complex(2, 2)
    link = tri.link((0,))
    assert link.f_vector() == [2]
    assert star(tri, (0,)).f_vector() == [3, 2]
    assert full_subcomplex(tri, [0, 1, 2]) == tri
    with pytest.raises(ComplexError):
        tri.link((0, 1, 2))


def test_simplex_tuples_must_be_strictly_increasing():
    for bad in [(1, 0), (0, 0), (), (0, 2, 1)]:
        with pytest.raises(ComplexError) as err:
            SimplicialComplex("abc", [(0,), (1,), (2,), bad])
        assert str(err.value) == f"bad simplex tuple {bad}"


def test_closure_check_looks_up_every_facet_one_level_down():
    cases = [
        ([(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)], (0, 1, 2)),  # the facet (0, 2) is missing
        ([(0,), (0, 1)], (0, 1)),  # the vertex (1,) is missing
        ([(0,), (1,), (2,), (0, 1, 2)], (0, 1, 2)),  # no edges: a whole level is skipped
    ]
    for simplices, at in cases:
        with pytest.raises(ComplexError) as err:
            SimplicialComplex("abc", simplices)
        assert str(err.value) == f"simplex set not closed under faces at {at}"
    # a simplex given twice is one simplex
    twice = SimplicialComplex("ab", [(0, 1), (1,), (0,), (0, 1), (1,)])
    assert twice.levels == {0: {(0,): 0, (1,): 1}, 1: {(0, 1): 0}}
    assert twice == SimplicialComplex("ab", [(0,), (1,), (0, 1)]) and twice.num_simplices() == 3
    empty = SimplicialComplex((), ())
    assert empty.levels == {} and empty.f_vector() == [] and empty.dim == -1 and () not in empty


def test_deterministic_rebuild_byte_exact():
    for build in (lambda: tits(3, 2), lambda: common_basis_complex(2, 3),
                  lambda: higher_tits(1, 1, 2, 2), lambda: split_tits(3, 2)):
        assert dump_complex(build()) == dump_complex(build())


def test_file_round_trip_with_all_label_kinds():
    for k in (tits(3, 2), split_tits(2, 3), higher_tits(1, 1, 2, 2)):
        assert load_complex(dump_complex(k)) == k
    assert dump_complex(load_complex(dump_complex(split_tits(2, 2)))) == dump_complex(split_tits(2, 2))


def test_membership_query_over_Z():
    assert not is_simplex_over_Z(collection([span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])]))
    flag = collection([span(ZZ, 3, [(1, 1, 1)]), span(ZZ, 3, [(1, 1, 1), (0, 1, 0)])])
    assert is_simplex_over_Z(flag)
    axes = collection([span(ZZ, 3, [(1, 0, 0)]), span(ZZ, 3, [(0, 1, 0)]), span(ZZ, 3, [(0, 0, 1)])])
    assert is_simplex_over_Z(axes)


def test_decision_strategies_agree(monkeypatch):
    # the complexes cut out by frames equal those cut out on the deciding
    # route by the brute-force oracle, which searches every basis of F_p^n
    instances = [(common_basis_complex, (n, p)) for n, p in [(2, 2), (3, 2), (2, 3)]]
    instances += [(higher_tits, args) for args in [(2, 0, 2, 2), (1, 1, 2, 2), (2, 0, 3, 2)]]
    built = [build(*args) for build, args in instances]
    _force_the_deciding_route(monkeypatch)
    monkeypatch.setattr(complexes, "has_cbp_ie",
                        lambda col: brute_force_cbp(col.members, col.ambient, col.ring.p))
    for (build, args), k in zip(instances, built, strict=True):
        assert build(*args) == k


def _sigmas(cb):
    """Every 200th simplex of ``common_basis_complex(3, 3)`` as a collection."""
    return [collection([cb.vertices[i] for i in s], ring=GF(3), ambient=3)
            for s in sorted(cb.simplex_set(), key=lambda s: (len(s), s))[::200]]


def test_mask_keyed_builders_match_the_member_list_reference():
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        assert common_basis_complex(n, p) == reference_common_basis_complex(n, p)
    # the one-factor buildings, built without decisions, equal the deciding path
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        assert tits(n, p) == reference_higher_tits(1, 0, n, p)
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        assert split_tits(n, p) == reference_higher_tits(0, 1, n, p)
    for args in [(2, 0, 2, 2), (1, 1, 2, 3), (2, 0, 3, 2)]:
        assert higher_tits(*args) == reference_higher_tits(*args)
    for sigma in _sigmas(common_basis_complex(3, 3)):
        assert higher_tits(1, 0, 3, 3, sigma) == reference_higher_tits(1, 0, 3, 3, sigma)


def _force_the_deciding_route(monkeypatch) -> None:
    """Take away the frame tables, so ``has_cbp_ie`` decides every build."""
    monkeypatch.setattr(complexes, "_frame_table", lambda n, p: None)


def _record_decisions(monkeypatch) -> list:
    """Spy on the builders' decision hook: each decided member set, in order."""
    decided = []
    hook = complexes._has_common_basis

    def recording(ring, n, members):
        decided.append(frozenset(members))
        return hook(ring, n, members)

    monkeypatch.setattr(complexes, "_has_common_basis", recording)
    return decided


def test_builders_decide_each_member_set_once(monkeypatch):
    decided = _record_decisions(monkeypatch)
    line = span(GF(2), 2, [(1, 0)])
    for build, args in [(common_basis_complex, (3, 2)), (higher_tits, (2, 0, 2, 2)),
                        (higher_tits, (1, 0, 2, 2, collection([line])))]:
        decided.clear()
        with monkeypatch.context() as m:
            if build is common_basis_complex:
                _force_the_deciding_route(m)  # the frame route decides nothing
            build(*args)
        assert decided and len(set(decided)) == len(decided), (build.__name__, args)


def test_builds_without_sigma_decide_no_single_vertex(monkeypatch):
    # one subspace, or one splitting pair, always has a common basis, so
    # only a relative build decides its vertices, each together with sigma
    decided = _record_decisions(monkeypatch)
    # deciding every vertex as well took 7, 1,015 and 14 decisions
    for build, args, reference, calls in [
            (common_basis_complex, (2, 2), reference_common_basis_complex, 4),
            (common_basis_complex, (3, 2), reference_common_basis_complex, 1001),
            (higher_tits, (1, 1, 2, 3), reference_higher_tits, 10)]:
        decided.clear()
        with monkeypatch.context() as m:
            if build is common_basis_complex:
                _force_the_deciding_route(m)  # the frame route decides nothing
            k = build(*args)
        assert len(decided) == calls and all(len(members) > 1 for members in decided), args
        assert k == reference(*args), args
    decided.clear()
    cb = common_basis_complex(3, 2)
    assert common_basis_complex(2, 2).f_vector() == [3, 3] and not decided
    sigma = collection([cb.vertices[0], cb.vertices[-1]], ring=GF(2), ambient=3)
    decided.clear()
    relative = higher_tits(1, 0, 3, 2, sigma)
    for x in all_subspaces(3, 2, 1, 2):
        assert frozenset(sigma.members) | {x} in decided
    assert relative == reference_higher_tits(1, 0, 3, 2, sigma)


def test_only_one_factor_builds_without_sigma_skip_decisions(monkeypatch):
    class Decided(Exception):
        pass

    def refuse(ring, n, members):
        raise Decided

    monkeypatch.setattr(complexes, "_has_common_basis", refuse)
    assert tits(3, 3).f_vector() == [26, 52]
    assert split_tits(3, 2).num_simplices() > 0
    assert higher_tits(1, 0, 3, 2) == tits(3, 2)
    assert higher_tits(0, 1, 2, 3) == split_tits(2, 3)
    # the frame route builds the common basis complex without deciding
    assert common_basis_complex(2, 2).f_vector() == [3, 3]
    assert common_basis_complex(3, 2) == reference_common_basis_complex(3, 2)
    line = span(GF(2), 3, [(1, 0, 0)])
    for build, args in [(higher_tits, (1, 0, 3, 2, collection([line]))),
                        (higher_tits, (2, 0, 2, 2))]:
        with pytest.raises(Decided):
            build(*args)
    _force_the_deciding_route(monkeypatch)
    with pytest.raises(Decided):
        common_basis_complex(2, 2)


def test_bitset_and_generic_backends_build_the_same_complexes(monkeypatch):
    cb = common_basis_complex(3, 3)
    sigmas = _sigmas(cb)
    _force_the_deciding_route(monkeypatch)  # both builds decide by has_cbp_ie

    def build_all():
        cbp._decide.cache_clear()
        return ([common_basis_complex(3, 3), higher_tits(1, 1, 2, 3)]
                + [higher_tits(1, 0, 3, 3, sigma) for sigma in sigmas])

    bits = build_all()
    monkeypatch.setattr(cbp, "_backend", lambda ring, n: cbp._GenericBackend(ring, n))
    generic = build_all()
    assert len(sigmas) > 30 and bits[0] == cb
    for a, b in zip(bits, generic, strict=True):
        assert a == b


_CLASSES = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]  # every one- and two-factor class


def _seeded_sigmas(rng, n: int, p: int, count: int) -> list:
    """``count`` seeded simplices of ``common_basis_complex(n, p)`` as
    collections, so each has a common basis."""
    cb = common_basis_complex(n, p)
    simplices = sorted(cb.simplex_set())
    return [collection([cb.vertices[i] for i in rng.choice(simplices)], ring=GF(p), ambient=n)
            for _ in range(count)]


def test_frame_route_builds_what_the_deciding_route_builds(monkeypatch):
    rng = random.Random(2110)
    builds = [(common_basis_complex, (n, p)) for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]]
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sigmas = [None] + _seeded_sigmas(rng, n, p, 2)
        builds += [(higher_tits, (a, b, n, p, sigma)) for a, b in _CLASSES for sigma in sigmas]
    lines = collection([span(GF(2), 2, [v]) for v in [(1, 0), (0, 1), (1, 1)]])
    by_frames = [build(*args) for build, args in builds]
    with pytest.raises(ComplexError, match="must itself have a common basis"):
        higher_tits(1, 1, 2, 2, lines)
    _force_the_deciding_route(monkeypatch)
    decided = _record_decisions(monkeypatch)
    for (build, args), k in zip(builds, by_frames, strict=True):
        again = build(*args)
        assert again.vertices == k.vertices and again.levels == k.levels, args
    assert decided
    with pytest.raises(ComplexError, match="must itself have a common basis"):
        higher_tits(1, 1, 2, 2, lines)


def _built_or_capped(build):
    try:
        k = build()
    except CapExceeded as err:
        return str(err)
    return k.vertices, k.levels


def test_common_basis_frame_route_matches_the_deciding_route_with_every_cap(monkeypatch):
    # equal complexes, and each cap raises, with the same message, exactly
    # where the deciding route raises: max_simplices counts the vertices but
    # is compared only as simplices of dimension >= 1 are added
    cases = [(n, p, d) for n, p in [(1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]
             for d in (None, 0, 1, 2, 3, 10 ** 9)]
    runs = []
    for n, p, d in cases:
        k = common_basis_complex(n, p, max_dim=d)
        total, count = k.num_simplices(), len(k.vertices)
        runs.append((n, p, d, {}))
        for cap in {total, total - 1, count - 1}:
            runs.append((n, p, d, {"max_simplices": max(cap, 0)}))
        runs += [(n, p, d, {"max_vertices": cap}) for cap in {count, max(count - 1, 0)}]
    by_frames = [_built_or_capped(lambda: common_basis_complex(n, p, max_dim=d, **caps))
                 for n, p, d, caps in runs]
    _force_the_deciding_route(monkeypatch)
    deciding = [_built_or_capped(lambda: common_basis_complex(n, p, max_dim=d, **caps))
                for n, p, d, caps in runs]
    for run, a, b in zip(runs, by_frames, deciding, strict=True):
        assert a == b, run
    capped = [a for a in by_frames if isinstance(a, str)]
    assert any("simplices" in a for a in capped) and any("vertices" in a for a in capped)
    # with no edge to add, a cap below the vertex count never raises
    assert common_basis_complex(3, 2, max_dim=0, max_simplices=13).f_vector() == [14]


def test_common_basis_complex_of_F2_4_through_dimension_3():
    # 840 frames, |GL_4(F_2)| / 4!, each a simplex on its 14 summands
    frames = 0
    for mask in complexes._frame_table(4, 2).values():
        frames |= mask
    assert frames.bit_count() == prod(2 ** 4 - 2 ** i for i in range(4)) // factorial(4) == 840
    assert common_basis_complex(4, 2, max_dim=3).f_vector() == [65, 2080, 29505, 201180]


def test_frame_table_counts_frames_and_decides_as_inclusion_exclusion():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 2)]:
        table = complexes._frame_table(n, p)
        closed_form = prod(p ** n - p ** i for i in range(n)) // ((p - 1) ** n * factorial(n))
        assert closed_form == len(_all_bases(n, p)) // (p - 1) ** n  # unordered bases / units
        union = 0
        for frames in table.values():
            union |= frames
        assert union == (1 << closed_form) - 1, (n, p)
        # each frame has its 2^n - 2 coordinate summands, each subspace an entry
        assert sum(f.bit_count() for f in table.values()) == closed_form * (2 ** n - 2)
        assert len(table) == len(all_subspaces(n, p, 1, n - 1))
    # the frame cap counts frames by the closed form: it admits F_5^3 (3,875)
    # and F_61^2 (1,891) and stops F_7^3 (26,068); the bitset cap stops
    # F_67^2 (2,278 frames)
    assert 3_875 <= complexes._FRAME_CAP < 26_068 and complexes._frame_table(2, 61) is not None
    assert complexes._frame_table(3, 7) is None and complexes._frame_table(2, 67) is None
    rng = random.Random(2111)
    seen = set()
    for n, p in [(3, 2), (3, 3), (4, 2)]:
        ring = GF(p)
        for trial in range(300):
            k = rng.randint(1, 6)
            if trial % 2:
                members = [random_subspace(rng, n, p) for _ in range(k)]
            else:  # coordinate summands of one basis, one of them perhaps moved
                basis = random_invertible_mod_p(rng, n, p).entries
                members = [span(ring, n, [basis[i] for i in range(n) if rng.random() < 0.5])
                           for _ in range(k)]
                if trial % 4:
                    members[0] = random_subspace(rng, n, p)
            frames = complexes._has_common_basis(ring, n, tuple(members))
            assert frames == cbp.has_cbp_ie(collection(members, ring, n)), members
            seen.add(frames)
    assert seen == {True, False}


def _captured_relations(monkeypatch, a: int, b: int, n: int, p: int):
    """The labels and slot relation ``higher_tits(a, b, n, p)`` hands to its
    enumerator, captured without building."""
    got = []

    def capture(labels, related, *rest):
        got.append((labels, related))
        return empty_complex()

    with monkeypatch.context() as m:
        m.setattr(complexes, "_clique_complex", capture)
        m.setattr(complexes, "_common_basis_build", capture)
        higher_tits(a, b, n, p)
    return got[0]


def test_mask_slot_relation_matches_the_contains_reference(monkeypatch):
    # element masks up to the bitset cap; with the cap at 0, the subspaces
    cases = [(cbp._FP_BITS_CAP, n, p) for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]]
    for cap, n, p in cases + [(0, 2, 3), (0, 3, 2)]:
        monkeypatch.setattr(complexes, "_FP_BITS_CAP", cap)
        for a, b in _CLASSES:
            labels, related = _captured_relations(monkeypatch, a, b, n, p)
            tagged = labels if a + b > 1 else [(0, lbl) for lbl in labels]
            edges = 0
            for i, (si, x) in enumerate(tagged):
                for j in range(i + 1, len(tagged)):
                    sj, y = tagged[j]
                    want = si != sj or reference_comparable(x, y)
                    assert related(i, j) == related(j, i) == want, (a, b, n, p, x, y)
                    edges += want
            assert edges > 0 or (n, a + b) == (2, 1), (a, b, n, p)


def test_caps_raise():
    with pytest.raises(CapExceeded, match="^26 vertices exceeds the cap 10$"):
        tits(3, 3, max_vertices=10)
    with pytest.raises(CapExceeded, match="^12 vertices exceeds the cap 11$"):
        split_tits(2, 3, max_vertices=11)
    with pytest.raises(CapExceeded):
        common_basis_complex(3, 2, max_simplices=100)


def test_sigma_is_checked_before_the_vertex_cap():
    # the three lines of F_2^2 are pairwise but not jointly compatible
    f2 = GF(2)
    lines = collection([span(f2, 2, [v]) for v in [(1, 0), (0, 1), (1, 1)]])
    with pytest.raises(ComplexError, match="must itself have a common basis"):
        higher_tits(1, 0, 2, 2, lines, max_vertices=1)
    with pytest.raises(ComplexError, match="wrong ambient space"):
        higher_tits(1, 0, 3, 2, lines, max_vertices=1)
    with pytest.raises(CapExceeded):
        higher_tits(1, 0, 2, 2, collection([span(f2, 2, [(1, 0)])]), max_vertices=1)


def test_morse_triangle_example():
    tri = common_basis_complex(2, 2)
    inst = morse_check(tri, [(0,)])
    assert inst.subcomplex.f_vector() == [2, 1]
    assert inst.links[(0,)].f_vector() == [2]
    report = morse_certificate(inst)
    assert report.ok and report.relative.betti(1) == 1


def test_morse_hypothesis_violations():
    tri = common_basis_complex(2, 2)
    with pytest.raises(MorseHypothesisViolated) as err:
        morse_check(tri, [(0,), (1,)])  # two vertices of one edge
    assert err.value.condition == "ii"
    wrong_y = tri.restrict([(1,), (2,)])
    with pytest.raises(MorseHypothesisViolated) as err:
        morse_check(tri, [(0,)], expected_subcomplex=wrong_y)
    assert err.value.condition == "i"
    with pytest.raises(MorseHypothesisViolated):
        morse_check(tri, [(0, 1, 2)])  # not a simplex of the complex


def test_morse_random_instances_certify():
    rng = random.Random(71)
    for _ in range(30):
        x, s = random_morse_instance(rng)
        inst = morse_check(x, s)
        assert morse_certificate(inst).ok


def test_morse_certificate_sees_torsion():
    # cone over the 6-vertex projective plane, collapsing everything but the
    # base: the relative homology and the shifted link homology share the
    # order-2 torsion class
    rp2 = [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    cone = from_label_facets([(0,) + f for f in rp2])
    apex = (cone.index_of(0),)
    inst = morse_check(cone, [apex])
    report = morse_certificate(inst)
    assert report.ok
    assert report.relative.torsion(2) == (2,)


def test_morse_derived_subcomplex_matches_given():
    rng = random.Random(73)
    x, s = random_morse_instance(rng)
    inst = morse_check(x, s)
    again = morse_check(x, s, expected_subcomplex=inst.subcomplex)
    assert again.subcomplex == inst.subcomplex


def test_intersection_of_relative_buildings_smoke():
    # two distinct complements of a line in the plane leave only the star
    line = span(GF(2), 2, [(1, 0)])
    sigma = collection([line])
    others = [s for s in all_subspaces(2, 2, 1, 1) if s != line]
    pieces = []
    for c in others:
        sig = collection([line, c])
        pieces.append(higher_tits(1, 0, 2, 2, sig))
    x = intersect_complexes(pieces)
    prof = homology(chains(x))
    assert prof.is_trivial()  # a single point


def test_stabilization_tower_low_degrees():
    # The k-fold towers agree with the common basis complex in every degree
    # up to 2n-3 once k > n; the top-degree extra classes move up with k.
    cb = homology(chains(common_basis_complex(2, 2)))
    for k in (3, 4, 5):
        tower = homology(chains(higher_tits(k, 0, 2, 2)))
        for d in range(-1, 2):
            assert tower.betti(d) == cb.betti(d)
            assert tower.torsion(d) == cb.torsion(d)
    # at k = n the tower is not yet stable: the junk sits in degree 2n-3
    assert homology(chains(higher_tits(2, 0, 2, 2))).betti(1) == 4 != cb.betti(1)


@pytest.mark.slow
def test_stabilization_tower_rank_three():
    cb = homology(chains(common_basis_complex(3, 2)))
    t3 = homology(chains(higher_tits(3, 0, 3, 2)))
    for d in range(-1, 4):
        assert t3.betti(d) == cb.betti(d) and t3.torsion(d) == cb.torsion(d)
    # cut at dimension 4, the complex has every boundary into degree 3
    k4 = higher_tits(4, 0, 3, 2, max_dim=4)
    prof = homology(chains(k4), up_to_degree=3)
    for d in range(-1, 4):
        assert prof.betti(d) == cb.betti(d) and prof.torsion(d) == cb.torsion(d)
