import random

import pytest

from commonbasis import cbp, complexes
from commonbasis.cbp import collection
from commonbasis.complexes import (
    from_label_facets,
    CapExceeded,
    ComplexError,
    MorseHypothesisViolated,
    common_basis_complex,
    dump_complex,
    empty_complex,
    higher_tits,
    intersect_complexes,
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
from helpers import brute_force_cbp, reference_common_basis_complex, reference_higher_tits


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
    assert len(st32.simplices_of_dim(1)) == len(ordered_decompositions(3, 2, 3))
    assert len(st32.simplices_of_dim(0)) == len(ordered_decompositions(3, 2, 2))


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
                     if rel.has_label_simplex([v])]
            full = t.full_subcomplex(verts)
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
    star = tri.star((0,))
    assert star.f_vector() == [3, 2]
    assert tri.full_subcomplex([0, 1, 2]) == tri
    with pytest.raises(ComplexError):
        tri.link((0, 1, 2))


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
    # the complexes cut out by has_cbp_ie equal those cut out by the
    # brute-force oracle, which searches every basis of F_p^n
    instances = [(common_basis_complex, (n, p)) for n, p in [(2, 2), (3, 2), (2, 3)]]
    instances += [(higher_tits, args) for args in [(2, 0, 2, 2), (1, 1, 2, 2), (2, 0, 3, 2)]]
    built = [build(*args) for build, args in instances]
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
    for args in [(2, 0, 2, 2), (1, 1, 2, 3), (2, 0, 3, 2)]:
        assert higher_tits(*args) == reference_higher_tits(*args)
    for sigma in _sigmas(common_basis_complex(3, 3)):
        assert higher_tits(1, 0, 3, 3, sigma) == reference_higher_tits(1, 0, 3, 3, sigma)


def test_builders_decide_each_member_set_once(monkeypatch):
    decided = []

    def recording(col):
        decided.append(frozenset(col.members))
        return cbp.has_cbp_ie(col)

    monkeypatch.setattr(complexes, "has_cbp_ie", recording)
    line = span(GF(2), 2, [(1, 0)])
    for build, args in [(common_basis_complex, (3, 2)), (higher_tits, (2, 0, 2, 2)),
                        (higher_tits, (1, 0, 2, 2, collection([line])))]:
        decided.clear()
        build(*args)
        assert decided and len(set(decided)) == len(decided), (build.__name__, args)


def test_bitset_and_generic_backends_build_the_same_complexes(monkeypatch):
    cb = common_basis_complex(3, 3)
    sigmas = _sigmas(cb)

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


def test_caps_raise():
    with pytest.raises(CapExceeded):
        tits(3, 3, max_vertices=10)
    with pytest.raises(CapExceeded):
        common_basis_complex(3, 2, max_simplices=100)


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
    k4 = higher_tits(4, 0, 3, 2)
    prof = homology(chains(k4), up_to_degree=3)
    for d in range(-1, 4):
        assert prof.betti(d) == cb.betti(d) and prof.torsion(d) == cb.torsion(d)
