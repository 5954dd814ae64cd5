import hashlib
import json
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from commonbasis.cbp import collection
from commonbasis.complexes import (
    common_basis_complex,
    dump_complex,
    higher_tits,
    join,
    load_complex,
    morse_check,
    random_morse_instance,
    split_tits,
    tits,
)
from commonbasis.exactlin import GF, _snf_dense
from commonbasis.homology import (
    ChainComplex,
    HomologyError,
    HomologyProfile,
    assemble,
    chains,
    homology,
    is_c_connected_homologically,
    relative_chains,
    relative_homology,
    snf_divisors,
)
from commonbasis.simpmodel import d_model
from commonbasis.steinberg import bar_complex
from helpers import (
    empty_complex,
    from_label_facets,
    reference_chains,
    reference_dump_complex,
    reference_snf_divisors,
)

RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def _triangle():
    return common_basis_complex(2, 2)  # boundary of a triangle


def test_chain_sizes():
    c = chains(_triangle())
    assert {d: c.size(d) for d in c.degrees()} == {-1: 1, 0: 3, 1: 3}
    c = chains(empty_complex())
    assert {d: c.size(d) for d in c.degrees()} == {-1: 1}
    single = from_label_facets([["v"]])
    assert {d: chains(single).size(d) for d in chains(single).degrees()} == {-1: 1, 0: 1}


def test_homology_examples():
    assert str(homology(chains(_triangle()))) == "H~_1 = Z"
    assert homology(chains(empty_complex())).betti(-1) == 1
    k33 = join(tits(2, 2), tits(2, 2))
    assert homology(chains(k33)).betti(1) == 4
    assert homology(chains(from_label_facets([["v"]]))).is_trivial()


def test_boundary_squared_checked():
    with pytest.raises(HomologyError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: {0: {0: 1}}, 2: {0: {0: 1}}})


def test_chain_complex_validates_its_columns():
    sizes = {0: 2, 1: 1}
    for bad in [{1: {0: {2: 1}}}, {1: {0: {-1: 1}}},  # row out of range
                {1: {1: {0: 1}}}, {1: {-1: {0: 1}}},  # column out of range
                {2: {0: {0: 1}}}]:  # degree 2 has no basis
        with pytest.raises(HomologyError):
            ChainComplex(sizes, bad)
    with pytest.raises(HomologyError):  # the degree below has no basis
        ChainComplex({1: 1}, {1: {0: {0: 1}}})
    # zero entries are dropped, then all-zero columns and boundaries
    c = ChainComplex({0: 2, 1: 3}, {1: {0: {0: 1, 1: 0}, 1: {1: 0}, 2: {1: -1}}, 2: {0: {0: 0}}})
    assert c.boundaries == {1: {0: {0: 1}, 2: {1: -1}}}


def test_assemble_rejects_an_unindexed_face():
    index = {0: {"v": 0}, 1: {"e": 0}}
    assert assemble(index, lambda d, e: [("v", 1)] if d == 1 else []).boundaries == {1: {0: {0: 1}}}
    with pytest.raises(HomologyError):
        assemble(index, lambda d, e: [("w", 1)] if d == 1 else [])
    with pytest.raises(HomologyError):
        assemble(index, lambda d, e: [("v", 1)])  # degree 0 has no degree -1


def test_levels_order_equals_the_sort_and_index_route(tmp_path):
    # chains, relative_chains and dump_complex read a complex's levels; the
    # route that sorts its simplex frozenset and indexes it afresh gives the
    # same bases, the same boundaries entry for entry and the same bytes
    cb32, t32, st32 = common_basis_complex(3, 2), tits(3, 2), split_tits(3, 2)
    sigma = collection([cb32.vertices[0], cb32.vertices[-1]], ring=GF(2), ambient=3)
    relative = higher_tits(1, 0, 3, 2, sigma)
    lines = dump_complex(st32).splitlines()
    head = 1 + len(st32.vertices)
    reversed_file = tmp_path / "reversed.cplx"  # the simplex lines in reverse order
    reversed_file.write_text("\n".join(lines[:head] + lines[head:][::-1]) + "\n")
    loaded = load_complex(reversed_file.read_text())
    assert loaded == st32
    x, s = _cone_over_rp2_morse()
    classes = {
        "tits(3,3)": tits(3, 3),
        "split_tits(3,2)": st32,
        "common_basis_complex(3,2)": cb32,
        "higher_tits(2,0,3,2)": higher_tits(2, 0, 3, 2),
        "higher_tits(1,1,2,3)": higher_tits(1, 1, 2, 3),
        "relative building": relative,
        "join": join(tits(2, 2), t32),
        "link": cb32.link((0,)),
        "restrict": t32.restrict(t for t in t32 if 0 not in t),
        "loaded file": loaded,
        "empty": empty_complex(),
    }
    for name, k in classes.items():
        c, ref = chains(k), reference_chains(k)
        assert c.sizes == ref.sizes and c.boundaries == ref.boundaries, name
        assert dump_complex(k) == reference_dump_complex(k), name
    pairs = [(cb32, t32), (t32, relative), (cb32, classes["link"]), (t32, classes["restrict"]),
             (cb32, cb32), (t32, empty_complex()), (x, morse_check(x, s).subcomplex),
             (empty_complex(), empty_complex())]
    for k, sub in pairs:
        c, ref = relative_chains(k, sub), reference_chains(k, sub)
        assert c.sizes == ref.sizes and c.boundaries == ref.boundaries, (k, sub)


def test_torsion_detected_projective_plane():
    # minimal 6-vertex triangulation of the projective plane
    k = from_label_facets(RP2_FACETS)
    assert k.f_vector() == [6, 15, 10]
    prof = homology(chains(k))
    assert prof.torsion(1) == (2,) and prof.betti(1) == 0 and prof.betti(2) == 0


def test_relative_homology_examples():
    tri = _triangle()
    arc = tri.restrict([(0,), (1,), (2,), (0, 1), (0, 2)])
    prof = relative_homology(tri, arc)
    assert prof.betti(1) == 1 and prof.nonzero_degrees() == [1]
    assert relative_homology(tri, tri).is_trivial()
    with pytest.raises(HomologyError):
        relative_homology(arc, tri)


def test_relative_homology_remaps_foreign_vertex_universe():
    # a subcomplex built over its own (smaller) label universe is
    # re-expressed in the ambient complex's indexing before quotienting
    tri = _triangle()
    edge = from_label_facets([[tri.vertices[0], tri.vertices[1]]])
    assert edge.vertices != tri.vertices
    prof = relative_homology(tri, edge)
    assert prof.betti(1) == 1 and prof.nonzero_degrees() == [1]


def test_relative_homology_of_empty_subcomplex_is_unreduced():
    tri = _triangle()
    prof = relative_homology(tri, tri.restrict([]))
    assert prof.betti(0) == 1 and prof.betti(1) == 1


def test_connectivity_predicate():
    tri = _triangle()
    assert is_c_connected_homologically(tri, 0)
    assert not is_c_connected_homologically(tri, 1)
    assert is_c_connected_homologically(tits(4, 2), 1)
    assert not is_c_connected_homologically(empty_complex(), -1)
    assert is_c_connected_homologically(empty_complex(), -2)


def test_sparse_snf_against_dense():
    rng = random.Random(61)
    for _ in range(250):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        columns: dict[int, dict[int, int]] = {}
        for r in range(m):
            for c in range(n):
                if rng.random() < 0.4:
                    columns.setdefault(c, {})[r] = rng.randint(-6, 6)
        sparse = snf_divisors(columns)
        rows = [[columns.get(c, {}).get(r, 0) for c in range(n)] for r in range(m)]
        dense, _ = _snf_dense(rows, n)
        assert sparse == dense


def test_sparse_snf_recovers_planted_divisors():
    # conjugating a known diagonal by random unimodular matrices must give
    # back exactly the planted divisor chain
    from helpers import random_unimodular

    rng = random.Random(71)
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        r = rng.randint(1, min(m, n))
        planted = [1]
        for _ in range(r - 1):
            planted.append(planted[-1] * rng.choice([1, 1, 2, 3]))
        u = random_unimodular(rng, m).entries
        v = random_unimodular(rng, n).entries
        columns: dict[int, dict[int, int]] = {}
        for i in range(m):
            for j in range(n):
                val = sum(u[i][k] * planted[k] * v[k][j] for k in range(r))
                if val:
                    columns.setdefault(j, {})[i] = val
        assert snf_divisors(columns) == planted


def test_kunneth_for_joins_of_buildings():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        t = tits(n, p)
        left = homology(chains(t))
        assert not left.has_torsion()
        j = homology(chains(join(t, t)))
        expected = {}
        for d1, b1, _ in left.groups:
            for d2, b2, _ in left.groups:
                d = d1 + d2 + 1
                expected[d] = expected.get(d, 0) + b1 * b2
        got = {d: b for d, b, _ in j.groups}
        assert got == {d: b for d, b in expected.items() if b}
        assert not j.has_torsion()


def test_join_with_empty_is_identity_on_homology():
    t = tits(3, 2)
    j = join(t, empty_complex())
    assert homology(chains(j)) == homology(chains(t))


def test_profile_helpers():
    prof = HomologyProfile.from_dict({1: (2, (2, 4)), 3: (0, ())})
    assert prof.betti(1) == 2 and prof.torsion(1) == (2, 4)
    assert prof.nonzero_degrees() == [1]
    assert prof.shifted(2).betti(3) == 2
    assert prof.to_jsonable() == {"1": {"betti": 2, "torsion": [2, 4]}}


def test_solomon_tits_small():
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        prof = homology(chains(tits(n, p)))
        assert prof.nonzero_degrees() == [n - 2]
        assert not prof.has_torsion()
        assert prof.betti(n - 2) == p ** (n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# Clearing: boundary_divisors drops the rows of each boundary indexed by the
# unit-phase pivot columns of the boundary below it.  The divisors must be
# those of the full, uncleared boundary in every degree.
# ---------------------------------------------------------------------------


def _entries(columns: dict[int, dict[int, int]], cleared=()) -> dict[tuple[int, int], int]:
    """A matrix stored by column, with the rows in ``cleared`` deleted, as
    the ``{(row, col): value}`` entries that ``reference_snf_divisors``
    takes: the reference reads its own copy, not the columns."""
    return {(r, c): v for c, column in columns.items() for r, v in column.items()
            if r not in cleared}


def _assert_clearing_exact(c: ChainComplex) -> int:
    """Compare cleared and uncleared divisors degree by degree; return the
    number of nonzero boundary rows that clearing had to drop."""
    dropped = 0
    for d in sorted(c.boundaries):
        full = c.boundaries[d]
        assert c.boundary_divisors(d) == snf_divisors(full), d
        below = c.boundaries.get(d - 1)
        if below:
            pivots: list[int] = []
            snf_divisors(below, (), pivots)
            cleared = set(pivots)
            dropped += len({r for column in full.values() for r in column if r in cleared})
    return dropped


def _cone_over_rp2_morse():
    """A Morse instance with torsion: the cone over the projective plane
    with S the apex, whose link is the projective plane itself."""
    apex = 0
    x = from_label_facets([(apex,) + f for f in RP2_FACETS])
    return x, [(x.index_of(apex),)]


def _complex_classes():
    cb32 = common_basis_complex(3, 2)
    sigma = collection([cb32.vertices[0], cb32.vertices[-1]], ring=GF(2), ambient=3)
    relative = higher_tits(1, 0, 3, 2, sigma)
    yield "tits(3,2)", chains(tits(3, 2))
    yield "tits(3,3)", chains(tits(3, 3))
    yield "common_basis_complex(3,2)", chains(cb32)
    yield "higher_tits(1,1,2,3)", chains(higher_tits(1, 1, 2, 3))
    yield "higher_tits(2,0,3,2)", chains(higher_tits(2, 0, 3, 2))
    yield "relative building", chains(relative)
    yield "join", chains(join(tits(2, 2), tits(3, 2)))
    yield "relative_chains(tits, relative building)", relative_chains(tits(3, 2), relative)
    yield "relative_chains(common basis complex, tits)", relative_chains(cb32, tits(3, 2))
    for a, n in [(1, 2), (1, 3), (2, 2)]:
        yield f"d_model({a},0,{n},2)", d_model(a, 0, n, 2).chain_complex()
    yield "bar_complex(3,2)", bar_complex(3, 2).complex
    rp2 = from_label_facets(RP2_FACETS)
    yield "RP2", chains(rp2)
    x, s = _cone_over_rp2_morse()
    inst = morse_check(x, s)
    yield "cone over RP2", chains(x)
    yield "Morse pair (cone over RP2, apex)", relative_chains(x, inst.subcomplex)
    for link in inst.links.values():
        yield "Morse link", chains(link)
    rng = random.Random(2011)
    for i in range(12):
        x, s = random_morse_instance(rng)
        inst = morse_check(x, s)
        yield f"random Morse {i}", chains(x)
        yield f"random Morse pair {i}", relative_chains(x, inst.subcomplex)


def test_clearing_matches_uncleared_divisors_on_every_complex_class():
    dropped = {name: _assert_clearing_exact(c) for name, c in _complex_classes()}
    # clearing had nonzero rows to drop in each of the large classes
    for name in ["tits(3,3)", "common_basis_complex(3,2)", "higher_tits(2,0,3,2)", "join",
                 "relative_chains(common basis complex, tits)", "d_model(2,0,2,2)",
                 "bar_complex(3,2)", "RP2", "Morse pair (cone over RP2, apex)"]:
        assert dropped[name] > 0, name


def _reduced_inputs(c: ChainComplex):
    """Per degree, the boundary of ``c`` as ``boundary_divisors`` reduces
    it: its rows at the unit pivots reported one degree down cleared.
    Yields the degree, the entries left after clearing, their divisors
    and their unit pivots."""
    cleared: set[int] = set()
    for d in sorted(c.boundaries):
        pivots: list[int] = []
        divisors = snf_divisors(c.boundaries[d], cleared, pivots)
        yield d, _entries(c.boundaries[d], cleared), divisors, pivots
        cleared = set(pivots)


def test_queue_engine_matches_the_heap_engine_on_every_complex_class():
    # the zero-fill queue changes only the order of the unit pivots, so the
    # divisors equal those of the heap-only engine, on the cleared
    # boundaries the chain complex reduces and on the full ones
    classes = list(_complex_classes()) + [("d_model(2,0,3,2)", d_model(2, 0, 3, 2).chain_complex())]
    for name, c in classes:
        for d, entries, divisors, _ in _reduced_inputs(c):
            m, n = c.size(d - 1), c.size(d)
            assert divisors == reference_snf_divisors(entries, m, n), (name, d)
            if name != "d_model(2,0,3,2)":  # its full boundaries take seconds per engine
                full = c.boundaries[d]
                assert snf_divisors(full) == reference_snf_divisors(_entries(full), m, n), (name, d)


def test_queue_engine_unit_pivots_clear_exactly():
    # the reported pivots are distinct columns of the matrix reduced, and
    # with the rows they index dropped one degree up, the divisors are
    # those the heap-only engine finds on the full boundary
    for name, c in _complex_classes():
        for d, entries, divisors, pivots in _reduced_inputs(c):
            assert len(set(pivots)) == len(pivots), (name, d)
            assert set(pivots) <= {col for _, col in entries}, (name, d)
            full = _entries(c.boundaries[d])
            assert divisors == reference_snf_divisors(full, c.size(d - 1), c.size(d)), (name, d)


# sha256 of the JSON list of [class name, degree, unit pivots on the
# cleared boundary, unit pivots on the full boundary] over
# ``_complex_classes()``, as the engine reported them when it read a
# ``{(row, col): value}`` copy of each boundary made column by column
_UNIT_PIVOTS_SHA256 = "bcb625236186b633efe94809abd9e0e27fcccf718c5f366aeb6f93571c1966c4"


def test_snf_reads_the_columns_in_place_and_leaves_the_cleared_rows_out():
    # clearing rows is deleting them, also rows the matrix lacks, and a
    # matrix with every row cleared has no divisors
    rng = random.Random(2022)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        columns = {c: column for c in range(n)
                   if (column := {r: rng.choice(_ENTRIES) for r in range(m) if rng.random() < 0.5})}
        cleared = {r for r in range(m + 2) if rng.random() < 0.3}
        expected = reference_snf_divisors(_entries(columns, cleared), m, n)
        assert snf_divisors(columns, cleared) == expected, (columns, cleared)
        assert snf_divisors(columns, set(range(m))) == []
    # the columns are walked in the order of the copy they replace, so every
    # unit pivot, cleared and full, is the one that copy gave; and a
    # homology run leaves the boundaries as they were
    records = []
    for name, c in _complex_classes():
        before = {d: {col: dict(column) for col, column in cols.items()}
                  for d, cols in c.boundaries.items()}
        for d, _, _, pivots in _reduced_inputs(c):
            full: list[int] = []
            snf_divisors(c.boundaries[d], (), full)
            records.append([name, d, pivots, full])
        homology(c)
        assert c.boundaries == before, name
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == _UNIT_PIVOTS_SHA256


def test_clearing_keeps_morse_torsion():
    # H(cone over RP2, RP2) is the reduced homology of RP2 shifted up by one
    x, s = _cone_over_rp2_morse()
    inst = morse_check(x, s)
    assert homology(relative_chains(x, inst.subcomplex)).torsion(2) == (2,)


def _chain_pair(d1, b2, ops):
    """Boundaries d_1 = [D1 | 0] U^-1 (k x m) and d_2 = U [0 ; B2] (m x q),
    with U the product of the elementary row operations ``ops`` on Z^m,
    so that d_1 d_2 = 0 and the divisors are those of D1 and of B2."""
    k, r = len(d1), len(d1[0])
    s, q = len(b2), len(b2[0])
    m = r + s
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    u_inv = [row[:] for row in u]
    for i, j, f in ops:
        i, j = i % m, j % m
        if i == j or not f:
            continue
        u[i] = [a + f * b for a, b in zip(u[i], u[j])]  # U <- E U
        for row in u_inv:  # U^-1 <- U^-1 E^-1
            row[j] -= f * row[i]
    lower = [[sum(d1[a][t] * u_inv[t][c] for t in range(r)) for c in range(m)] for a in range(k)]
    upper = [[sum(u[a][r + t] * b2[t][c] for t in range(s)) for c in range(q)] for a in range(m)]
    return {0: k, 1: m, 2: q}, {1: _columns_of(lower), 2: _columns_of(upper)}


def _columns_of(dense):
    """The nonzero columns of a dense matrix, as ``{col: {row: value}}``."""
    columns = {}
    for c in range(len(dense[0])):
        column = {a: row[c] for a, row in enumerate(dense) if row[c]}
        if column:
            columns[c] = column
    return columns


def _dense_divisors(rows):
    return _snf_dense(rows, len(rows[0]))[0]


def _check_pair(d1, b2, ops) -> bool:
    """Clearing is exact on the pair; returns whether the lower boundary's
    residual went through the dense fallback."""
    sizes, boundaries = _chain_pair(d1, b2, ops)
    c = ChainComplex(sizes, boundaries)
    full_lower, full_upper = snf_divisors(boundaries[1]), snf_divisors(boundaries[2])
    assert c.boundary_divisors(1) == full_lower == _dense_divisors(d1)
    assert c.boundary_divisors(2) == full_upper == _dense_divisors(b2)
    pivots: list[int] = []
    snf_divisors(boundaries[1], (), pivots)
    return len(pivots) < len(full_lower)


def test_clearing_never_uses_dense_fallback_pivots():
    # d_1 = [[1, 1, 0, 0], [0, 0, 2, 3]]: one unit pivot in row 0, and the
    # residual [2, 3] has no unit, so it goes to the dense fallback.  The
    # rows of d_2 at columns 2 and 3 are (3, -2): dropping either one would
    # turn the divisor 1 into 2 or 3.
    sizes = {0: 2, 1: 4, 2: 2}
    lower = {0: {0: 1}, 1: {0: 1}, 2: {1: 2}, 3: {1: 3}}
    upper = {0: {0: 1, 1: -1}, 1: {2: 3, 3: -2}}
    pivots: list[int] = []
    assert snf_divisors(lower, (), pivots) == [1, 1] and len(pivots) == 1
    c = ChainComplex(sizes, {1: lower, 2: upper})
    assert c.boundary_divisors(2) == [1, 1]
    assert c.boundary_divisors(1) == [1, 1]
    assert homology(c).is_trivial()


# small entries, with torsion, for the matrices D1 and B2 of _chain_pair
_ENTRIES = [0, 0, 1, -1, 2, -2, 3, 4, 6]


def test_seeded_chain_pairs_reach_the_dense_fallback():
    rng = random.Random(2014)
    dense = 0
    for _ in range(200):
        k, r, s, q = (rng.randint(1, 4) for _ in range(4))
        d1 = [[rng.choice(_ENTRIES) for _ in range(r)] for _ in range(k)]
        b2 = [[rng.choice(_ENTRIES) for _ in range(q)] for _ in range(s)]
        ops = [(rng.randrange(r + s), rng.randrange(r + s), rng.choice([-2, -1, 1, 2]))
               for _ in range(2 * (r + s))]
        dense += _check_pair(d1, b2, ops)
    assert dense >= 20


_ENTRY = st.sampled_from(_ENTRIES)


@st.composite
def _pairs(draw):
    k, r, s, q = (draw(st.integers(1, 4)) for _ in range(4))
    d1 = [[draw(_ENTRY) for _ in range(r)] for _ in range(k)]
    b2 = [[draw(_ENTRY) for _ in range(q)] for _ in range(s)]
    ops = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)),
                        max_size=12))
    return d1, b2, ops


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_clearing_is_exact_on_random_pairs(pair):
    if _check_pair(*pair):
        event("lower residual through the dense fallback")
