
from itertools import combinations

import pytest

from commonbasis.exactlin import GF, ambient_module, span, zero_module
from commonbasis.simpmodel import (
    BasedChainMap,
    ModelError,
    _shuffles,
    _spread_code,
    _spreader,
    check_bar_model,
    check_suspension,
    d_model,
    dump_model,
    mu_chain,
    ordered_decompositions,
    tensor_chain_complex,
)
from helpers import (
    activity,
    apply_gl_to_simplex,
    block_swap_rows,
    reference_apply_degens,
    reference_model_complex,
    reference_model_simplices,
)


def sizes(model):
    return {d: len(s) for d, s in model.simplices.items()}


def test_flag_model_simplices_are_strict_flags():
    # one lattice factor: nondegenerate simplices = strict pinned flags
    m = d_model(1, 0, 3, 2)
    assert sizes(m) == {1: 1, 2: 14, 3: 21}
    for d, simps in m.simplices.items():
        for s in simps:
            flag = s[0]
            assert flag[0].is_zero and flag[-1].is_ambient
            for a, b in zip(flag, flag[1:]):
                assert a.rank < b.rank and a <= b


def test_model_worked_examples():
    assert str(d_model(1, 0, 1, 3).homology()) == "H~_1 = Z"
    assert d_model(1, 0, 2, 2).homology().betti(2) == 2
    assert d_model(2, 0, 2, 2).homology().betti(4) == 4
    assert d_model(1, 0, 1, 2).homology().nonzero_degrees() == [1]


def test_rank_zero_model_is_unit():
    m = d_model(1, 0, 0, 5)
    assert sizes(m) == {0: 1}
    assert m.homology().betti(0) == 1
    zero = zero_module(GF(2), 0)
    assert tuple(d_model(1, 1, 0, 2).simplices[0]) == (((zero,), ()),)
    with pytest.raises(ModelError):
        d_model(1, 0, -1, 5)


# Every model class the suite builds, with tor(2, 3)'s two-factor model and
# the one-factor models of rank 3 over F_3.
MODEL_CLASSES = [(1, 0, 2, 2), (1, 1, 2, 2), (2, 0, 2, 2), (0, 2, 2, 2),
                 (1, 0, 2, 3), (1, 0, 3, 2), (0, 1, 3, 2), (1, 1, 2, 3),
                 (2, 0, 2, 3), (1, 0, 3, 3), (0, 1, 3, 3)]


def test_decoded_view_matches_the_submodule_enumeration():
    for a, b, n, p in MODEL_CLASSES:
        m = d_model(a, b, n, p)
        assert sizes(m) == {d: len(codes) for d, codes in m.codes.items()}
        assert m._decoded == {}, (a, b, n, p)  # lengths are read from the codes
        want = reference_model_simplices(a, b, n, p)
        assert list(m.simplices) == list(want), (a, b, n, p)
        for d, simps in want.items():
            assert tuple(m.simplices[d]) == simps, (a, b, n, p, d)
            assert m.index[d] == {s: i for i, s in enumerate(simps)}, (a, b, n, p, d)


def test_spreading_a_code_equals_its_degeneracies():
    # a code spread with its steps at `positions` is the simplex with the
    # degeneracies at the other steps, and with its cores moved into a
    # subspace it is that simplex's image
    for a, b, n, p in MODEL_CLASSES:
        m = d_model(a, b, n, p)
        ring = GF(p)
        zero = zero_module(ring, n)
        part = span(ring, n + 1, [[int(i == j or j == n) for j in range(n + 1)] for i in range(n)])
        spread, moved = _spreader(a, b, n, p), _spreader(a, b, n, p, part)
        checked = 0
        for r, codes in m.codes.items():
            for code, simplex in zip(codes, m.simplices[r]):
                for degree in range(r, r + 3):
                    for positions in combinations(range(degree), r):
                        missing = [j for j in range(degree) if j not in positions]
                        want = reference_apply_degens(simplex, missing, a, zero)
                        assert _spread_code(spread, code, positions, degree) == want, (a, b, n, p, code)
                        if n <= 2:
                            assert _spread_code(moved, code, positions, degree) == apply_gl_to_simplex(
                                want, part.basis, ring, n + 1), (a, b, n, p, code)
                        checked += 1
        assert checked > len(m.codes), (a, b, n, p)


def test_model_cap_is_checked_per_simplex():
    total = sum(sizes(d_model(1, 1, 2, 2)).values())
    with pytest.raises(ModelError):
        d_model(1, 1, 2, 2, max_simplices=total - 1)
    assert sum(sizes(d_model(1, 1, 2, 2, max_simplices=total)).values()) == total


def test_faces_hit_basepoint_at_the_ends():
    m = d_model(1, 0, 2, 2)
    (gen,) = m.simplices[1]
    for s in m.simplices[2]:
        assert m.face(s, 1) == gen
    for a, b, n, p in MODEL_CLASSES:
        m = d_model(a, b, n, p)
        for d, simps in m.simplices.items():
            for s in simps:
                assert activity(m, s) == (1 << d) - 1, (a, b, n, p, d)
                assert m.face(s, 0) is None and m.face(s, d) is None, (a, b, n, p, d)


def test_model_boundary_matches_the_filtered_reference():
    # the boundary built from inner faces alone equals, entry for entry
    # and in order, the one that filters every face for nondegeneracy
    for a, b, n, p in MODEL_CLASSES:
        m = d_model(a, b, n, p)
        got = m.chain_complex().boundaries
        want = reference_model_complex(m).boundaries
        assert list(got) == list(want), (a, b, n, p)
        for d in want:
            assert _flat(got[d]) == _flat(want[d]), (a, b, n, p, d)


def _flat(columns):
    """The entries of a matrix stored by column, in storage order."""
    return [((r, c), v) for c, column in columns.items() for r, v in column.items()]


def test_homology_supported_in_expected_degree_window():
    for a, b, n, p in [(1, 0, 2, 2), (2, 0, 2, 2), (1, 1, 2, 2), (0, 1, 2, 2), (0, 2, 2, 2)]:
        prof = d_model(a, b, n, p).homology()
        for d in prof.nonzero_degrees():
            assert a + b <= d <= n * (a + b) + 1


def test_forget_complement_comparison():
    for a, b, n in [(1, 1, 1), (1, 1, 2)]:
        with_split = d_model(a, b, n, 2).homology()
        without = d_model(a + b, 0, n, 2).homology()
        assert with_split == without


def test_suspension_reports():
    for a, b, n, p in [(1, 0, 2, 2), (0, 1, 2, 2), (2, 0, 2, 2), (1, 1, 2, 2),
                       (0, 2, 2, 2), (1, 0, 1, 2), (1, 0, 2, 3)]:
        rep = check_suspension(a, b, n, p)
        assert rep.ok, (a, b, n, p)
    with pytest.raises(ModelError):
        check_suspension(1, 0, 0, 2)


def test_mu_unit_is_identity():
    chain_map, pairs, mz = mu_chain(1, 0, 0, 2, 2)
    for d, mat in chain_map.matrices.items():
        assert mat == {i: {i: 1} for i in range(mz.chain_complex().size(d))}


def test_chain_map_commutation_is_checked():
    chain_map, _, _ = mu_chain(1, 0, 1, 1, 2)
    perturbed = 0
    for d, mat in chain_map.matrices.items():
        for c, column in mat.items():
            for r in column:
                matrices = {e: {cc: dict(col) for cc, col in m.items()}
                            for e, m in chain_map.matrices.items()}
                matrices[d][c][r] += 1
                with pytest.raises(ModelError):
                    BasedChainMap(chain_map.domain, chain_map.codomain, matrices)
                perturbed += 1
    assert perturbed


def test_mu_on_two_lines_is_signed_flag_sum():
    chain_map, pairs, mz = mu_chain(1, 0, 1, 1, 2)
    col = pairs[2][(1, 0, 0)]
    image = chain_map.matrices[2].get(col, {})
    flags = mz.simplices[2]
    line_left = span(GF(2), 2, [(1, 0)])
    line_right = span(GF(2), 2, [(0, 1)])
    want = {}
    for idx, s in enumerate(flags):
        if s[0][1] == line_left:
            want[idx] = 1
        elif s[0][1] == line_right:
            want[idx] = -1
    assert image == want


def test_shuffle_signs_and_count():
    shuffles = list(_shuffles(1, 1))
    assert len(shuffles) == 2
    assert {(alpha, sign) for alpha, _, sign in shuffles} == {((0,), 1), ((1,), -1)}
    assert len(list(_shuffles(2, 1))) == 3


def test_shuffle_product_strictly_associative():
    # EZ shuffles compose associatively at chain level: compare the two
    # bracketings on a sample of generator triples.
    p = 2
    mu12, pairs12, m3 = mu_chain(1, 0, 1, 2, p)
    mu11, pairs11, m2 = mu_chain(1, 0, 1, 1, p)
    mu21, pairs21, m3b = mu_chain(1, 0, 2, 1, p)
    # (x*y)*z and x*(y*z) for the unique degree-1 generators x,y,z
    xy = mu11.matrices[2].get(pairs11[2][(1, 0, 0)], {})
    xy_z = {}
    for r, v in xy.items():
        col = pairs21[3][(2, r, 0)]
        for rr, vv in mu21.matrices[3].get(col, {}).items():
            xy_z[rr] = xy_z.get(rr, 0) + v * vv
    yz = mu11.matrices[2].get(pairs11[2][(1, 0, 0)], {})
    # yz lives over the LAST two coordinates inside rank 3; recompute through
    # the (1,2) route: x tensor (y*z)
    x_yz = {}
    for r, v in yz.items():
        col = pairs12[3][(1, 0, r)]
        for rr, vv in mu12.matrices[3].get(col, {}).items():
            x_yz[rr] = x_yz.get(rr, 0) + v * vv
    xy_z = {r: v for r, v in xy_z.items() if v}
    x_yz = {r: v for r, v in x_yz.items() if v}
    assert xy_z == x_yz and xy_z


def test_mu_graded_commutativity_via_block_swap():
    p = 2
    for (m, n) in [(1, 1), (1, 2)]:
        mu_f, pairs_f, mz = mu_chain(1, 0, m, n, p)
        mu_b, pairs_b, _ = mu_chain(1, 0, n, m, p)
        g = block_swap_rows(n, m)  # moves the n-block past the m-block
        ring = GF(p)
        perm = {}
        for d, simps in mz.simplices.items():
            perm[d] = [mz.index[d][apply_gl_to_simplex(s, g, ring, m + n)] for s in simps]
        for d, idx in pairs_f.items():
            for (i, xi, yj), col in idx.items():
                fwd = mu_f.matrices.get(d, {}).get(col, {})
                back_col = pairs_b[d][(d - i, yj, xi)]
                back = mu_b.matrices.get(d, {}).get(back_col, {})
                swapped = {}
                for r, v in back.items():
                    swapped[perm[d][r]] = v
                sign = (-1) ** (i * (d - i))
                assert fwd == {r: sign * v for r, v in swapped.items()}


def test_ordered_decompositions_counts():
    assert len(ordered_decompositions(2, 2, 2)) == 6
    assert len(ordered_decompositions(3, 2, 3)) == 168
    assert len(ordered_decompositions(3, 2, 2)) == 28 + 28
    assert ordered_decompositions(2, 2, 1) == [(ambient_module(GF(2), 2),)]


def test_bar_model_bijection():
    # (1, 0, 3, 2) is the first instance with bar degree 3, where an inner
    # bar face multiplies two slots into one of several
    for args in [(1, 0, 1, 2), (1, 0, 2, 2), (0, 1, 2, 2), (1, 0, 3, 2)]:
        rep = check_bar_model(*args)
        assert rep.ok, args
    rep = check_bar_model(1, 0, 2, 2)
    assert rep.counts[(1, 1)] == (1, 1)
    assert rep.counts[(2, 2)] == (12, 12)
    assert rep.counts[(3, 3)] == (0, 0)


def test_bar_model_matches_extra_splitting_factor_counts():
    # bidegree (p, q) of the bar side matches the (a, b+1) model when the
    # first factors sit at degree p and the new splitting slot at degree q
    rep = check_bar_model(1, 0, 1, 2)
    assert rep.counts[(1, 1)] == (1, 1)
    assert all(lhs == rhs for lhs, rhs in rep.counts.values())


def test_tensor_complex_boundary_squares_to_zero():
    m = d_model(1, 0, 2, 2)
    c = m.chain_complex()
    tensor, _ = tensor_chain_complex(c, c)  # constructor checks d*d = 0
    assert tensor.size(2) == 1 and tensor.size(4) == 9


def test_dump_model_golden():
    text = dump_model(d_model(1, 0, 2, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "#model a=1 b=0 n=2 ring=F2"
    assert lines[1] == "#degree 1 count 1"
    assert lines[2] == "[] [1,0,0,1]"
    assert lines[3] == "#degree 2 count 3"
    assert lines[4] == "[] [0,1] [1,0,0,1]"
