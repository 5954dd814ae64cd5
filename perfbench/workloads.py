"""Seeded inputs for the three workloads, as plain integers.

Nothing here imports ``commonbasis``: the program under test receives only
what these generators return, and the same seed always gives the same
inputs.  The item runners that call into the program live in ``child.py``.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from oracles import subspace_elements

# cbp-z: collections of summands of Z^n.
CBPZ_ITEMS = 1000
CBPZ_N = (3, 6)
CBPZ_K = (3, 6)
CBPZ_BLOCK = 8  # the last item of each block of 8 replays an earlier one: reuse 1/8

# building-f3: relative buildings higher_tits(1, 0, 3, 3, sigma).
F3_N, F3_P = 3, 3
F3_SHAPE_COPIES = 2  # 41 shapes of sigma, each twice: 82 relative buildings

# koszul: the Koszulness instances of acceptance criterion 10, tor(3, 2) first.
KOSZUL_INSTANCES = ((3, 2), (1, 2), (2, 2), (2, 3))


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """An n x n integer matrix of determinant +-1: a shuffled, sign-flipped
    identity mixed by elementary row operations with small coefficients."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    for row in rows:
        if rng.random() < 0.5:
            row[:] = [-x for x in row]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _mixed(rng: random.Random, rows: list[list[int]], redundant: bool) -> list[list[int]]:
    """Generators of the lattice spanned by ``rows``: the rows themselves,
    mixed among each other, with one redundant combination if asked."""
    out = [list(r) for r in rows]
    if len(out) > 1:
        for _ in range(len(out)):
            i, j = rng.sample(range(len(out)), 2)
            c = rng.choice((-1, 1))
            out[i] = [a + c * b for a, b in zip(out[i], out[j])]
    if redundant:
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        out.append([a + b for a, b in zip(out[i], out[j])])
    rng.shuffle(out)
    return out


def _ranks(shape: random.Random, n: int, k: int, distinct: bool) -> list[int]:
    """k member ranks from 1 to n - 1; with ``distinct``, no rank r more
    often than Z^n has coordinate subsets of size r."""
    while True:
        ranks = [shape.randint(1, n - 1) for _ in range(k)]
        if not distinct or all(ranks.count(r) <= comb(n, r) for r in ranks):
            return ranks


def cbpz_items(seed: int) -> list[dict]:
    """The cbp-z stream.  Each item: ``n``, ``members`` (a list of generator
    row lists, one per summand), ``kind`` and ``planted`` (True, False or None
    for an independent draw).

    The make-up is the same for every seed: in each block of eight items,
    three planted true, two planted false, two independent draws and one
    replay of one of the seven items before it; each kind walks the 16
    sizes (n, k) in a fixed order.  The ranks of the members and which
    members get a redundant generator are drawn from a fixed stream too:
    an item's cost grows steeply with its members' ranks, so drawing them
    from the seed would make the slowest items, and ``item_tail_ms``, a
    property of the seed.  The seed draws the lattices: the bases, which
    coordinates each member takes, the mixing and the order of members."""
    rng = random.Random(f"cbp-z/{seed}")
    shape = random.Random("cbp-z/make-up")
    sizes = [(n, k) for n in range(CBPZ_N[0], CBPZ_N[1] + 1) for k in range(CBPZ_K[0], CBPZ_K[1] + 1)]
    made = {"true": 0, "false": 0, "independent": 0}
    items: list[dict] = []
    for index in range(CBPZ_ITEMS):
        block, slot = divmod(index, CBPZ_BLOCK)
        if slot == CBPZ_BLOCK - 1:
            items.append(dict(items[index - slot + block % slot], kind="repeat"))
            continue
        kind = ("true", "false", "independent")[slot % 3]
        n, k = sizes[made[kind] % len(sizes)]
        made[kind] += 1
        basis = random_unimodular(rng, n)
        if kind == "true":
            subsets: list[list[int]] = []
            for r in _ranks(shape, n, k, distinct=True):
                s = sorted(rng.sample(range(n), r))
                while s in subsets:
                    s = sorted(rng.sample(range(n), r))
                subsets.append(s)
            members = [_mixed(rng, [basis[i] for i in s], shape.random() < 0.5) for s in subsets]
            planted = True
        elif kind == "false":
            b1, b2 = basis[0], basis[1]
            members = [
                [[a + b for a, b in zip(b1, b2)]],
                [[a - b for a, b in zip(b1, b2)]],
            ]
            members += [
                _mixed(rng, [basis[i] for i in sorted(rng.sample(range(n), r))], shape.random() < 0.5)
                for r in _ranks(shape, n, k - 2, distinct=False)
            ]
            planted = False
        else:
            members = []
            for r in _ranks(shape, n, k, distinct=False):
                own = random_unimodular(rng, n)
                members.append(_mixed(rng, own[:r], shape.random() < 0.5))
            planted = None
        rng.shuffle(members)
        items.append({"n": n, "members": members, "kind": kind, "planted": planted})
    return items


def f3_sigmas(seed: int) -> list[list[list[list[int]]]]:
    """Relative collections for the building-f3 workload.  A sigma's shape
    is a set of 1 to 3 distinct proper nonempty subsets of {0, 1, 2}; there
    are 41 shapes, and every seed gets each shape twice, in a seeded order,
    each time on its own random basis of F_3^3.  Sigmas of one shape differ
    by a change of basis, so their relative buildings are isomorphic and
    every seed asks for the same amount of work."""
    rng = random.Random(f"building-f3/{seed}")
    subsets = [list(s) for r in range(1, F3_N) for s in combinations(range(F3_N), r)]
    shapes = [c for k in range(1, 4) for c in combinations(subsets, k)]
    order = shapes * F3_SHAPE_COPIES
    rng.shuffle(order)
    out = []
    for shape in order:
        basis = random_basis_mod_p(rng, F3_N, F3_P)
        out.append([[basis[i] for i in s] for s in shape])
    return out


def random_basis_mod_p(rng: random.Random, n: int, p: int) -> list[list[int]]:
    """Rows of a random invertible n x n matrix over F_p, by rejection."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(subspace_elements(rows, p)) == p ** n:
            return rows
