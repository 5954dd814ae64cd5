"""One round of a workload, in a fresh process.

``run.py`` starts this script once per round with ``PYTHONHASHSEED`` fixed,
so the program's module caches start empty, as they do for a user of the
command line.  The round sets up (imports ``commonbasis`` from the
checkout's ``src`` and builds the seeded inputs), runs the timed phase (one
item at a time, each a call into the program's public functions), then
checks every answer against the oracles, and prints one JSON line.

With ``--setup-only`` the round stops after set-up; with ``--trace 1`` the
layers are wrapped in spans during the timed phase and the line carries the
per-layer numbers instead of being used for end-to-end ones.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from itertools import combinations  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def load_program(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import commonbasis

    if not os.path.abspath(commonbasis.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"commonbasis was imported from {commonbasis.__file__}, not from {src}")
    return commonbasis


def _groups(profile) -> list:
    """A homology profile as plain (degree, betti, torsion) triples."""
    return [(d, b, list(t)) for d, b, t in profile.groups]


def _f_vector(simplices) -> list[int]:
    f = [0] * max(len(s) for s in simplices)
    for s in simplices:
        f[len(s) - 1] += 1
    return f


def _euler_of_groups(groups) -> int:
    return sum((-1) ** d * b for d, b, _ in groups)


# ---------------------------------------------------------------------------
# cbp-z: decide seeded collections of summands of Z^n both ways.
# ---------------------------------------------------------------------------


class CbpZ:
    def __init__(self, cb, seed: int):
        self.cb = cb
        self.items = workloads.cbpz_items(seed)
        self.latency_items = range(len(self.items))

    def run(self, index: int):
        cb, item = self.cb, self.items[index]
        members = [cb.span(cb.ZZ, item["n"], gens) for gens in item["members"]]
        col = cb.collection(members)
        ie = cb.has_cbp_ie(col)
        found = cb.common_basis_greedy(col)
        return ie, found

    def check(self, index: int, out) -> list[str]:
        item = self.items[index]
        ie, found = out
        problems = []
        if ie != (found is not None):
            problems.append(f"has_cbp_ie={ie} but common_basis_greedy found={found is not None}")
        if item["planted"] is not None and ie != item["planted"]:
            problems.append(f"planted {item['planted']}, decided {ie}")
        if found is not None:
            why = oracles.verify_z_common_basis(
                item["members"], [list(r) for r in found.basis.entries],
                [list(m) for m in found.marks])
            if why:
                problems.append(f"returned basis fails the verifier: {why}")
        return problems


# ---------------------------------------------------------------------------
# building-f3: the common basis complex of F_3^3, then relative buildings.
# ---------------------------------------------------------------------------


def _rows(sub) -> tuple:
    return tuple(tuple(r) for r in sub.basis)


class BuildingF3:
    N, P = workloads.F3_N, workloads.F3_P

    def __init__(self, cb, seed: int):
        self.cb = cb
        self.sigmas = workloads.f3_sigmas(seed)
        self.items = ["complex"] + self.sigmas
        self.latency_items = range(1, len(self.items))

    def run(self, index: int):
        cb, n, p = self.cb, self.N, self.P
        if index == 0:
            k = cb.common_basis_complex(n, p)
            prof = cb.homology(cb.chains(k))
            connected = all(d > 2 * n - 4 for d in prof.nonzero_degrees()) and not prof.torsion(2 * n - 3)
            return k, prof, connected
        ring = cb.GF(p)
        sigma = cb.collection([cb.span(ring, n, rows) for rows in self.items[index]])
        h = cb.higher_tits(1, 0, n, p, sigma)
        return h, cb.homology(cb.chains(h))

    def prepare_checks(self) -> None:
        self.oracle = oracles.FpOracle(self.N, self.P)
        t = self.cb.tits(self.N, self.P)
        self.tits_simplices = {frozenset(_rows(v) for v in t.label_simplex(s)) for s in t.simplex_set()}

    def _elements(self, rows) -> frozenset:
        return oracles.subspace_elements([list(r) for r in rows], self.P)

    def check(self, index: int, out) -> list[str]:
        n, p = self.N, self.P
        problems = []
        if index == 0:
            k, prof, connected = out
            f = _f_vector(k.simplex_set())
            vertices = sum(oracles.gaussian_binomial(n, r, p) for r in range(1, n))
            if len(k.vertices) != vertices or f[0] != vertices:
                problems.append(f"{len(k.vertices)} vertices, expected {vertices}")
            edges = {s for s in k.simplex_set() if len(s) == 2}
            if edges != set(combinations(range(len(k.vertices)), 2)):
                problems.append("some pair of vertices is not an edge")
            groups = _groups(prof)
            top = 2 * n - 3
            if any(d < top for d, _, _ in groups) or any(t for _, _, t in groups):
                problems.append(f"homology {groups} is not free and concentrated from degree {top}")
            betti = {d: b for d, b, _ in groups}
            if betti.get(top, 0) != -oracles.reduced_euler(f):
                problems.append(f"beta_{top}={betti.get(top, 0)} but reduced Euler characteristic {oracles.reduced_euler(f)}")
            if not connected:
                problems.append("connectivity verdict is False")
            return problems
        h, prof = out
        labels = {_rows(h.vertices[s[0]]) for s in h.simplex_set() if len(s) == 1}
        simplices = {frozenset(_rows(v) for v in h.label_simplex(s)) for s in h.simplex_set()}
        full = {s for s in self.tits_simplices if s <= labels}
        if simplices != full:
            problems.append("relative building is not the full subcomplex of tits(3,3) on its vertices")
        sigma = [self._elements(rows) for rows in self.items[index]]
        want = self.oracle.relative_vertices(sigma)
        if {self._elements(rows) for rows in labels} != want:
            problems.append(f"{len(labels)} vertices, brute force finds {len(want)}")
        f = _f_vector(simplices)
        groups = _groups(prof)
        if any(t for _, _, t in groups) or _euler_of_groups(groups) != oracles.reduced_euler(f):
            problems.append(f"homology {groups} disagrees with the f-vector {f}")
        return problems


# ---------------------------------------------------------------------------
# koszul: Tor of the Steinberg monoid on the criterion-10 instances.
# ---------------------------------------------------------------------------


class Koszul:
    def __init__(self, cb, seed: int):
        self.cb = cb
        self.items = list(workloads.KOSZUL_INSTANCES)
        # Latency is taken on tor(3, 2) alone: the other three items last a
        # few milliseconds, too short to time apart from machine noise.
        self.latency_items = range(1)

    def run(self, index: int):
        n, p = self.items[index]
        return self.cb.tor(n, p, strict=False)

    def check(self, index: int, rep) -> list[str]:
        n, p = self.items[index]
        rank = oracles.steinberg_rank(n, p) ** 2
        groups = _groups(rep.profile)
        problems = []
        if groups != [(n, rank, [])]:
            problems.append(f"Tor at grading {n} is {groups}, expected Z^{rank} in degree {n} only")
        if rep.euler != (-1) ** n * rank:
            problems.append(f"bar Euler characteristic {rep.euler}, expected {(-1) ** n * rank}")
        if not (rep.tord_ok and rep.join_ok and rep.euler_ok):
            problems.append(f"report cross-checks: model={rep.tord_ok} join={rep.join_ok} euler={rep.euler_ok}")
        return problems


WORKLOADS = {"cbp-z": CbpZ, "building-f3": BuildingF3, "koszul": Koszul}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cb = load_program(args.root)
    work = WORKLOADS[args.workload](cb, args.seed)
    if args.trace:
        import layertrace as trace

        tracer = trace.Tracer()
        undo = trace.instrument(tracer)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    outputs: list = []
    item_ms: list[float] = []
    errors: list[str] = []
    start = time.perf_counter()
    for index in range(len(work.items)):
        t = time.perf_counter()
        try:
            outputs.append(work.run(index))
        except Exception:  # a failed item is counted, and the round goes on
            outputs.append(None)
            errors.append(f"item {index}: {traceback.format_exc(limit=3)}")
        item_ms.append((time.perf_counter() - t) * 1000.0)
    solve_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"attempted": len(work.items), "failed": len(errors), "errors": errors,
              "solve_s": solve_s}
    if args.trace:
        trace.restore(undo)
        result["layers"] = trace.layer_metrics(tracer, solve_s, trace.calibrate())
        if args.spans_out:
            trace.write_spans(tracer, args.spans_out)
    else:
        result.update(setup_s=setup_s, peak_rss_mib=peak_rss_mib,
                      item_ms=[item_ms[i] for i in work.latency_items])

    if hasattr(work, "prepare_checks"):
        work.prepare_checks()
    problems = []
    for index, out in enumerate(outputs):
        if out is not None:
            problems += [f"item {index}: {msg}" for msg in work.check(index, out)]
    result["problems"] = problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
