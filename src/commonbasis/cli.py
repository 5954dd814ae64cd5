"""Batch driver: build complexes, run homology, decide the common basis
property, and run the verification suites, emitting machine-readable
reports.

Reports are JSON with a versioned schema; every verdict carries a stable
check name, the configuration (including the seed and all resolved
defaults) is echoed back, and the output is byte-exact for a fixed
(config, seed, version) -- wall-clock timing is only included on request
(``--timing``) precisely so that the default output stays reproducible.
The process exits 0 iff every verdict passes, 1 when one fails, and 2 when a
cap, a rejected or malformed input or a failed internal check stops the run:
that report carries an ``error`` block (``type``, ``message``) instead of
verdicts.  Bad flags (a non-prime ``--p``, a negative size or count, a
missing input file) also exit 2, with argparse's usage message.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from . import __version__
from .cbp import (
    CbpError,
    collection,
    common_basis_greedy,
    corank_table,
    has_cbp_ie,
    ie_violations,
    load_collection,
)
from .complexes import (
    DEFAULT_MAX_SIMPLICES,
    ComplexError,
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
    tits,
)
from .exactlin import ZZ, is_prime, span
from .homology import HomologyError, chains, homology
from .simpmodel import ModelError, check_bar_model, check_suspension
from .steinberg import SteinbergError, bar_euler, st_rank_classical, tor

# Raised when a run hits a cap, a rejected complex or collection, a malformed
# input file or a failed internal check; reported with exit 2.
REPORTED_ERRORS = (ComplexError, CbpError, SteinbergError, HomologyError, ModelError)


def _report(config: dict, results: dict, verdicts: list[dict], started: float,
            timing: bool) -> dict:
    report = {
        "schema": 2,
        "tool": "commonbasis",
        "version": __version__,
        "config": config,
        "results": results,
        "verdicts": verdicts,
    }
    if timing:
        report["wall_time_ms"] = int((time.monotonic() - started) * 1000)
    return report


def _emit(report: dict, args) -> int:
    error = report.get("error")
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        lines = ["check,pass"]
        lines += [f"{v['check']},{str(v['pass']).lower()}" for v in report["verdicts"]]
        if error:
            lines.append("error,false")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{report['tool']} {report['version']} schema {report['schema']}"]
        for v in report["verdicts"]:
            lines.append(f"{'PASS' if v['pass'] else 'FAIL'}  {v['check']}")
        if error:
            lines.append(f"ERROR  {error['type']}: {error['message']}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if error:
        return 2
    return 0 if all(v["pass"] for v in report["verdicts"]) else 1


def _caps(args) -> dict:
    """The complex caps of the common flags, as builder keyword arguments."""
    return {"max_vertices": args.max_vertices, "max_simplices": args.max_simplices,
            "max_dim": args.max_dim}


def _build_complex(args) -> SimplicialComplex:
    kind = args.kind
    caps = _caps(args)
    if kind == "tits":
        return tits(args.n, args.p, **caps)
    if kind == "split-tits":
        return split_tits(args.n, args.p, **caps)
    if kind == "cb":
        return common_basis_complex(args.n, args.p, **caps)
    if kind == "higher":
        return higher_tits(args.a, args.b, args.n, args.p, **caps)
    raise SystemExit(f"unknown complex kind {kind!r}")


def _certified_homology(k: SimplicialComplex, max_dim: int | None, results: dict):
    """H~ of ``k``, only below ``max_dim`` if ``k`` was cut there, and the
    report says so: the top degree of a cut complex has no boundary into it."""
    if max_dim is not None:
        results["certified_up_to_degree"] = max_dim - 1
    return homology(chains(k), up_to_degree=results.get("certified_up_to_degree"))


def cmd_build(args) -> int:
    k = _build_complex(args)
    text = dump_complex(k)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_homology(args) -> int:
    started = time.monotonic()
    if args.file:
        with open(args.file) as fh:
            k = load_complex(fh.read())
        source = {"file": args.file}
    else:
        k = _build_complex(args)
        source = {"kind": args.kind, "n": args.n, "p": args.p, "a": args.a, "b": args.b}
        if args.max_dim is not None:
            source["max_dim"] = args.max_dim
    config = {"command": "homology", "seed": args.seed, "format": args.format, **source}
    results: dict = {"f_vector": k.f_vector()}
    results["profile"] = _certified_homology(k, source.get("max_dim"), results).to_jsonable()
    verdicts = [{"check": "homology-computed", "pass": True}]
    return _emit(_report(config, results, verdicts, started, args.timing), args)


def cmd_cbp(args) -> int:
    started = time.monotonic()
    with open(args.collection) as fh:
        col = load_collection(fh.read())
    config = {
        "command": "cbp",
        "collection": args.collection,
        "mode": args.mode,
        "seed": args.seed,
        "format": args.format,
    }
    results: dict = {"ring": str(col.ring), "ambient": col.ambient, "members": len(col)}
    verdicts = []
    greedy = ie = None
    if args.mode in ("greedy", "both"):
        basis = common_basis_greedy(col, cap=args.k)
        greedy = basis is not None
        results["greedy"] = greedy
        if basis is not None:
            results["basis"] = [list(row) for row in basis.basis.entries]
            results["marks"] = [list(m) for m in basis.marks]
    if args.mode in ("ie", "both"):
        ie = has_cbp_ie(col, cap=args.k)
        results["inclusion_exclusion"] = ie
        if not ie:
            results["violations"] = ie_violations(col, cap=args.k)
    if args.table:
        results["corank_table"] = corank_table(col, cap=args.k).to_jsonable()
    if args.mode == "both":
        verdicts.append({"check": "greedy-inclusion-exclusion-agreement", "pass": greedy == ie})
    else:
        verdicts.append({"check": f"cbp-{args.mode}-computed", "pass": True})
    return _emit(_report(config, results, verdicts, started, args.timing), args)


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def _suite_connectivity(args, results, verdicts):
    n, p = args.n, args.p
    k = common_basis_complex(n, p, **_caps(args))
    prof = _certified_homology(k, args.max_dim, results)
    results["profile"] = prof.to_jsonable()
    # a cut below 2n-2 leaves degrees of the claim uncertified, so it fails
    certified = args.max_dim is None or args.max_dim > 2 * n - 3
    low_ok = all(d > 2 * n - 4 for d in prof.nonzero_degrees())
    top_free = not prof.torsion(2 * n - 3)
    verdicts.append({"check": f"connectivity-common-basis-n{n}-p{p}",
                     "pass": certified and low_ok and top_free})


def _suite_koszul(args, results, verdicts):
    n, p = args.n, args.p
    rep = tor(n, p, strict=False)
    results["tor"] = rep.to_jsonable()
    verdicts.append({"check": f"koszul-diagonal-n{n}-p{p}", "pass": rep.koszul})
    verdicts.append({"check": f"tor-two-factor-model-n{n}-p{p}", "pass": rep.tord_ok})
    verdicts.append({"check": f"tor-join-rank-n{n}-p{p}", "pass": rep.join_ok})
    verdicts.append({"check": f"bar-euler-n{n}-p{p}", "pass": rep.euler_ok})
    expected = (-1) ** n * st_rank_classical(n, p) ** 2
    verdicts.append({"check": f"bar-euler-classical-n{n}-p{p}", "pass": bar_euler(n, p) == expected})


def _suite_morse(args, results, verdicts):
    rng = random.Random(args.seed)
    count = args.count
    passed = 0
    for _ in range(count):
        x, s = random_morse_instance(rng)
        inst = morse_check(x, s)
        rep = morse_certificate(inst)
        if rep.ok:
            passed += 1
    results["instances"] = count
    results["passed"] = passed
    verdicts.append({"check": "morse-wedge-decomposition", "pass": passed == count})


def _suite_suspension(args, results, verdicts):
    rep = check_suspension(args.a, args.b, args.n, args.p, **_caps(args))
    if args.max_dim is not None:
        results["certified_up_to_degree"] = args.max_dim - 1
    results["building"] = rep.building_profile.to_jsonable()
    results["model"] = rep.model_profile.to_jsonable()
    verdicts.append(
        {"check": f"suspension-shift-a{args.a}-b{args.b}-n{args.n}-p{args.p}", "pass": rep.ok}
    )


def _suite_join(args, results, verdicts):
    if args.ring == "Z":
        u = span(ZZ, 2, [(1, 1)])
        w = span(ZZ, 2, [(1, -1)])
        col = collection([u, w])
        building_simplex = is_simplex_over_Z(col)
        results["witness"] = {
            "members": [[1, 1], [1, -1]],
            "join_simplex": True,
            "building_simplex": building_simplex,
        }
        verdicts.append({"check": "join-identity-fails-over-Z", "pass": not building_simplex})
        return
    n, p = args.n, args.p
    caps = _caps(args)
    t = tits(n, p, **caps)
    j = join(t, t)
    h = higher_tits(2, 0, n, p, **caps)
    same = {h.label_simplex(s) for s in h} == {j.label_simplex(s) for s in j}
    results["join_f_vector"] = j.f_vector()
    results["building_f_vector"] = h.f_vector()
    verdicts.append({"check": f"join-identity-field-n{n}-p{p}", "pass": same})


def _suite_split_compare(args, results, verdicts):
    a, b, n, p = args.a, args.b, args.n, args.p
    caps = _caps(args)
    left = _certified_homology(higher_tits(a, b, n, p, **caps), args.max_dim, results)
    right = _certified_homology(higher_tits(a + b, 0, n, p, **caps), args.max_dim, results)
    results["split_profile"] = left.to_jsonable()
    results["flag_profile"] = right.to_jsonable()
    verdicts.append(
        {"check": f"split-comparison-a{a}-b{b}-n{n}-p{p}", "pass": left == right}
    )


def _suite_bar_model(args, results, verdicts):
    rep = check_bar_model(args.a, args.b, args.n, args.p, max_simplices=args.max_simplices)
    results["counts"] = {f"{k[0]},{k[1]}": list(v) for k, v in sorted(rep.counts.items())}
    verdicts.append(
        {"check": f"bar-model-bijection-a{args.a}-b{args.b}-n{args.n}-p{args.p}", "pass": rep.ok}
    )


SUITES = {
    "connectivity": _suite_connectivity,
    "koszul": _suite_koszul,
    "morse": _suite_morse,
    "suspension": _suite_suspension,
    "join": _suite_join,
    "split-compare": _suite_split_compare,
    "bar-model": _suite_bar_model,
}


def cmd_verify(args) -> int:
    started = time.monotonic()
    config = {
        "command": "verify",
        "suite": args.suite,
        "n": args.n,
        "p": args.p,
        "a": args.a,
        "b": args.b,
        "k": args.k,
        "ring": args.ring,
        "seed": args.seed,
        "count": args.count,
        "max_dim": args.max_dim,
        "max_vertices": args.max_vertices,
        "max_simplices": args.max_simplices,
        "format": args.format,
    }
    results: dict = {}
    verdicts: list[dict] = []
    SUITES[args.suite](args, results, verdicts)
    return _emit(_report(config, results, verdicts, started, args.timing), args)


def prime(text: str) -> int:
    if not is_prime(int(text)):
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return int(text)


def nonnegative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=nonnegative, default=2)
    parser.add_argument("--p", type=prime, default=2)
    parser.add_argument("--a", type=nonnegative, default=1)
    parser.add_argument("--b", type=nonnegative, default=0)
    parser.add_argument("--k", type=int, default=12, help="subset enumeration cap")
    parser.add_argument("--ring", choices=["Z", "Fp"], default="Fp")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=nonnegative, default=100)
    parser.add_argument("--max-dim", type=int, default=None)
    parser.add_argument("--max-vertices", type=int, default=5000)
    parser.add_argument("--max-simplices", type=int, default=DEFAULT_MAX_SIMPLICES)
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument("--out", default=None)
    parser.add_argument("--timing", action="store_true",
                        help="include wall time (breaks byte-exact reproducibility)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="commonbasis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a complex and write its file form")
    p_build.add_argument("kind", choices=["tits", "split-tits", "cb", "higher"])
    _add_common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_hom = sub.add_parser("homology", help="homology of a built or loaded complex")
    p_hom.add_argument("--kind", choices=["tits", "split-tits", "cb", "higher"], default="tits")
    p_hom.add_argument("--file", type=existing_file, default=None)
    _add_common(p_hom)
    p_hom.set_defaults(func=cmd_homology)

    p_cbp = sub.add_parser("cbp", help="decide the common basis property for a collection file")
    p_cbp.add_argument("--collection", type=existing_file, required=True)
    p_cbp.add_argument("--mode", choices=["greedy", "ie", "both"], default="both")
    p_cbp.add_argument("--table", action="store_true", help="include the corank table")
    _add_common(p_cbp)
    p_cbp.set_defaults(func=cmd_cbp)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        return args.func(args)
    except REPORTED_ERRORS as err:
        config = {key: value for key, value in vars(args).items() if key != "func"}
        report = _report(config, {}, [], started, args.timing)
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        return _emit(report, args)


if __name__ == "__main__":
    raise SystemExit(main())
