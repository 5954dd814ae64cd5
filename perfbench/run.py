"""Benchmark of the commonbasis package: one workload, one seed, one run.

    python3 perfbench/run.py --workload cbp-z --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The run first self-tests the oracles,
then times set-up alone in a few fresh processes, then runs whole rounds of
the workload, each in a fresh process (``child.py``), for about
``--seconds`` seconds: a new round starts only when the longest round so
far still fits.  Every round checks all of its answers after its timed
phase.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``,
each the median over the run's rounds (set-up: over every process).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402

WORKLOADS = ("cbp-z", "building-f3", "koszul")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "item_p50_ms": "ms", "item_tail_ms": "ms"}


def latency_stats(rounds: list[dict]) -> tuple[float, float]:
    """Each item's latency is its median over the rounds (every round runs
    the same items); of those, the median, and the highest percentile with
    at least ten items beyond it (the slowest item when there are fewer
    than forty)."""
    ms = sorted(statistics.median(per_item) for per_item in zip(*(r["item_ms"] for r in rounds)))
    return statistics.median(ms), ms[-11] if len(ms) >= 40 else ms[-1]


def per_layer_units(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def spawn(workload: str, seed: int, trace: int, setup_only: bool = False) -> dict:
    """Run one round in a fresh process and return its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv")]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "commonbasis", "__init__.py")):
        raise SystemExit(f"no commonbasis sources under {ROOT}/src: run from a checkout")

    failures = oracles.self_test()
    for msg in failures:
        print(f"oracle self-test: {msg}", file=sys.stderr)

    setups = []
    if not args.trace:
        setups = [spawn(args.workload, args.seed, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        rounds.append(spawn(args.workload, args.seed, args.trace))
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > args.seconds:
            break

    for r in rounds:
        for msg in r["errors"] + r["problems"]:
            print(f"{args.workload}: {msg}", file=sys.stderr)
    correct = not failures and not any(r["problems"] for r in rounds)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": per_layer_units(name)}
                   for name in rounds[0]["layers"]}
    else:
        setups += [r["setup_s"] for r in rounds]
        p50, tail = latency_stats(rounds)
        values = {"solve_s": statistics.median(r["solve_s"] for r in rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
                  "item_p50_ms": p50, "item_tail_ms": tail}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
