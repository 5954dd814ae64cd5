"""Alternated benchmark pairs of two checkouts, written as one BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . --name frames \\
        --workload building-f3=10 --workload cbp-z=5

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
that checkout's root and for run.py's default run length (the benchmark's),
one after the other; the change runs first in even-numbered pairs (counting
from 0) and second in odd ones, so a drift of the machine's load does not
favour one side.  Workloads run in the order given, every pair of one
workload before the next.  The result goes to ``BENCH_<date>_<name>.json``
in the current directory: a machine descriptor, every run, and per workload
each side's median and quartiles (inclusive method) of every end-to-end
metric, with the number of pairs in which the change's value was lower.
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def machine() -> dict:
    """The CPU model, CPU count, Python and platform of this host."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"cpu_model": model, "vcpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def order(pair: int) -> tuple[str, str]:
    """The sides of one pair in the order they run."""
    return ("change", "parent") if pair % 2 == 0 else SIDES


def run_once(root: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in the checkout at ``root``: its last
    line of output, the JSON summary."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs, in order."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def summarize(runs: list[dict]) -> dict:
    """Per workload, from every run: pairs, correctness, attempted and
    failed summed over both sides, each side's spread of every metric, and
    per metric "change lower in k of N pairs"."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        side = {s: {r["pair"]: r for r in mine if r["side"] == s} for s in SIDES}
        if any(set(side[s]) != set(pairs) for s in SIDES):
            raise ValueError(f"{workload}: a pair lacks one of its sides")
        names = list(mine[0]["metrics"])

        def lower(m: str) -> int:
            return sum(side["change"][i]["metrics"][m] < side["parent"][i]["metrics"][m]
                       for i in pairs)

        out[workload] = {
            "pairs": len(pairs),
            "correct": all(r["correct"] for r in mine),
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            **{s: {m: spread([side[s][i]["metrics"][m] for i in pairs]) for m in names}
               for s in SIDES},
            "change_lower": {m: f"change lower in {lower(m)} of {len(pairs)} pairs"
                             for m in names},
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--name", required=True, help="the file is BENCH_<date>_<name>.json")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload and its number of pairs, as NAME=PAIRS")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--title", default="", help="what the change is, for the file")
    ap.add_argument("--claim", default=None, help="the gain claimed, if any, for the file")
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    for item in args.workload:
        workload, pairs = item.split("=")
        for pair in range(int(pairs)):
            for side in order(pair):
                got = run_once(roots[side], workload, args.seed)
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "correct": got["correct"], "attempted": got["attempted"],
                             "failed": got["failed"],
                             "metrics": {m: v["value"] for m, v in got["metrics"].items()}})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    date = datetime.date.today().isoformat()
    report = {
        "title": args.title,
        "date": date,
        "claim": args.claim,
        "machine": machine(),
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} --trace 0",
        "method": ("parent and change in two checkouts, one run per side per pair, the change "
                   "first in even-numbered pairs counting from 0; workloads in the order "
                   f"{', '.join(args.workload)}; medians and quartiles (inclusive method) over "
                   "each side's runs; attempted and failed summed over both sides"),
        "workloads": summarize(runs),
        "runs": runs,
    }
    path = f"BENCH_{date}_{args.name}.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(path)


if __name__ == "__main__":
    main()
