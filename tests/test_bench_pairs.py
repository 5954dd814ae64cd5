import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(workload, pair, side, solve, rss, correct=True, failed=0):
    return {"workload": workload, "pair": pair, "side": side, "correct": correct,
            "attempted": 10, "failed": failed, "metrics": {"solve_s": solve, "peak_rss_mib": rss}}


def test_summary_of_alternated_pairs():
    runs = []
    for pair, (parent, change) in enumerate([(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7)]):
        for side in bench_pairs.order(pair):
            runs.append(_run("w", pair, side, parent if side == "parent" else change, 50.0))
    runs += [_run("v", 0, "change", 2.0, 40.0, failed=1), _run("v", 0, "parent", 2.5, 41.0, False)]
    got = bench_pairs.summarize(runs)
    assert list(got) == ["w", "v"]
    w = got["w"]
    assert (w["pairs"], w["correct"], w["attempted"], w["failed"]) == (4, True, 80, 0)
    assert w["parent"]["solve_s"] == {"median": 1.05, "q1": 0.975, "q3": 1.125,
                                      "runs": [1.0, 1.2, 0.9, 1.1]}
    assert w["change"]["solve_s"]["median"] == 0.85 and w["change"]["solve_s"]["runs"] == [0.8, 0.9, 1.0, 0.7]
    assert w["change_lower"] == {"solve_s": "change lower in 3 of 4 pairs",
                                 "peak_rss_mib": "change lower in 0 of 4 pairs"}
    v = got["v"]
    assert (v["pairs"], v["correct"], v["attempted"], v["failed"]) == (1, False, 20, 1)
    assert v["change"]["peak_rss_mib"] == {"median": 40.0, "q1": 40.0, "q3": 40.0, "runs": [40.0]}
    assert v["change_lower"]["solve_s"] == "change lower in 1 of 1 pairs"
    # the change runs first in even-numbered pairs
    assert [bench_pairs.order(i)[0] for i in range(4)] == ["change", "parent"] * 2
    with pytest.raises(ValueError, match="lacks one of its sides"):
        bench_pairs.summarize(runs[:-1])
