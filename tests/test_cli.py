import json

import pytest

from commonbasis.cbp import collection, dump_collection
from commonbasis.cli import main
from commonbasis.complexes import load_complex
from commonbasis.exactlin import ZZ, span


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_is_idempotent_and_loadable(capsys, tmp_path):
    code, out1 = run(capsys, "build", "tits", "--n", "3", "--p", "2")
    code2, out2 = run(capsys, "build", "tits", "--n", "3", "--p", "2")
    assert code == code2 == 0 and out1 == out2
    k = load_complex(out1)
    assert k.f_vector() == [14, 21]
    target = tmp_path / "cb.cplx"
    run(capsys, "build", "cb", "--n", "2", "--p", "2", "--out", str(target))
    assert load_complex(target.read_text()).f_vector() == [3, 3]


def test_homology_command(capsys):
    code, out = run(capsys, "homology", "--kind", "cb", "--n", "2", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 2
    assert report["results"]["profile"] == {"1": {"betti": 1, "torsion": []}}
    code, out = run(capsys, "homology", "--kind", "tits", "--n", "1", "--p", "2")
    assert json.loads(out)["results"]["profile"] == {"-1": {"betti": 1, "torsion": []}}
    code, out = run(capsys, "homology", "--kind", "tits", "--n", "4", "--p", "2")
    assert json.loads(out)["results"]["profile"] == {"2": {"betti": 64, "torsion": []}}


def test_homology_from_file(capsys, tmp_path):
    target = tmp_path / "t.cplx"
    run(capsys, "build", "split-tits", "--n", "2", "--p", "3", "--out", str(target))
    code, out = run(capsys, "homology", "--file", str(target))
    assert code == 0
    assert json.loads(out)["results"]["f_vector"] == [12]


def test_cbp_command_modes(capsys, tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text(dump_collection(collection([span(ZZ, 2, [(1, 1)]), span(ZZ, 2, [(1, -1)])])))
    code, out = run(capsys, "cbp", "--collection", str(bad), "--mode", "both")
    report = json.loads(out)
    assert code == 0  # the two procedures agree (both fail)
    assert report["results"]["greedy"] is False
    assert report["results"]["inclusion_exclusion"] is False

    flag = tmp_path / "flag.col"
    flag.write_text(dump_collection(collection([
        span(ZZ, 3, [(1, 0, 0)]), span(ZZ, 3, [(1, 0, 0), (0, 1, 0)])])))
    code, out = run(capsys, "cbp", "--collection", str(flag), "--mode", "both", "--table")
    report = json.loads(out)
    assert code == 0 and report["results"]["greedy"] is True
    assert "basis" in report["results"] and "corank_table" in report["results"]

    cex = tmp_path / "cex.col"
    cex.write_text(dump_collection(collection([
        span(ZZ, 2, [(1, 0), (0, 1)]), span(ZZ, 2, [(1, 0)]),
        span(ZZ, 2, [(0, 1)]), span(ZZ, 2, [(1, 1)])])))
    code, out = run(capsys, "cbp", "--collection", str(cex), "--mode", "ie")
    report = json.loads(out)
    assert report["results"]["violations"][0]["subset"] == [1]


def test_verify_exit_codes_and_reports(capsys):
    code, out = run(capsys, "verify", "connectivity", "--n", "2", "--p", "3")
    assert code == 0 and json.loads(out)["verdicts"][0]["pass"]
    code, out = run(capsys, "verify", "split-compare", "--a", "1", "--b", "1", "--n", "2")
    assert code == 0
    # without a plain flag factor the comparison genuinely fails, and the
    # driver reports it with a nonzero exit code
    code, out = run(capsys, "verify", "split-compare", "--a", "0", "--b", "2", "--n", "2")
    assert code == 1 and not json.loads(out)["verdicts"][0]["pass"]


def test_limits_are_error_reports_with_exit_two(capsys, tmp_path):
    code, out = run(capsys, "build", "cb", "--n", "3", "--p", "3", "--max-simplices", "10")
    report = json.loads(out)
    assert code == 2
    assert report["error"] == {"type": "CapExceeded", "message": "more than 10 simplices"}
    assert report["config"]["max_simplices"] == 10 and report["verdicts"] == []
    code, out = run(capsys, "verify", "connectivity", "--n", "3", "--p", "3",
                    "--max-simplices", "10", "--format", "text")
    assert code == 2 and "ERROR  CapExceeded: more than 10 simplices" in out
    two = tmp_path / "two.col"
    two.write_text(dump_collection(collection([span(ZZ, 2, [(1, 0)]), span(ZZ, 2, [(0, 1)])])))
    code, out = run(capsys, "cbp", "--collection", str(two), "--k", "1")
    assert code == 2 and json.loads(out)["error"]["type"] == "SubsetCapExceeded"
    # a limit is told apart from a verdict: under the cap the same run passes
    code, out = run(capsys, "cbp", "--collection", str(two), "--k", "2")
    assert code == 0 and "error" not in json.loads(out)


def test_verify_suites_honour_the_caps(capsys):
    code, out = run(capsys, "verify", "join", "--n", "2", "--p", "3", "--max-vertices", "1")
    report = json.loads(out)
    assert code == 2 and report["error"]["type"] == "CapExceeded"
    assert report["config"]["max_vertices"] == 1 and report["verdicts"] == []
    for suite in ["split-compare", "suspension", "connectivity"]:
        code, out = run(capsys, "verify", suite, "--a", "1", "--b", "1", "--n", "2", "--p", "3",
                        "--max-vertices", "1")
        assert code == 2 and json.loads(out)["error"]["type"] == "CapExceeded", suite
    code, out = run(capsys, "verify", "split-compare", "--a", "1", "--b", "1", "--n", "2",
                    "--p", "3", "--max-simplices", "3")
    assert code == 2 and json.loads(out)["error"]["message"] == "more than 3 simplices"
    code, out = run(capsys, "verify", "bar-model", "--a", "1", "--b", "0", "--n", "2",
                    "--p", "2", "--max-simplices", "2")
    report = json.loads(out)
    assert code == 2 and report["error"] == {"type": "ModelError",
                                             "message": "model exceeds 2 simplices"}


def test_truncated_complexes_report_only_the_degrees_they_certify(capsys, tmp_path):
    # CB(F_2^3) cut at dimension 3 has no 4-simplices, so ker d_3 (rank 148)
    # is not its H_3 = Z^8; the report stops below the cut and says so, and
    # the connectivity claim, which reaches degree 2n-3 = 3, fails unchecked
    code, out = run(capsys, "verify", "connectivity", "--n", "3", "--p", "2", "--max-dim", "3")
    report = json.loads(out)
    assert code == 1 and report["config"]["max_dim"] == 3
    assert report["results"] == {"certified_up_to_degree": 2, "profile": {}}
    assert report["verdicts"] == [{"check": "connectivity-common-basis-n3-p2", "pass": False}]
    code, out = run(capsys, "verify", "connectivity", "--n", "3", "--p", "2", "--max-dim", "1")
    assert code == 1 and json.loads(out)["results"] == {"certified_up_to_degree": 0,
                                                        "profile": {}}
    code, out = run(capsys, "verify", "connectivity", "--n", "3", "--p", "2", "--max-dim", "4")
    assert code == 0
    assert json.loads(out)["results"] == {"certified_up_to_degree": 3,
                                          "profile": {"3": {"betti": 8, "torsion": []}}}
    _, full = run(capsys, "verify", "connectivity", "--n", "3", "--p", "2")
    assert json.loads(full)["results"] == {"profile": {"3": {"betti": 8, "torsion": []}}}
    # homology echoes max_dim only when it is given
    _, out = run(capsys, "homology", "--kind", "cb", "--n", "3", "--p", "2", "--max-dim", "3")
    report = json.loads(out)
    assert report["config"]["max_dim"] == 3 and report["results"]["f_vector"] == [14, 91, 266, 336]
    assert report["results"]["certified_up_to_degree"] == 2 and report["results"]["profile"] == {}
    _, out = run(capsys, "homology", "--kind", "cb", "--n", "3", "--p", "2")
    report = json.loads(out)
    assert "max_dim" not in report["config"] and "certified_up_to_degree" not in report["results"]
    # a loaded complex was never cut, so --max-dim leaves its homology whole
    target = tmp_path / "cb.cplx"
    run(capsys, "build", "cb", "--n", "3", "--p", "2", "--max-dim", "3", "--out", str(target))
    _, out = run(capsys, "homology", "--file", str(target), "--max-dim", "2")
    report = json.loads(out)
    assert "max_dim" not in report["config"] and "certified_up_to_degree" not in report["results"]
    assert report["results"]["profile"] == {"3": {"betti": 148, "torsion": []}}


def test_truncated_suspension_compares_only_the_certified_degrees(capsys):
    # higher_tits(2,0,3,2) is 3-dimensional with H~_3 = Z^64, the model's
    # H~_6 shifted down by a+b+1 = 3; cut at dimension 2 its top degree
    # would read ker d_2 = Z^377, a group that is not there
    model = {"6": {"betti": 64, "torsion": []}}
    args = ["verify", "suspension", "--a", "2", "--b", "0", "--n", "3", "--p", "2"]
    code, out = run(capsys, *args, "--max-dim", "2")
    assert code == 1 and json.loads(out)["results"] == {
        "building": {}, "certified_up_to_degree": 1, "model": model}
    # cut at its own dimension the complex is whole, but the cut complex
    # cannot show it, so degree 3 stays uncertified and the model needs it
    code, out = run(capsys, *args, "--max-dim", "3")
    assert code == 1 and json.loads(out)["results"] == {
        "building": {}, "certified_up_to_degree": 2, "model": model}
    code, out = run(capsys, *args, "--max-dim", "4")
    assert code == 0 and json.loads(out)["results"] == {
        "building": {"3": {"betti": 64, "torsion": []}}, "certified_up_to_degree": 3,
        "model": model}
    # nor is ker d_2 = Z^944 of the a=b=1 building cut at dimension 2
    code, out = run(capsys, "verify", "suspension", "--a", "1", "--b", "1", "--n", "3",
                    "--p", "2", "--max-dim", "2")
    report = json.loads(out)
    assert code == 1 and report["results"]["building"] == {}
    assert report["results"]["certified_up_to_degree"] == 1


def test_verify_config_echoes_the_simplex_cap(capsys):
    args = ["verify", "split-compare", "--a", "1", "--b", "1", "--n", "2", "--p", "3"]
    _, default = run(capsys, *args)
    _, capped = run(capsys, *args, "--max-simplices", "100000")
    assert json.loads(default)["config"]["max_simplices"] == 2_000_000
    assert json.loads(capped)["config"]["max_simplices"] == 100_000
    assert default != capped


def test_reports_are_byte_exact_and_timing_is_opt_in(capsys):
    _, out1 = run(capsys, "verify", "morse", "--seed", "5", "--count", "7")
    _, out2 = run(capsys, "verify", "morse", "--seed", "5", "--count", "7")
    assert out1 == out2
    assert "wall_time_ms" not in json.loads(out1)
    _, out3 = run(capsys, "verify", "morse", "--seed", "5", "--count", "7", "--timing")
    assert "wall_time_ms" in json.loads(out3)
    config = json.loads(out1)["config"]
    assert config["seed"] == 5 and config["suite"] == "morse"


def test_text_and_csv_formats(capsys):
    code, out = run(capsys, "verify", "suspension", "--a", "1", "--b", "1",
                    "--n", "2", "--p", "2", "--format", "text")
    assert code == 0 and out.startswith("commonbasis") and "PASS" in out
    code, out = run(capsys, "verify", "join", "--n", "2", "--p", "2", "--format", "csv")
    assert out.splitlines()[0] == "check,pass"


def test_reports_byte_exact_across_processes(tmp_path):
    # guard against hash-randomization leaking set iteration order into output
    import os
    import subprocess
    import sys
    from pathlib import Path

    import commonbasis

    # the children must import the same copy of the package as this process,
    # installed or run from a source checkout
    package_root = str(Path(commonbasis.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")

    outs = []
    for seed_env in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed_env, "PYTHONPATH": pythonpath}
        argv = [sys.executable, "-m", "commonbasis", "verify", "koszul", "--n", "2", "--p", "2"]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        except subprocess.CalledProcessError as err:
            raise AssertionError(
                f"PYTHONHASHSEED={seed_env}: exit {err.returncode}\n{err.stderr}") from err
        assert proc.stdout, f"PYTHONHASHSEED={seed_env}: empty report"
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_bar_model_suite(capsys):
    code, out = run(capsys, "verify", "bar-model", "--a", "1", "--b", "0", "--n", "2", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["counts"]["2,2"] == [12, 12]


@pytest.mark.parametrize("argv", [
    "build tits --n 3 --p 4",
    "homology --kind tits --n 3 --p 1",
    "verify connectivity --n 3 --p 0",
    "build tits --n -1 --p 2",
    "build higher --a -1 --b 1 --n 2 --p 2",
    "build higher --a 1 --b -1 --n 2 --p 2",
    "verify morse --count -1",
    "cbp --collection /nonexistent/pair.col",
    "homology --file /nonexistent/t.cplx",
])
def test_bad_flags_exit_two_with_a_usage_message(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "error: argument --" in err and "Traceback" not in err


def test_rejected_complexes_are_error_reports_with_exit_two(capsys):
    code, out = run(capsys, "build", "higher", "--a", "0", "--b", "0", "--n", "2", "--p", "2")
    assert code == 2 and json.loads(out)["error"] == {
        "type": "ComplexError", "message": "need at least one join factor"}


def test_malformed_complex_file_is_an_error_report_with_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.cplx"
    cases = [
        ("#vertices x\n", "malformed complex file: invalid literal for int() with base 10: 'x'"),
        # a negative index would alias a vertex from the end
        ("#vertices 2\nsub F2 2 1 0 1\nsub F2 2 1 1 0\n-1\n0\n-1 0\n",
         "simplex (-1, 0) is outside the vertex range"),
    ]
    for text, message in cases:
        bad.write_text(text)
        code, out = run(capsys, "homology", "--file", str(bad))
        assert code == 2 and json.loads(out)["error"] == {"type": "ComplexError", "message": message}


def test_malformed_collection_file_is_an_error_report_with_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.col"
    cases = [
        ("F2 2 x\n1 0\n", "invalid literal for int() with base 10: 'x'"),
        ("F2 -2 0\n", "empty matrix needs a column count >= 0, not -2"),
    ]
    for text, message in cases:
        bad.write_text(text)
        code, out = run(capsys, "cbp", "--collection", str(bad))
        assert code == 2 and json.loads(out)["error"] == {
            "type": "CbpError", "message": f"malformed collection file: {message}"}
