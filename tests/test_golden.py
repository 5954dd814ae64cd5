"""Byte-exactness of the default outputs on a fixed golden set.

Each case regenerates one output -- a default CLI report, a ``build`` file
(the ``dump_complex`` text), a ``dump_complex`` / ``dump_model`` text of
an instance the CLI does not build, or the standard output of a demo script
run in a child process -- and compares its md5 with
``golden/manifest.txt``.  A change meant to keep every answer leaves the
manifest as it is; a deliberate change of an output format regenerates it
once, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/manifest.txt

The CLI runs in this process from inside ``golden/``, so the collection
paths that ``cbp`` reports echo are the bare file names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import commonbasis

from commonbasis.cbp import collection
from commonbasis.cli import main
from commonbasis.complexes import common_basis_complex, dump_complex, higher_tits, join, tits
from commonbasis.exactlin import GF, span
from commonbasis.simpmodel import d_model, dump_model

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parents[1] / "demos"

CLI_CASES = [
    "verify connectivity --n 3 --p 3",
    "verify connectivity --n 2 --p 3",
    "verify connectivity --n 3 --p 3 --max-simplices 10",
    "verify koszul --n 2 --p 2",
    "verify koszul --n 2 --p 3",
    "verify morse --seed 7 --count 100",
    "verify suspension --a 1 --b 1 --n 2 --p 2",
    "verify suspension --a 1 --b 1 --n 2 --p 2 --format text",
    "verify join --n 3 --p 2",
    "verify join --n 2 --p 2 --format csv",
    "verify join --ring Z",
    "verify split-compare --a 1 --b 1 --n 2 --p 3",
    "verify split-compare --a 0 --b 2 --n 2",
    "verify bar-model --a 1 --b 0 --n 2 --p 2",
    "verify bar-model --a 1 --b 0 --n 3 --p 2",
    "build tits --n 3 --p 2",
    "build tits --n 4 --p 2",
    "build split-tits --n 3 --p 2",
    "build split-tits --n 2 --p 3",
    "build cb --n 3 --p 3",
    "build higher --n 2 --p 3 --a 1 --b 1",
    "homology --kind tits --n 3 --p 3",
    "homology --kind split-tits --n 3 --p 2",
    "homology --kind cb --n 3 --p 2",
    "homology --kind higher --n 3 --p 2 --a 2",
    "cbp --collection pair.col --mode both",
    "cbp --collection flag.col --mode both --table",
    "cbp --collection cex.col --mode ie",
    "cbp --collection lines-f3.col --mode both --table",
    "cbp --collection frame-f3.col --mode greedy",
]


def _cli(argv: str) -> str:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            main(argv.split())
    finally:
        os.chdir(cwd)
    return out.getvalue()


def _relative_building() -> str:
    f3 = GF(3)
    sigma = collection([span(f3, 3, [(1, 0, 0)]), span(f3, 3, [(1, 0, 0), (0, 1, 0)])])
    return dump_complex(higher_tits(1, 0, 3, 3, sigma))


DUMP_CASES = {
    "dump_complex common_basis_complex(2, 3)": lambda: dump_complex(common_basis_complex(2, 3)),
    "dump_complex higher_tits(2, 0, 2, 2)": lambda: dump_complex(higher_tits(2, 0, 2, 2)),
    "dump_complex higher_tits(1, 0, 3, 3, sigma)": _relative_building,
    "dump_complex join(tits(2, 3), tits(2, 3))": lambda: dump_complex(join(tits(2, 3), tits(2, 3))),
    "dump_model d_model(1, 0, 2, 2)": lambda: dump_model(d_model(1, 0, 2, 2)),
    "dump_model d_model(1, 1, 2, 2)": lambda: dump_model(d_model(1, 1, 2, 2)),
    "dump_model d_model(2, 0, 2, 2)": lambda: dump_model(d_model(2, 0, 2, 2)),
    "dump_model d_model(1, 0, 2, 3)": lambda: dump_model(d_model(1, 0, 2, 3)),
    "dump_model d_model(0, 2, 2, 2)": lambda: dump_model(d_model(0, 2, 2, 2)),
}


def _demo(script: Path) -> str:
    # the child imports the same copy of the package as this process,
    # installed or run from a source checkout
    package_root = str(Path(commonbasis.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, f"{script.name}: exit {proc.returncode}\n{proc.stderr}"
    return proc.stdout


DEMO_CASES = {f"demo {script.name}": (lambda script=script: _demo(script))
              for script in sorted(DEMOS.glob("[0-9][0-9]_*.py"))}


def digests() -> dict[str, str]:
    outputs = {argv: (lambda argv=argv: _cli(argv)) for argv in CLI_CASES}
    outputs.update(DUMP_CASES)
    outputs.update(DEMO_CASES)
    return {name: hashlib.md5(make().encode()).hexdigest() for name, make in outputs.items()}


def read_manifest() -> dict[str, str]:
    entries = {}
    for line in (GOLDEN / "manifest.txt").read_text().splitlines():
        digest, name = line.split("  ", 1)
        entries[name] = digest
    return entries


def test_golden_outputs_match_the_manifest():
    expected = read_manifest()
    actual = digests()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in actual if actual[name] != expected[name]]
    assert not changed, f"outputs differ from the golden manifest: {changed}"


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{digest}  {name}")
