"""Golden CLI outputs: stdout, stderr and exit code must stay byte-identical.

Each case runs ``atomembed.cli.main`` in process on fixed inputs and compares
the result with ``tests/golden/<case>.json``; files a command writes
(``sample --rows``, ``bisect --trace``) are compared too.  ``embed`` prints
floating-point coordinates, whose last bits depend on the order of the
arithmetic, so only its exit code and dimension are pinned.

To record the golden files again, run from the repository root::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from atomembed.cli import main

GOLDEN = Path(__file__).parent / "golden"

_T = 3.0 + 2.0 * math.sqrt(3.0)
INPUTS = {
    "uniform6": ["1/6"] * 6,
    "binomial5": ["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"],
    "float_flat": [0.15, 0.17, 0.16, 0.18, 0.17, 0.17],
    # reciprocal image (1, 1, 1, 3 + 2*sqrt(3)) lies on the cone boundary
    "float_boundary": [1.0, 1.0, 1.0, 1.0 / _T],
    "float_binomial5": [1 / 32, 5 / 32, 5 / 16, 5 / 16, 5 / 32, 1 / 32],
    # unequal denominators, one light atom: 136 of 848 rows fail
    "rough10": ["3/37", "5/41", "7/59", "2/29", "11/97", "4/53", "9/89", "6/71",
                "1/17", "1/40"],
}

# argv templates: {name} is an input document, {out:file} a file to record
CASES = {}
for _name in ("uniform6", "binomial5", "float_flat", "float_boundary"):
    CASES[f"check_{_name}"] = ["check", f"{{{_name}}}"]
    CASES[f"classify_{_name}"] = ["classify", f"{{{_name}}}"]
    CASES[f"det_all_{_name}"] = ["det", f"{{{_name}}}", "--mode", "all"]
CASES.update({
    "check_rough10": ["check", "{rough10}"],
    "sweep_binomial_p_exact": ["sweep", "binomial", "--n", "5", "--p", "1/2",
                               "--param", "p", "--start", "1/10", "--stop", "1/2",
                               "--steps", "5"],
    "sweep_binomial_p_float": ["sweep", "binomial", "--n", "5", "--p", "0.5",
                               "--param", "p", "--start", "0.1", "--stop", "0.5",
                               "--steps", "5"],
    "sweep_uniform_atoms": ["sweep", "uniform", "--atoms", "4", "--param", "atoms",
                            "--start", "2", "--stop", "7", "--steps", "6"],
    "sample_rows_k4": ["sample", "--k", "4", "--count", "40", "--seed", "12",
                       "--rows", "{out:rows.csv}"],
    "sample_rows_k6": ["sample", "--k", "6", "--count", "25", "--seed", "3",
                       "--rows", "{out:rows.csv}"],
    "bisect_trace_exact": ["bisect", "{uniform6}", "{binomial5}", "--tol", "1e-6",
                           "--trace", "{out:trace.csv}"],
    "bisect_trace_float_scan": ["bisect", "{float_flat}", "{float_binomial5}",
                                "--tol", "1e-4", "--scan", "3",
                                "--trace", "{out:trace.csv}"],
})
EMBED_CASES = ("uniform6", "binomial5", "float_flat", "float_boundary")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expand(template, work: Path):
    argv, files = [], []
    for arg in template:
        if arg.startswith("{out:"):
            name = arg[len("{out:"):-1]
            files.append(name)
            argv.append(str(work / name))
        elif arg.startswith("{"):
            path = work / f"{arg[1:-1]}.json"
            path.write_text(json.dumps({"weights": INPUTS[arg[1:-1]]}))
            argv.append(str(path))
        else:
            argv.append(arg)
    return argv, files


def record(name, work: Path) -> dict:
    """Run one case and return what it printed, wrote and returned."""
    if name.startswith("embed_"):
        argv, _ = _expand(["embed", f"{{{name[len('embed_'):]}}}"], work)
        code, _, err = _run(argv)
        dim = json.loads(err)["dimension"] if code == 0 else None
        return {"argv": ["embed", name[len("embed_"):]], "exit": code,
                "dimension": dim}
    argv, files = _expand(CASES[name], work)
    code, out, err = _run(argv)
    return {
        "argv": CASES[name],
        "exit": code,
        "stdout": out,
        "stderr": err,
        "files": {f: (work / f).read_text() for f in files},
    }


ALL_CASES = sorted(CASES) + [f"embed_{n}" for n in EMBED_CASES]


@pytest.mark.parametrize("name", ALL_CASES)
def test_golden_output(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert record(name, tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert {path.stem for path in GOLDEN.glob("*.json")} == set(ALL_CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in ALL_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            doc = record(case, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(case, doc["exit"], file=sys.stderr)
