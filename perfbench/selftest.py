"""The benchmark's own test.

    python3 perfbench/selftest.py     # exit code 0 when all holds

Run it from the root of a source checkout.  For one pass of every workload
at ``GOLDEN_SEED`` it checks that:

1. every output passes the oracle;
2. the answers (exit codes, verdicts, dimensions, witnesses, and the E/N/I
   counts of `sample` at --jobs 1 and --jobs 2) equal ``golden.json``, which
   was recorded from the code the benchmark was defined on;
3. outputs checked against a deliberately wrong reference are counted as
   failed, both by the checker and in the result line of ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracle
import run
import workloads

GOLDEN_SEED = 1
GOLDEN = Path(__file__).resolve().parent / "golden.json"
#: golden.json key -> (workload, `sample --jobs`)
CASES = {"exact_query": ("exact_query", 1), "float_sample": ("float_sample", 1),
         "float_sample_jobs2": ("float_sample", 2), "exact_explore": ("exact_explore", 1)}


def answer(argv, rc, out, err):
    """The part of a command's output the golden file pins."""
    command = argv[0]
    if command == "embed":
        summary = json.loads(err.strip().splitlines()[-1]) if rc == 0 else {}
        return [rc, summary.get("dimension")]
    if command == "sweep":
        return [rc, "".join(line.split(",")[1] for line in out.strip().splitlines()[1:])]
    doc = json.loads(out)
    fields = {
        "classify": ["verdict", "dimension", "witness"],
        "check": ["verdict", "dimension", "witness", "checked_count"],
        "det": ["sign", "criterion"],
        "sample": ["embeddable", "not_embeddable", "indeterminate"],
        "bisect": ["verdict_low", "verdict_high", "iterations", "lower", "upper"],
    }[command]
    return [rc] + [doc[f] for f in fields]


def one_pass(cli, name, jobs, work):
    ops, _ = workloads.build(name, GOLDEN_SEED, work, jobs)
    outputs = run.Outputs()
    answers = []
    for index, op in enumerate(ops):
        rc, _, out, err = run.call(cli, op.argv)
        outputs.add(index, rc, out, err)
        answers.append([op.argv[0]] + answer(op.argv, rc, out, err))
    return ops, outputs, answers


def corrupt(name, ops):
    """Give some commands a wrong reference; returns how many must now fail."""
    if name == "exact_query":
        wrong = workloads.Lazy(lambda: oracle.Exact(oracle.binomial(11, Fraction(1, 2))))
        for op in ops[-4:]:  # every command on the flat 12-atom document
            op.reference = wrong
        return 4
    if name == "float_sample":
        letters = ops[0].reference.value
        flipped = ["N" if letters[0] == "E" else "E"] + letters[1:]
        ops[0].reference = workloads.Lazy(lambda: flipped)
        return 1
    params, refs = ops[0].reference.value
    ops[0].reference = workloads.Lazy(lambda: (params, refs[::-1]))
    w0, w1, tol, trace = ops[-1].reference.value
    ops[-1].reference = workloads.Lazy(lambda: (w1, w0, tol, trace))
    return 2


def result_line_counts_failure(name):
    """run.py with a corrupted reference must report the failure on its last line."""
    build = workloads.build
    expected = {}

    def corrupted_build(*args, **kwargs):
        ops, warmup = build(*args, **kwargs)
        expected["failed"] = corrupt(name, ops)
        return ops, warmup

    workloads.build = corrupted_build
    min_ops, run.MIN_OPS = run.MIN_OPS, 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", name, "--seed", str(GOLDEN_SEED), "--seconds", "0"])
    finally:
        workloads.build, run.MIN_OPS = build, min_ops
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return result["failed"] == expected["failed"] and result["correct"] is False


def main():
    cli = run.import_program()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = []
    for key, (name, jobs) in CASES.items():
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as work:
            ops, outputs, answers = one_pass(cli, name, jobs, Path(work))
            attempted, failed, failures = outputs.verify(ops)
            if failed:
                problems.append(f"{key}: {failed} of {attempted} outputs fail the oracle: {failures}")
            if answers != golden[key]:
                diff = [(op.argv[0], a, g) for op, a, g in zip(ops, answers, golden[key]) if a != g]
                problems.append(f"{key}: answers differ from golden.json: {diff}")
            want = corrupt(name, ops)
            _, failed, _ = outputs.verify(ops)
            if failed != want:
                problems.append(f"{key}: wrong references gave {failed} failures, want {want}")
    samples = [[a[2:] for a in golden[n]] for n in ("float_sample", "float_sample_jobs2")]
    if samples[0] != samples[1]:
        problems.append("sample E/N/I counts differ between --jobs 1 and --jobs 2")
    for name in ("float_sample", "exact_explore"):
        if not result_line_counts_failure(name):
            problems.append(f"{name}: run.py did not count a wrong reference as failed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
