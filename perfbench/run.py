"""Run one atomembed benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_query --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; atomembed is imported from
``src/`` of that checkout and nowhere else.  Commands run in-process through
``atomembed.cli.main`` as a closed loop with one client: each command starts
when the previous one has returned.  The workload's command list (one pass)
repeats until ``--seconds`` is used up, and for at least ``MIN_OPS``
commands, so that the 90th latency percentile has ten samples beyond it.
Every distinct output is checked against ``oracle`` after the timed window.
End-to-end times are scaled to a reference host speed by a probe timed
between commands (see ``probe``); metric names and units come from
``BENCHMARK.json``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and the last line
carries the per-layer metrics of the traced passes.  A run record with
every figure and the machine it ran on goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

#: Set-up (fresh import of atomembed, input generation, warm-up) repeats
#: this often per run; setup_s is the median.
SETUP_REPEATS = 21
#: Fewest commands per run: the 90th percentile then has ten samples beyond it.
MIN_OPS = 110

#: Largest share of a traced pass's command time the spans may leave uncovered.
MAX_UNATTRIBUTED = 0.005
#: The probe's typical time on the machine the benchmark was defined on (a
#: 2-core Intel Xeon VM, Python 3.11).  Timings are scaled to this speed.
PROBE_REFERENCE_S = 1.6e-3
_PROBE_WEIGHTS = [Fraction(p, q) for p, q in ((3, 7), (5, 11), (2, 9), (7, 13), (4, 5), (6, 17), (8, 3))]


class ProgramMissing(Exception):
    """The checkout has no importable atomembed under src/."""


def import_program():
    """Import atomembed.cli afresh from the checkout, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "atomembed" or n.startswith("atomembed.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("atomembed.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import atomembed from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"atomembed was imported from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """One command in-process: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


class Outputs:
    """Distinct outputs per command, with how often each was seen."""

    def __init__(self):
        self.seen = {}

    def add(self, index, rc, out, err):
        key = (index, rc, hashlib.sha1(out.encode()).digest(), hashlib.sha1(err.encode()).digest())
        if key in self.seen:
            self.seen[key][1] += 1
        else:
            self.seen[key] = [(rc, out, err), 1]

    def verify(self, ops):
        """(attempted, failed, first problems) over every execution recorded."""
        attempted = failed = 0
        problems = []
        for (index, *_), ((rc, out, err), times) in self.seen.items():
            attempted += times
            try:
                found = ops[index].verify(rc, out, err)
            except Exception as exc:  # output too malformed for the checker
                found = [f"output could not be checked: {exc!r}"]
            if found:
                failed += times
                problems.append({"argv": ops[index].argv, "problems": found[:5]})
        return attempted, failed, problems[:10]


def probe():
    """Seconds that a fixed piece of pure-Python work takes right now.

    The host this benchmark runs on is shared: its speed drifts by up to
    1.7x over seconds to minutes, in the program and in this probe alike.
    The probe runs next to every timed command, and the command's time is
    scaled by the probe's reference time over its time around the command.
    It uses nothing from atomembed, so a change to the program cannot move
    it; garbage collection is held off so the program's garbage cannot
    either.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    positive = 0
    for sub in combinations(_PROBE_WEIGHTS, 5):
        z = [1 / x for x in sub]
        positive += sum(z) ** 2 - 3 * sum(v * v for v in z) > 0
    acc = 0.0
    for i in range(3000):
        acc += (i * 1.000001) ** 0.5
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def scaled(seconds, before, after):
    """``seconds`` at the reference host speed, from the probes around it."""
    return seconds * PROBE_REFERENCE_S * 2 / (before + after)


def run_pass(cli, ops, outputs, latencies=None, probes=None, tracer=None):
    """Run every command once; returns (command seconds, stdout bytes).

    With ``latencies``, each command's raw seconds are appended to it, and
    a probe taken after the command to ``probes`` (which must hold the
    probe taken before the first command).
    """
    wall = 0.0
    stdout_bytes = 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.command = index
        rc, elapsed, out, err = call(cli, op.argv)
        wall += elapsed
        if latencies is not None:
            latencies.append(elapsed)
            probes.append(probe())
        if tracer is not None:
            stdout_bytes += len(out.encode())
        outputs.add(index, rc, out, err)
    return wall, stdout_bytes


def set_up(name, seed, work):
    """Fresh import, fresh inputs and a warm-up; returns (cli, ops, seconds)."""
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start = time.perf_counter()
    cli = import_program()
    for path in work.iterdir():
        path.unlink()
    ops, warmup = workloads.build(name, seed, work)
    for argv in warmup:
        call(cli, argv)
    return cli, ops, time.perf_counter() - start


def percentile(samples, q):
    """Decile ``q`` (exclusive method) and how many samples lie beyond it."""
    value = statistics.quantiles(samples, n=10)[q // 10 - 1]
    return value, sum(1 for s in samples if s > value)


def measure(cli, ops, seconds):
    """Closed loop of whole passes over the command list."""
    outputs = Outputs()
    latencies, probes, walls, cpu = [], [probe()], [], []
    start = time.perf_counter()
    while True:
        cpu_start = time.process_time()
        wall, _ = run_pass(cli, ops, outputs, latencies, probes)
        cpu.append(time.process_time() - cpu_start)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(latencies) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            break
    items = sum(op.items for op in ops)
    passes = len(walls)
    # Each command's time is scaled by the probes on either side of it; the
    # figures below are in seconds at the reference host speed.
    times = [scaled(t, a, b) for t, a, b in zip(latencies, probes, probes[1:])]
    per_op = [statistics.median(times[i::len(ops)]) for i in range(len(ops))]
    p50, beyond50 = percentile(times, 50)
    p90, beyond90 = percentile(times, 90)
    metrics = {
        "wall_s": sum(times) / passes,
        "items_per_s": items * passes / sum(times),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # The raw figures stay in the record: CPU seconds per pass tell a host
    # that stole time apart from one that ran slow, and the probe times show
    # how far the host's speed was from the reference.
    record = {"passes": passes, "pass_wall_s": walls, "pass_cpu_s": cpu,
              "raw_wall_s": sum(walls) / passes, "items_per_pass": items,
              "latencies_s": latencies, "probes_s": probes, "scaled_latencies_s": times,
              "host_speed": PROBE_REFERENCE_S / statistics.median(probes),
              "latency_samples": len(times),
              "samples_beyond": {"op_p50_ms": beyond50, "op_p90_ms": beyond90},
              "op_median_s": [[" ".join(Path(a).name if a.startswith("/") else a for a in op.argv), t]
                              for op, t in zip(ops, per_op)]}
    return metrics, record, outputs


def measure_traced(cli, ops, seconds, name, seed):
    """Alternate untraced and traced passes; per-layer figures per traced pass."""
    outputs = Outputs()
    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, ops, outputs)[0])
        tracer.reset()
        tracer.install(np)
        try:
            wall, stdout_bytes = run_pass(cli, ops, outputs, tracer=tracer)
        finally:
            tracer.remove()
        traced.append(wall)
        summaries.append(tracer.summary(wall, len(ops), stdout_bytes))
        elapsed = time.perf_counter() - start
        if len(traced) >= 2 and elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    problems = []
    for key in tracing.EXACT_COUNTS + ("cli.stdout_bytes",):
        values = {s[key] for s in summaries}
        if len(values) != 1:
            problems.append(f"{key} differs between identical traced passes: {sorted(values)}")
    # The layer self times and the remainder add up to the pass time by
    # construction; what can go wrong is spans that miss part of a command.
    for s in summaries:
        if s["trace.unattributed_s"] > MAX_UNATTRIBUTED * s["trace.wall_s"]:
            problems.append(f"spans miss {s['trace.unattributed_s']:.3g} s "
                            f"of a {s['trace.wall_s']:.3g} s traced pass")
    # counts repeat exactly (checked above) and stay whole numbers; times are medians
    metrics = {key: summaries[0][key] if len({s[key] for s in summaries}) == 1
               else statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{name}-seed{seed}.spans.npz"
    np.savez(spans, names=np.array(tracer.names), **tracer.arrays())
    record = {"passes": len(traced), "untraced_pass_wall_s": plain, "traced_pass_wall_s": traced,
              "traced_passes": summaries, "spans_file": str(spans.relative_to(HERE.parent)),
              "trace_problems": problems}
    return metrics, record, outputs, problems


def machine():
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def letter_shares(ops):
    """E/N/I share of the workload's classified items, from the references."""
    letters = []
    for op in ops:
        letters.extend(op.letters(op.reference.value))
    return {c: letters.count(c) / len(letters) for c in "ENI"} if letters else {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setups, raw_setups = [], []
        for _ in range(repeats):
            before = probe()
            cli, ops, elapsed = set_up(args.workload, args.seed, work)
            raw_setups.append(elapsed)
            setups.append(scaled(elapsed, before, probe()))
        if args.trace:
            metrics, record, outputs, problems = measure_traced(
                cli, ops, args.seconds, args.workload, args.seed)
        else:
            metrics, record, outputs = measure(cli, ops, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
            problems = []
        attempted, failed, failures = outputs.verify(ops)
        shares = letter_shares(ops)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {key: metrics[key] for key in units}
    correct = failed == 0 and not problems
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "setup_s_samples": setups, "raw_setup_s_samples": raw_setups, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures,
        "letter_share": shares, "correct": correct,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for key, value in metrics.items():
        print(f"{key:32s} {value:14.6g} {units[key]}")
    print(f"{'failed_ratio':32s} {failed / attempted:14.6g} ({failed} of {attempted})")
    print(f"{'letter_share':32s} " + " ".join(f"{c}={v:.3f}" for c, v in shares.items()))
    for item in failures:
        print(f"FAILED {' '.join(item['argv'])}: {item['problems']}", file=sys.stderr)
    for problem in problems:
        print(f"TRACE {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(HERE.parent)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
