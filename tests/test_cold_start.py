"""What a fresh process loads: exact commands stay free of numpy and the
process pool, and every module the benchmark's tracer binds to is loaded
by ``import atomembed.cli``.

Each check runs in a new interpreter, because the test process itself has
long since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import atomembed

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "concurrent.futures")

#: Runs ``atomembed.cli.main`` on each argv of the JSON list in argv[1] and
#: prints, per command, its exit code and which of HEAVY are loaded after it.
CHILD = """
import contextlib, io, json, sys
from atomembed.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report.append([code, [name for name in %r if name in sys.modules]])
print(json.dumps(report))
""" % (HEAVY,)


def run_child(code, *args):
    env = dict(os.environ)
    src = str(Path(atomembed.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(commands):
    return [tuple(entry) for entry in
            json.loads(run_child(CHILD, json.dumps(commands)).splitlines()[-1])]


def write(path, weights):
    path.write_text(json.dumps({"weights": weights}))
    return str(path)


def test_exact_commands_load_neither_numpy_nor_the_process_pool(tmp_path):
    flat = write(tmp_path / "u.json", ["1/6"] * 6)
    binom = write(tmp_path / "b.json", ["1/32", "5/32", "10/32", "10/32", "5/32", "1/32"])
    commands = [
        ["classify", binom],
        ["check", binom],
        ["det", binom],
        ["family", "binomial", "--n", "5", "--p", "1/2"],
        ["sweep", "binomial", "--n", "5", "--p", "1/2", "--param", "p",
         "--start", "1/4", "--stop", "3/4", "--steps", "3"],
        ["bisect", flat, binom, "--tol", "1e-3"],
    ]
    assert loaded_after(commands) == [(0, [])] * len(commands)


def test_embed_and_sample_load_numpy_and_only_a_pool_loads_the_pool(tmp_path):
    flat = write(tmp_path / "u.json", ["1/6"] * 6)
    assert loaded_after([["embed", flat]]) == [(0, ["numpy"])]
    sample = ["sample", "--k", "3", "--count", "8", "--seed", "1"]
    assert loaded_after([sample + ["--jobs", "1"], sample + ["--jobs", "2"]]) == [
        (0, ["numpy"]),
        (0, ["numpy", "concurrent.futures"]),
    ]


def test_every_traced_binding_resolves_after_importing_the_cli():
    # perfbench/tracer.py looks each SPANS entry up in sys.modules by its home
    # module, so every home must be loaded by the import alone
    code = """
import importlib.util, json, sys
import atomembed.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
missing = []
for qualified in tracer.SPANS:
    home, attr = qualified.split(".")
    module = sys.modules.get("atomembed." + home)
    if module is None or not callable(getattr(module, attr, None)):
        missing.append(qualified)
print(json.dumps(missing))
"""
    out = run_child(code, str(ROOT / "perfbench" / "tracer.py"))
    assert json.loads(out.splitlines()[-1]) == []
