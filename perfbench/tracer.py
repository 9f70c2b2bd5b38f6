"""Spans around atomembed's public functions, installed at run time.

The program is not modified: each function listed in ``SPANS`` is replaced,
in every atomembed module that holds a reference to it, by a wrapper that
records one span (name, start, end, parent span, command id).  Spans live
in flat arrays while a pass runs and are reduced to per-layer figures
afterwards; a layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

#: "module.function" -> span name; the layer is the part before the dot.
SPANS = {
    "cli.main": "cli.main",
    "measure.load_measure": "measure.load",
    "measure.measure_from_json": "measure.parse",
    "measure.validate_measure": "measure.validate",
    "measure.atom_metric": "measure.atom_metric",
    "families.realize": "families.realize",
    "families.family_grid": "families.grid",
    "gram.reduced_criterion": "gram.criterion",
    "gram.criterion_scale": "gram.scale",
    "gram.det_closed_form": "gram.det",
    "gram.det_numeric": "gram.det",
    "gram.det_lemma_route": "gram.det",
    "gram.gram_matrix": "gram.gram_matrix",
    "flatness.is_flat": "flatness.is_flat",
    "flatness.dimension": "flatness.dimension",
    "flatness.classify": "flatness.classify",
    "embedding.embed": "embedding.embed",
    "embedding.verify_isometry": "embedding.verify",
    "explorer.sweep": "explorer.sweep",
    "explorer.bisect_boundary": "explorer.bisect",
    "explorer.mixture": "explorer.mixture",
    "explorer.sample_simplex": "explorer.sample",
}
#: Bindings that get their own span name in one calling module: building
#: the Gram matrix that `embed` factorizes.
RENAMED = {
    ("embedding", "gram_matrix"): "embedding.gram_build",
    ("embedding", "atom_metric"): "embedding.gram_build",
}
LAYERS = ("cli", "measure", "families", "gram", "flatness", "embedding", "explorer")


class Tracer:
    """Records spans while installed; `install` and `remove` patch the program."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patched = []
        self.command = -1
        self.reset()

    def reset(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self._stack = [-1]
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span, on_result=None):
        name_id = self._id(span)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.cmd.append(tracer.command)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_flatness(self, report):
        self.counts["flatness.is_flat_calls"] += 1
        self.counts["flatness.subsets_checked"] += report.checked_count
        self.counts["flatness.flat"] += bool(report.flat)
        self.counts["flatness.boundary"] += bool(report.boundary)

    def _on_bisect(self, result):
        self.counts["explorer.bisect_iterations"] += result.iterations

    def install(self, numpy_module):
        """Patch every atomembed module binding of each function in SPANS."""
        modules = {n[len("atomembed."):]: m for n, m in sys.modules.items()
                   if n.startswith("atomembed.") and m is not None}
        hooks = {"flatness.is_flat": self._on_flatness,
                 "explorer.bisect_boundary": self._on_bisect}
        for qualified, span in SPANS.items():
            home, attr = qualified.split(".")
            original = getattr(modules[home], attr)
            for mod_name, module in modules.items():
                if getattr(module, attr, None) is original:
                    name = RENAMED.get((mod_name, attr), span)
                    self._patch(module, attr, self._wrap(original, name, hooks.get(qualified)))
        linalg = numpy_module.linalg
        self._patch(linalg, "eigh", self._wrap(linalg.eigh, "embedding.eigh"))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "command": np.frombuffer(self.cmd, dtype=np.int32).copy(),
        }

    def summary(self, wall_s, commands, stdout_bytes):
        """Per-layer figures for the pass just recorded.

        ``wall_s`` is the pass's command time as the benchmark measured it;
        what the root spans do not cover is reported as unattributed, so the
        layer self times plus that remainder add up to ``wall_s``.
        """
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        k = len(self.names)
        total_by = np.bincount(a["name"], weights=dur, minlength=k)
        self_by = np.bincount(a["name"], weights=own, minlength=k)
        calls_by = np.bincount(a["name"], minlength=k)
        ids = self._ids

        def total(span):
            return float(total_by[ids[span]])

        def own_time(span):
            return float(self_by[ids[span]])

        def calls(span):
            return int(calls_by[ids[span]])

        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, i in ids.items():
            layer_self[span.split(".")[0]] += float(self_by[i])
        roots = float(dur[~has_parent].sum())
        c = self.counts
        flat_calls = c["flatness.is_flat_calls"]
        out = {
            "cli.self_s": own_time("cli.main"),
            "cli.stdout_bytes": stdout_bytes,
            "measure.validate_calls": calls("measure.validate"),
            "measure.validate_s": total("measure.validate"),
            "families.realize_s": total("families.realize"),
            "gram.criterion_calls": calls("gram.criterion"),
            "gram.criterion_s": total("gram.criterion"),
            "gram.scale_calls": calls("gram.scale"),
            "gram.scale_s": total("gram.scale"),
            "gram.det_s": total("gram.det"),
            "flatness.is_flat_calls": flat_calls,
            "flatness.subsets_checked": c["flatness.subsets_checked"],
            "flatness.is_flat_self_s": own_time("flatness.is_flat"),
            "flatness.sweeps_per_command": flat_calls / commands,
            "flatness.dimension_s": total("flatness.dimension"),
            "flatness.flat_share": c["flatness.flat"] / flat_calls if flat_calls else 0.0,
            "flatness.boundary_share": c["flatness.boundary"] / flat_calls if flat_calls else 0.0,
            "embedding.embed_s": total("embedding.embed"),
            "embedding.gram_build_s": total("embedding.gram_build"),
            "embedding.eigh_s": total("embedding.eigh"),
            "embedding.verify_s": total("embedding.verify"),
            "explorer.sample_self_s": own_time("explorer.sample"),
            "explorer.sweep_self_s": own_time("explorer.sweep"),
            "explorer.mixture_s": total("explorer.mixture"),
            "explorer.bisect_iterations": c["explorer.bisect_iterations"],
        }
        out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - roots
        out["trace.spans"] = n
        return out


#: Per-layer metrics that are counts and must repeat exactly for a seed.
EXACT_COUNTS = ("flatness.subsets_checked", "gram.criterion_calls",
                "flatness.is_flat_calls", "explorer.bisect_iterations")
