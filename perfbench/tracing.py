"""Self-time and call-count tracing of the program's public functions.

The tracer wraps functions from outside, with no change to the program.
`pipeline` and `cli` import several functions by name, so each function is
replaced in every `noisetrans` module namespace that holds it, not only
where it is defined; methods are replaced on their class. Every wrapper is
restored when the `with` block ends.

A wrapped function's self time is its wall time minus the time spent in
wrapped functions it called, so the self times of one operation add up to
the operation's traced wall time minus unwrapped glue.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

import noisetrans.autodiff
import noisetrans.cli
import noisetrans.geometry
import noisetrans.model
import noisetrans.objective
import noisetrans.pipeline
import noisetrans.spatial

AUTODIFF_OPS = (
    "matmul", "add", "sub", "mul", "linear", "gather_rows", "broadcast_to",
    "concat", "reshape", "transpose", "sigmoid", "relu", "gelu", "layer_norm",
    "softmax", "reduce_max", "reduce_min", "reduce_sum", "pairwise_sqdist",
)


def _rows(args, kwargs):
    return len(args[0])


def _query_rows(args, kwargs):
    return len(args[1])  # args[0] is the KdTree


def _tape_records(args, kwargs):
    return len(args[0])  # the Tape, read before backward replays it


# (module, attribute path, {count suffix: counter(args, kwargs)})
TARGETS = [
    (noisetrans.cli, "main", {}),
    (noisetrans.geometry, "read_pointcloud", {}),
    (noisetrans.geometry, "write_pointcloud", {}),
    (noisetrans.pipeline, "denoise", {}),
    (noisetrans.pipeline, "estimate_normals", {}),
    (noisetrans.pipeline, "build_training_pairs", {}),
    (noisetrans.pipeline, "evaluate_pairs", {}),
    (noisetrans.pipeline, "train", {}),
    (noisetrans.spatial, "extract_patches", {}),
    (noisetrans.spatial, "stitch_patches", {}),
    (noisetrans.spatial, "KdTree.query", {"rows": _query_rows}),
    (noisetrans.model, "forward", {"points": _rows}),
    (noisetrans.model, "build_graphs", {}),
    (noisetrans.model, "point_embedding", {}),
    (noisetrans.model, "sparse_encoding", {}),
    (noisetrans.model, "encoder_layer", {}),
    (noisetrans.model, "output_header", {}),
    (noisetrans.model, "load_weights", {}),
    (noisetrans.model, "save_weights", {}),
    (noisetrans.autodiff, "Tape.backward", {"records": _tape_records}),
    *[(noisetrans.autodiff, op, {}) for op in AUTODIFF_OPS],
    (noisetrans.objective, "loss_total", {}),
    (noisetrans.objective, "Adam.step", {}),
    (noisetrans.objective, "chamfer_distance", {}),
    (noisetrans.objective, "point_to_mesh", {}),
]

# counts measured on a function's result rather than its arguments
RESULT_COUNTS = {"spatial.extract_patches": ("patches", len)}


def metric_prefix(module, path: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """Context manager that wraps every TARGETS entry while active."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counters: dict):
        result_count = RESULT_COUNTS.get(name)
        self_s, counts, stack = self.self_s, self.counts, self._child_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            for suffix, count in counters.items():
                counts[f"{name}.{suffix}"] += count(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                counts[f"{name}.calls"] += 1
                if stack:
                    stack[-1] += dt
            if result_count is not None:
                counts[f"{name}.{result_count[0]}"] += result_count[1](out)
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "noisetrans" or n.startswith("noisetrans.")]
        for module, path, counters in TARGETS:
            name = metric_prefix(module, path)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name, cls.__dict__[meth], counters))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(name, orig, counters)
            for m in modules:
                if m.__dict__.get(path) is orig:
                    self._replace(m, path, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False

    def snapshot(self) -> Counter:
        """Counts so far; subtract two snapshots to count one operation."""
        return Counter(self.counts)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric name, zero where a function was never called."""
    out = {}
    for module, path, counters in TARGETS:
        name = metric_prefix(module, path)
        out[f"{name}.s"] = (tracer.self_s[name], "s")
        out[f"{name}.calls"] = (tracer.counts[f"{name}.calls"], "count")
        for suffix in counters:
            out[f"{name}.{suffix}"] = (tracer.counts[f"{name}.{suffix}"], "count")
        if name in RESULT_COUNTS:
            suffix = RESULT_COUNTS[name][0]
            out[f"{name}.{suffix}"] = (tracer.counts[f"{name}.{suffix}"], "count")
    tape = out.pop("autodiff.Tape.backward.records")
    out["autodiff.tape.records"] = tape
    return out
