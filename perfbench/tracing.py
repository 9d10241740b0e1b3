"""Outside-in tracing of qfdiv for the benchmark's per-layer metrics.

``installed(tracer)`` replaces every public function of every qfdiv module,
in every qfdiv namespace that binds it (modules import each other's
functions with ``from .x import y``), the public methods and hand-written
constructors of qfdiv's classes, the SVG canvas of ``cli``, and numpy's
Hermitian eigensolvers with wrappers that record spans.  Leaving the
context puts every original back.  Nothing inside ``src/`` is edited.

A span is ``[name, start, end, parent]``; spans of one op share a list and
its index.  A layer is the part of the span name before the first dot.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = ("linalg", "generators", "states", "divergence", "maximal", "bounds",
          "verify", "cli")
KERNEL = "kernel.eig"
KERNEL_FUNCTIONS = ("eigh", "eigvalsh")
SVG = "cli.svg"
SVG_METHODS = ("__init__", "polyline", "scatter", "legend", "write")
ROOT = "bench.op"
# span name -> index of the argument naming the file the call writes
WRITES = {"cli.write_csv": 0}
MARK = "__perfbench_original__"
# ops whose spans are written out; the rest only feed the totals
KEEP_OPS = 1


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never exceeds the duration.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


class Tracer:
    """Spans of the current op plus running per-name totals over all ops."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.kept = []  # (op id, spans) of the first KEEP_OPS ops
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.bytes = Counter()
        self.files = Counter()
        self.ops = 0
        self.wall = 0.0
        self.n_spans = 0
        self.closure_err = 0.0

    def wrap(self, name, fn, path_arg=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if path_arg is not None:
                tracer.files[name] += 1
                tracer.bytes[name] += os.path.getsize(args[path_arg])
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; folds the op's spans into the totals after it."""
        self.spans = [[ROOT, 0.0, 0.0, -1]]
        self.stack = [0]
        self.spans[0][1] = perf_counter()
        try:
            yield
        finally:
            self.spans[0][2] = perf_counter()
            self.stack = []
            self._fold(op_id)

    def _fold(self, op_id):
        spans = self.spans
        selfs = self_times(spans)
        for (name, start, end, _), own in zip(spans, selfs):
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += own
        wall = spans[0][2] - spans[0][1]
        # layer self times plus the root's own remainder must cover the op
        self.closure_err = max(self.closure_err, abs(sum(selfs) - wall))
        self.ops += 1
        self.wall += wall
        self.n_spans += len(spans)
        if len(self.kept) < KEEP_OPS:
            self.kept.append((op_id, spans))
        self.spans = []

    def layer_self(self):
        out = Counter()
        for name, own in self.self_s.items():
            out[name.split(".")[0]] += own
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for op_id, spans in self.kept:
                for i, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps({"op": op_id, "id": i, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _class_targets(layer, cls):
    if cls.__name__ == "_SvgCanvas":
        return [(m, SVG, 1 if m == "write" else None) for m in SVG_METHODS]
    if cls.__name__.startswith("_") or issubclass(cls, BaseException):
        return []
    targets = []
    for attr, fn in vars(cls).items():
        if not inspect.isfunction(fn):
            continue
        if not attr.startswith("_"):
            targets.append((attr, f"{layer}.{cls.__name__}.{attr}", None))
        elif attr == "__init__" and not dataclasses.is_dataclass(cls):
            targets.append((attr, f"{layer}.{cls.__name__}", None))
    return targets


def install(tracer):
    """Wrap qfdiv and the eigensolvers; returns the patches for uninstall."""
    import numpy as np

    modules = {layer: importlib.import_module(f"qfdiv.{layer}") for layer in LAYERS}
    functions = {}  # original function -> span name
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, name, path_arg=None):
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, original, path_arg))
        patches.append((owner, attr, original))

    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not attr.startswith("_"):
                functions[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for meth, name, path_arg in _class_targets(layer, obj):
                    patch(obj, meth, name, path_arg)
    for ns in (importlib.import_module("qfdiv"), *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in functions:
                name = functions[obj]
                patch(ns, attr, name, WRITES.get(name))
    for attr in KERNEL_FUNCTIONS:
        patch(np.linalg, attr, KERNEL)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer):
    patches = install(tracer)
    try:
        yield patches
    finally:
        uninstall(patches)


def wrapped_bindings():
    """Every qfdiv or numpy.linalg binding that is still a tracing wrapper."""
    import numpy as np

    owners = [np.linalg]
    for ns in (importlib.import_module("qfdiv"),
               *(importlib.import_module(f"qfdiv.{m}") for m in LAYERS)):
        owners.append(ns)
        owners.extend(obj for obj in vars(ns).values() if inspect.isclass(obj))
    return [f"{getattr(o, '__name__', o)}.{attr}"
            for o in owners for attr, obj in vars(o).items() if hasattr(obj, MARK)]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("kernel.eig.calls", "calls/op", "lower"),
    ("kernel.eig.us_per_call", "us", "lower"),
    ("kernel.share", "fraction", "higher"),
    ("linalg.hermitian_eig.calls", "calls/op", "lower"),
    ("linalg.hermitian_eig.us_per_call", "us", "lower"),
    ("linalg.self_s", "s/op", "lower"),
    ("states.random_density.us_per_call", "us", "lower"),
    ("states.DensityMatrix.calls", "calls/op", "lower"),
    ("states.DensityMatrix.us_per_call", "us", "lower"),
    ("states.satisfies_abs_condition.us_per_call", "us", "lower"),
    ("states.apply_channel.calls", "calls/op", "lower"),
    ("states.apply_channel.us_per_call", "us", "lower"),
    ("states.self_s", "s/op", "lower"),
    ("generators.builtin_generator.calls", "calls/op", "lower"),
    ("generators.FGenerator.at.calls", "calls/op", "lower"),
    ("generators.self_s", "s/op", "lower"),
    ("divergence.classical_f_div.calls", "calls/op", "lower"),
    ("divergence.classical_f_div.us_per_call", "us", "lower"),
    ("divergence.quantum_relative_entropy.us_per_call", "us", "lower"),
    ("divergence.trace_distance.calls", "calls/op", "lower"),
    ("divergence.self_s", "s/op", "lower"),
    ("maximal.build_witness.calls", "calls/op", "lower"),
    ("maximal.build_witness.us_per_call", "us", "lower"),
    ("maximal.builds_per_pair", "builds/pair", "lower"),
    ("maximal.verify_witness.us_per_call", "us", "lower"),
    ("maximal.self_s", "s/op", "lower"),
    ("bounds.audenaert_eisert_bound.us_per_call", "us", "lower"),
    ("bounds.check_reverse_pinsker_quantum.us_per_call", "us", "lower"),
    ("bounds.self_s", "s/op", "lower"),
    ("verify.self_s", "s/op", "lower"),
    ("cli.write_csv.us_per_call", "us", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.svg.us_per_call", "us", "lower"),
    ("cli.svg.bytes", "B", "lower"),
    ("cli.parse_state_file.us_per_call", "us", "lower"),
    ("cli.fig2.accept_ratio", "fraction", "higher"),
    ("cli.self_s", "s/op", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.closure_err_s", "s", "lower"),
    ("trace.spans_per_op", "spans/op", "lower"),
]


def layer_metrics(tracer, pairs):
    """Per-layer metrics from a traced phase over ``pairs`` state pairs.

    ``calls`` are per op, ``us_per_call`` is inclusive time per call (0 when
    never called), ``self_s`` is a layer's self time per op.  The metrics
    that need more than the spans (fig2 accept ratio, tracing overhead) are
    added by the caller.
    """
    ops = tracer.ops
    layer = tracer.layer_self()

    def calls(name):
        return tracer.calls[name] / ops

    def us(name, per=None):
        n = tracer.calls[name] if per is None else per
        return tracer.incl[name] / n * 1e6 if n else 0.0

    def bytes_per_file(name):
        n = tracer.files[name]
        return tracer.bytes[name] / n if n else 0.0

    out = {
        "kernel.eig.calls": calls(KERNEL),
        "kernel.eig.us_per_call": us(KERNEL),
        "kernel.share": tracer.self_s[KERNEL] / tracer.wall,
        "maximal.builds_per_pair": (tracer.calls["maximal.build_witness"] / pairs
                                    if pairs else 0.0),
        "cli.write_csv.bytes": bytes_per_file("cli.write_csv"),
        "cli.svg.us_per_call": us(SVG, tracer.files[SVG]),
        "cli.svg.bytes": bytes_per_file(SVG),
        "trace.unattributed_share": tracer.self_s[ROOT] / tracer.wall,
        "trace.closure_err_s": tracer.closure_err,
        "trace.spans_per_op": tracer.n_spans / ops,
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = layer[name] / ops
    for metric, _, _ in PER_LAYER:
        if metric in out or metric.startswith(("trace.", "cli.fig2.")):
            continue
        name, _, stat = metric.rpartition(".")
        out[metric] = calls(name) if stat == "calls" else us(name)
    return out
