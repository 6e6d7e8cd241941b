"""Op timing, span tracing and computed counts, installed from outside the program.

Everything here wraps functions of the `topoflow` package at the names their
callers look up. Many call sites bind a function with `from .x import f`, so
patching only the defining module would miss them; `Instrument.install`
rebinds every global name in every loaded `topoflow` module that refers to a
wrapped function, and patches `autodiff.Tensor` methods on the class. The
package under `src/` is not modified; `uninstall` restores every binding.

Three kinds of wrapper exist, nested in this order from the inside out:

* spans and computed counts, only in a traced run: each span records name,
  start, end, parent span and op id; self time is the span's duration minus
  the time its child spans (and the tracer's own bookkeeping inside it)
  cover;
* output hooks, which let a workload check or count what a call returned;
* op boundaries: the workload names the function whose calls are its ops,
  or whose calls start a new op, and each op's duration and pass/fail state
  are recorded.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from topoflow import attention, autodiff, evalkit, fields, model, reorder, synthdata
from topoflow import topo_bias, train

clock = time.perf_counter


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class OpLog:
    """Durations and failure flags of a workload's ops, in order."""

    def __init__(self):
        self.durations: list[float] = []
        self.failed: list[bool] = []
        self.current: int | None = None
        self._start = 0.0

    def begin(self) -> int:
        if self.current is not None:
            self.end()
        self.current = len(self.durations)
        self.durations.append(math.nan)
        self.failed.append(False)
        self._start = clock()
        return self.current

    def end(self) -> None:
        if self.current is not None:
            self.durations[self.current] = clock() - self._start
            self.current = None

    def fail(self, index: int | None = None) -> None:
        index = self.current if index is None else index
        if index is not None:
            self.failed[index] = True

    def __len__(self) -> int:
        return len(self.durations)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

# span record layout: (name, start, end, parent index, op id, covered by children);
# a list while the span is open, a tuple once closed (tuples of plain values
# drop out of the garbage collector's scans, which keeps long traces cheap)
NAME, START, END, PARENT, OP, COVERED = range(6)


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, ops: OpLog):
        self.ops = ops
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` updates counts."""
        spans, stack, ops = self.spans, self.stack, self.ops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            rec = [name, 0.0, 0.0, parent, ops.current, 0.0]
            stack.append(index)
            spans.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, rec[OP], rec[COVERED])
                if parent >= 0:
                    spans[parent][COVERED] += end - start
            if after is not None:
                self.hidden(lambda: after(args, kwargs, result))
            return result

        return traced

    def hidden(self, fn):
        """Run tracer bookkeeping `fn` outside every open span's self time."""
        t0 = clock()
        out = fn()
        if self.stack:
            self.spans[self.stack[-1]][COVERED] += clock() - t0
        return out

    def totals(self) -> tuple[Counter, Counter]:
        """(self seconds, call count) per span name."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for rec in self.spans:
            self_s[rec[NAME]] += (rec[END] - rec[START]) - rec[COVERED]
            calls[rec[NAME]] += 1
        return self_s, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP],
                }) + "\n")


# ---------------------------------------------------------------------------
# computed counts
# ---------------------------------------------------------------------------

def tape_stats(out: autodiff.Tensor) -> tuple[int, int]:
    """(recorded nodes reachable, bytes reachable) from a tape output.

    The reachable recorded nodes (those carrying a backward rule) are the
    ones a backward pass from `out` visits.

    Bytes count every distinct array buffer reachable from `out`: node
    values, constants fed into the graph, and arrays captured by backward
    closures. Views are charged once, to their base buffer.
    """
    buffers: dict[int, int] = {}
    seen: set[int] = set()
    visited = 0
    stack = [out]

    def charge(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        buffers[id(arr)] = arr.nbytes

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        visited += node._vjp is not None
        charge(node.data)
        for cell in getattr(node._vjp, "__closure__", None) or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                charge(value)
        stack.extend(node._parents)
    return visited, sum(buffers.values())


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

# (owner, attribute, span name) for every traced layer function. The owner is
# where the function is defined; install() also rebinds every other module
# global that names the same function object. Attention is traced at
# `_attend_parts`, which both `attend` and the attention-map path of
# `model.forward` call.
SPANS = (
    (attention, "_attend_parts", "attention.attend"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (autodiff.Tensor, "__matmul__", "autodiff.matmul"),
    (autodiff, "softmax", "autodiff.softmax"),
    (autodiff, "layer_norm", "autodiff.layer_norm"),
    (autodiff, "gelu", "autodiff.gelu"),
    (autodiff, "dropout", "autodiff.dropout"),
    (topo_bias, "uphill_matrix", "topo_bias.uphill_matrix"),
    (topo_bias, "bias_tensor", "topo_bias.bias_tensor"),
    (reorder, "build_permutation", "reorder.build_permutation"),
    (reorder, "unapply", "reorder.unapply"),
    (model, "forward", "model.forward"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (train, "optimize_step", "train.optimize_step"),
    (train, "_masked_mse_tokens", "train.loss"),
    (train, "evaluate_loss", "train.evaluate_loss"),
    (train, "prepare_arrays", "train.prepare_arrays"),
    (evalkit, "predict_grids", "evalkit.predict_grids"),
    (evalkit, "report", "evalkit.report"),
    (synthdata, "make_sample", "synthdata.make_sample"),
    (synthdata, "_step_array", "synthdata.integrator"),
    (synthdata, "synth_wind", "synthdata.synth_wind"),
    (synthdata, "write_dataset", "synthdata.write_dataset"),
    (synthdata, "read_dataset", "synthdata.read_dataset"),
    (fields, "write_grid", "fields.write_grid"),
    (fields, "read_grid", "fields.read_grid"),
    (fields, "normalize", "fields.normalize"),
)

# wrapper nesting: spans innermost, then output hooks, then op boundaries, so
# every span sees the op it belongs to and hooks run outside the span
SPAN, HOOK, OP = range(3)


class Instrument:
    """Plans wrappers per function, then installs and removes them together."""

    def __init__(self, ops: OpLog):
        self.ops = ops
        self.tracer: Tracer | None = None
        # keyed by the original function, so every name bound to it gets one chain
        self._plan: dict[int, tuple[object, str, list]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, owner, attr: str, rank: int, make) -> None:
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} no longer exists")
        key = id(vars(owner)[attr])
        self._plan.setdefault(key, (owner, attr, []))[2].append((rank, make))

    def _aside(self, fn):
        """Run bookkeeping `fn`, outside every span's self time when tracing."""
        return fn() if self.tracer is None else self.tracer.hidden(fn)

    def op_call(self, owner, attr: str, check=None) -> None:
        """Each call of owner.attr is one op; `check(result)` False fails it."""
        ops = self.ops

        def make(fn):
            @functools.wraps(fn)
            def op(*args, **kwargs):
                index = ops.begin()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ops.end()
                if check is not None and not self._aside(lambda: check(result)):
                    ops.fail(index)
                return result

            return op

        self._add(owner, attr, OP, make)

    def op_start(self, owner, attr: str) -> None:
        """Each call of owner.attr starts a new op and closes the previous one."""
        ops = self.ops

        def make(fn):
            @functools.wraps(fn)
            def mark(*args, **kwargs):
                ops.begin()
                return fn(*args, **kwargs)

            return mark

        self._add(owner, attr, OP, make)

    def hook(self, owner, attr: str, after) -> None:
        """Call `after(args, kwargs, result)` after each call of owner.attr.

        In a traced run the hook's own time is kept out of every span.
        """

        def make(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._aside(lambda: after(args, kwargs, result))
                return result

            return hooked

        self._add(owner, attr, HOOK, make)

    def trace(self, tracer: Tracer) -> None:
        """Plan every layer span plus the computed counts."""
        self.tracer = tracer
        counts = tracer.counts

        def attention_logits(args, kwargs, out):
            tokens, params = args[0], args[1]
            b = tokens.shape[0] if len(tokens.shape) == 3 else 1
            n = tokens.shape[-2]
            entries = b * params.n_heads * n * n
            counts["attention.logit_entries"] += entries
            counts["attention.logit_bytes"] += entries * out[1].data.dtype.itemsize

        after = {
            "attention.attend": attention_logits,
            "autodiff.matmul": lambda a, k, out: counts.update(
                {"autodiff.matmul.flops": 2 * out.data.size * a[0].data.shape[-1]}
            ),
            "topo_bias.bias_tensor": lambda a, k, out: counts.update(
                {"topo_bias.bias_entries": out.data.size}
            ),
            "model.save_checkpoint": lambda a, k, out: counts.update(
                {"model.save_checkpoint.bytes": os.path.getsize(a[0])
                 + os.path.getsize(str(a[0]) + ".txt")}
            ),
            "fields.write_grid": lambda a, k, out: counts.update(
                {"fields.write_grid.bytes": os.path.getsize(a[1])}
            ),
            "fields.read_grid": lambda a, k, out: counts.update(
                {"fields.read_grid.bytes": os.path.getsize(a[0])}
            ),
        }
        for owner, attr, name in SPANS:
            self._add(owner, attr, SPAN,
                      lambda fn, name=name: tracer.span(name, fn, after.get(name)))

        def record_node(fn):
            def op(cls, data, parents, vjp):
                out = fn(cls, data, parents, vjp)
                counts["autodiff.nodes_recorded"] += out.requires_grad
                return out

            return op

        def visit_nodes(fn):
            @functools.wraps(fn)
            def backward(node, *args, **kwargs):
                counts["autodiff.nodes_visited"] += tracer.hidden(lambda: tape_stats(node)[0])
                return fn(node, *args, **kwargs)

            return backward

        self._add(autodiff.Tensor, "_op", HOOK, record_node)
        self._add(autodiff.Tensor, "backward", HOOK, visit_nodes)

    def count_tape(self, out: autodiff.Tensor) -> None:
        """Charge the bytes reachable from an op's output tensor (traced runs)."""
        if self.tracer is not None:
            self.tracer.counts["autodiff.tape_bytes"] += tape_stats(out)[1]

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "topoflow" or name.startswith("topoflow.")]
        for owner, attr, makers in self._plan.values():
            original = vars(owner)[attr]
            is_classmethod = isinstance(original, classmethod)
            wrapped = original.__func__ if is_classmethod else original
            for _, make in sorted(makers, key=lambda item: item[0]):
                wrapped = make(wrapped)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, value))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()
