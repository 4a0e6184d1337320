"""Outside-in tracing of the ``reconv`` layers.

The tracer wraps public functions where their callers look them up:
``model`` calls ``ops.*`` through the module attribute, and ``train``,
``experiments``, ``gradcheck`` and ``cli`` import the functions they
call by name, so every module attribute bound to a traced function is
replaced by the wrapper. ``_backward_into`` is the one private name
wrapped, because the backward pass has no public entry of its own.

A span is (name, start, end, parent, work); ``work`` holds the
floating-point operations of a convolution and the examples of a
``loss_and_grads`` or ``error_rate`` call. Spans live in flat arrays
and are written out once, when the run ends. Nothing is recorded while
``active`` is false, so the benchmark's own checks stay out of the trace.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

MODULES = ("reconv", "reconv.ops", "reconv.model", "reconv.counting", "reconv.data",
           "reconv.train", "reconv.gradcheck", "reconv.experiments", "reconv.cli")


def _conv_name(extent: int) -> str:
    return "conv_hidden" if extent == 3 else "conv_stem"


def _conv_fwd(x, kernels, *_):
    kh, kw, cin, cout = kernels.shape
    return f"ops.{_conv_name(kh)}.fwd", 2.0 * x.shape[0] * x.shape[1] * kh * kw * cin * cout


def _conv_input_grad(grad_out, kernels, *_):
    kh, kw, cin, cout = kernels.shape
    h, w, _ = grad_out.shape
    return f"ops.{_conv_name(kh)}.input_grad", 2.0 * h * w * kh * kw * cin * cout


def _conv_kernel_grad(x, grad_out, extent, *_):
    h, w, cin = x.shape
    return (f"ops.{_conv_name(extent[0])}.kernel_grad",
            2.0 * h * w * extent[0] * extent[1] * cin * grad_out.shape[2])


def _examples(params, images, *_):
    return "model.loss_and_grads", float(1 if np.ndim(images) == 3 else len(images))


def _dataset_size(params, data, *_):
    return "model.error_rate", float(len(data.images))


# module, function, span name (or a function of the call's arguments
# giving the name and the work)
TARGETS = [
    ("reconv.ops", "conv2d_same", _conv_fwd),
    ("reconv.ops", "conv2d_same_input_grad", _conv_input_grad),
    ("reconv.ops", "conv2d_same_kernel_grad", _conv_kernel_grad),
    ("reconv.ops", "maxpool", "ops.pool.fwd"),
    ("reconv.ops", "maxpool_grad", "ops.pool.grad"),
    ("reconv.ops", "relu", "ops.relu.fwd"),
    ("reconv.ops", "relu_grad", "ops.relu.grad"),
    ("reconv.ops", "l2norm_pixel", "ops.l2norm.fwd"),
    ("reconv.ops", "l2norm_pixel_grad", "ops.l2norm.grad"),
    ("reconv.ops", "softmax", "ops.softmax.fwd"),
    ("reconv.model", "forward", "model.forward"),
    ("reconv.model", "_backward_into", "model.backward"),
    ("reconv.model", "loss_and_grads", _examples),
    ("reconv.model", "error_rate", _dataset_size),
    ("reconv.model", "init_params", "model.init_params"),
    ("reconv.model", "untie", "model.untie"),
    ("reconv.train", "train", "train.train"),
    ("reconv.train", "sgd_momentum_step", "train.sgd_step"),
    ("reconv.data", "load_cifar10", "data.load"),
    ("reconv.data", "load_raw", "data.load"),
    ("reconv.data", "make_synthetic", "data.make_synthetic"),
    ("reconv.data", "minibatches", "data.minibatches"),
    ("reconv.counting", "match_pairs", "counting.match_pairs"),
    ("reconv.counting", "param_count", "counting.param_count"),
    ("reconv.gradcheck", "check_model_grads", "gradcheck.check"),
    ("reconv.experiments", "run_experiment", "experiments.run"),
    ("reconv.cli", "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.active = False
        self.resident_bytes = 0
        self.peak_resident_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, label):
        tracer, clock = self, time.perf_counter
        fixed = None if callable(label) else (self._id(label), 0.0)
        keeps_data = label == "data.load" or label == "data.make_synthetic"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if fixed is None:
                name, work = label(*args, **kwargs)
                ident = tracer._id(name)
            else:
                ident, work = fixed
            index = len(tracer.start)
            tracer.name.append(ident)
            tracer.parent.append(tracer._stack[-1])
            tracer.work.append(work)
            tracer.end.append(0.0)
            tracer._stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer._stack.pop()
            if keeps_data:
                tracer._hold(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hold(self, data) -> None:
        """Count a returned dataset's arrays as resident until it is freed."""
        size = data.images.nbytes + data.labels.nbytes
        self.resident_bytes += size
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        weakref.finalize(data, self._release, size)

    def _release(self, size: int) -> None:
        self.resident_bytes -= size

    def install(self) -> None:
        """Replace every module attribute bound to a traced function."""
        modules = [importlib.import_module(name) for name in MODULES]
        wrappers = {}
        for module_name, attr, label in TARGETS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrappers[id(fn)] = self._wrap(fn, label)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def mark(self) -> int:
        return len(self.start)

    def spans(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self.start) if hi is None else hi
        return {"name": np.frombuffer(self.name, dtype=np.int32)[lo:hi],
                "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi],
                "start": np.frombuffer(self.start)[lo:hi],
                "end": np.frombuffer(self.end)[lo:hi],
                "work": np.frombuffer(self.work)[lo:hi]}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


class Totals:
    """Per-name sums over one stretch of spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        s = tracer.spans(lo, hi)
        self.names = tracer.names
        self.ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        inside = parent >= lo
        local_parent = np.where(inside, parent - lo, 0)
        children = np.bincount(local_parent[inside], weights=dur[inside],
                               minlength=len(dur))
        self.parent_name = np.where(inside, name[local_parent], -1)
        self.name, self.dur, self.start, self.end = name, dur, s["start"], s["end"]
        self.total = np.bincount(name, weights=dur, minlength=n)
        self.self_time = np.bincount(name, weights=dur - children, minlength=n)
        self.calls = np.bincount(name, minlength=n)
        self.work = np.bincount(name, weights=s["work"], minlength=n)

    def _id(self, name: str) -> int:
        return self.ids.get(name, -1)

    def get(self, field: str, name: str) -> float:
        i = self._id(name)
        return float(getattr(self, field)[i]) if i >= 0 else 0.0

    def where(self, name: str, parent: str | None = None) -> np.ndarray:
        mask = self.name == self._id(name)
        if parent is not None:
            mask &= self.parent_name == self._id(parent)
        return np.nonzero(mask)[0]

    def total_under(self, name: str, parent: str) -> float:
        return float(self.dur[self.where(name, parent)].sum())

    def steps(self) -> np.ndarray:
        """Training steps inside ``train``: from the start of a minibatch's
        ``loss_and_grads`` to the end of the ``sgd_momentum_step`` after it."""
        lg = self.where("model.loss_and_grads", "train.train")
        sgd = self.where("train.sgd_step", "train.train")
        return self.end[sgd] - self.start[lg]


OPS = ["conv_stem.fwd", "conv_stem.kernel_grad", "conv_hidden.fwd",
       "conv_hidden.input_grad", "conv_hidden.kernel_grad", "pool.fwd", "pool.grad",
       "relu.fwd", "relu.grad", "l2norm.fwd", "l2norm.grad", "softmax.fwd"]


def layer_metrics(tracer: Tracer, setup: list[tuple[int, int]],
                  rounds: list[tuple[int, int]], skipped_per_round: float) -> dict:
    """Per-layer metrics for one study: one set-up plus one round of the
    three phases, each the mean over the set-ups and rounds the run made.
    Step and cell times are percentiles over all of the run's rounds."""
    s_tot = [Totals(tracer, lo, hi) for lo, hi in setup]
    r_tot = [Totals(tracer, lo, hi) for lo, hi in rounds]

    def per_study(fn) -> float:
        return (sum(fn(t) for t in s_tot) / len(s_tot)
                + sum(fn(t) for t in r_tot) / len(r_tot))

    def total(name: str) -> float:
        return per_study(lambda t: t.get("total", name))

    def self_s(name: str) -> float:
        return per_study(lambda t: t.get("self_time", name))

    def summed(field: str, prefix: str) -> float:
        return per_study(lambda t: sum(float(getattr(t, field)[i])
                                       for i, n in enumerate(t.names) if n.startswith(prefix)))

    out: dict[str, tuple[float, str]] = {}
    for op in OPS:
        out[f"ops.{op}_s"] = (total(f"ops.{op}"), "s")
    out["ops.calls"] = (summed("calls", "ops."), "count")
    out["ops.conv_gflop"] = (summed("work", "ops.conv") / 1e9, "GFLOP")
    out["model.forward.self_s"] = (self_s("model.forward"), "s")
    out["model.backward.self_s"] = (self_s("model.backward"), "s")
    for name in ("loss_and_grads", "error_rate"):
        examples = per_study(lambda t, n=name: t.get("work", f"model.{n}"))
        out[f"model.{name}.ms_per_ex"] = (
            1e3 * total(f"model.{name}") / examples if examples else 0.0, "ms")
    steps = np.concatenate([t.steps() for t in r_tot]) * 1e3
    out["train.step_ms_p50"] = (float(np.percentile(steps, 50)) if steps.size else 0.0, "ms")
    out["train.step_ms_p90"] = (float(np.percentile(steps, 90)) if steps.size else 0.0, "ms")
    out["train.step_ms.samples"] = (float(steps.size), "count")
    out["train.sgd_step_s"] = (total("train.sgd_step"), "s")
    out["train.loop.self_s"] = (self_s("train.train"), "s")
    out["train.eval_s"] = (per_study(lambda t: t.total_under("model.error_rate", "train.train")), "s")
    out["data.load_s"] = (total("data.load"), "s")
    out["data.make_synthetic_s"] = (total("data.make_synthetic"), "s")
    out["data.minibatches_s"] = (total("data.minibatches"), "s")
    out["data.resident_mb"] = (tracer.peak_resident_bytes / 2 ** 20, "MB")
    out["counting.match_pairs_s"] = (total("counting.match_pairs"), "s")
    out["counting.param_count.calls"] = (per_study(lambda t: t.get("calls", "counting.param_count")), "count")
    out["gradcheck.check_s"] = (total("gradcheck.check"), "s")
    out["gradcheck.self_s"] = (self_s("gradcheck.check"), "s")
    out["gradcheck.forward.calls"] = (per_study(
        lambda t: float(t.where("model.forward", "gradcheck.check").size)), "count")
    out["gradcheck.skipped"] = (skipped_per_round, "count")
    cells = np.concatenate([t.dur[t.where("train.train", "experiments.run")] for t in r_tot])
    out["experiments.cell_s_p50"] = (float(np.median(cells)) if cells.size else 0.0, "s")
    out["experiments.self_s"] = (self_s("experiments.run"), "s")
    out["experiments.cells"] = (float(cells.size) / len(r_tot), "count")
    out["cli.self_s"] = (self_s("cli.main"), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
