"""Span tracing of mvcrop from outside the package.

``install`` replaces public entry points of each module with wrappers that
record one span per call: name, thread, start, end, depth, parent and the
time covered by direct child spans. Functions that a module imported by
name (``from .training import save_checkpoint``) are wrapped at the
consumer's binding, because that is the name the caller looks up. Each
thread keeps its own span stack, so ``jobs=2`` workers do not interleave.

``summarize`` turns the spans of one pass into the per-layer numbers.
"""
from __future__ import annotations

import functools
import os
import threading
from time import perf_counter

PROTOCOL = "experiments.protocol"
CONV = "kernels.conv"


class Span:
    __slots__ = ("name", "thread", "depth", "parent", "phase", "start",
                 "end", "child_time", "attrs")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: list[Span] = []
        self.step_seconds: list[float] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, phase=None, attrs=None, post=None):
        """Run ``fn`` inside a span; ``post(span, result)`` may add attrs."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span()
        span.name = name
        span.thread = threading.get_ident()
        span.depth = len(stack)
        span.parent = parent.name if parent else None
        span.phase = phase or (parent.phase if parent else None)
        span.child_time = 0.0
        span.attrs = attrs or {}
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                post(span, result, args)
            return result
        finally:
            span.end = perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.end - span.start
            self.spans.append(span)

    def current_phase(self):
        stack = self._stack()
        return stack[-1].phase if stack else None

    # -- training step boundaries: model forward in train mode .. Adam.step

    def step_started(self) -> None:
        if getattr(self._local, "step_start", None) is None:
            self._local.step_start = perf_counter()

    def step_finished(self) -> None:
        started = getattr(self._local, "step_start", None)
        if started is not None:
            self.step_seconds.append(perf_counter() - started)
            self._local.step_start = None

    # -- tree walks count only the outermost call of a recursion

    def walk_depth(self, delta: int) -> int:
        depth = getattr(self._local, "walk", 0) + delta
        self._local.walk = depth
        return depth


def _wrap(tracer, owner, attr, name, phase=None, attrs=None, post=None):
    original = getattr(owner, attr)  # raises if the entry point is gone

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs, phase,
                           attrs(args) if attrs else None, post)

    setattr(owner, attr, wrapper)
    return wrapper


def _conv_flops(kind):
    def attrs(args):
        if kind == "grad_kernel":
            x, gy, k = args[0], args[1], args[2]
            batch, steps, c_in = x.shape
            c_out = gy.shape[2]
        else:
            first, w = args[0], args[1]
            batch, steps = first.shape[0], first.shape[1]
            c_out, c_in, k = w.shape
        return {"flops": 2.0 * batch * steps * c_in * c_out * k}
    return attrs


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every mvcrop layer."""
    from mvcrop import (data, encoders, experiments, fusion, kernels, layers,
                        training)

    # kernels: only the dispatch names, whatever backend sits behind them
    for kind in ("forward", "grad_input", "grad_kernel"):
        _wrap(tracer, kernels, f"conv1d_{kind}", CONV,
              attrs=_conv_flops(kind))

    # encoders: forward in train mode is part of a training step
    encoder_call = encoders.Encoder.__call__

    def encoder_wrapper(self, *args, **kwargs):
        phase = "step" if self.mode == "train" else None
        return tracer.call("encoders.forward", encoder_call,
                           (self,) + args, kwargs, phase)

    encoders.Encoder.__call__ = encoder_wrapper

    # fusion: every strategy model's forward, and batched prediction
    def model_forward(original):
        def wrapper(self, *args, **kwargs):
            if self.mode == "train":
                tracer.step_started()
                phase = "step"
            else:
                phase = ("validation" if tracer.current_phase() == "fit"
                         else None)
            return tracer.call("fusion.forward", original, (self,) + args,
                               kwargs, phase)
        return wrapper

    pending = [fusion.MVLModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "forward" in cls.__dict__:
            cls.forward = model_forward(cls.__dict__["forward"])
    _wrap(tracer, fusion.MVLModel, "predict", "fusion.predict",
          phase="predict")

    # training: the fit, backward sweep, optimizer step
    def record_epochs(span, result, args):
        span.attrs["epochs"] = result.epochs_run

    fit = _wrap(tracer, training, "train", "training.train", phase="fit",
                post=record_epochs)
    experiments.train = fit
    _wrap(tracer, experiments, "train_ensemble", "training.train_ensemble",
          phase="fit")
    _wrap(tracer, training, "backward", "tensor.backward", phase="step",
          attrs=lambda args: {"records": len(args[1].records)})
    adam_step = training.Adam.step

    def adam_wrapper(self, *args, **kwargs):
        try:
            return tracer.call("training.adam_step", adam_step,
                               (self,) + args, kwargs, "step")
        finally:
            tracer.step_finished()

    training.Adam.step = adam_wrapper

    # experiments: everything the protocol calls by an imported name
    def record_bytes(span, result, args):
        span.attrs["bytes"] = os.path.getsize(args[1])

    _wrap(tracer, experiments, "save_checkpoint", "training.checkpoint_save",
          post=record_bytes)
    _wrap(tracer, experiments, "load_checkpoint", "training.checkpoint_load")
    _wrap(tracer, experiments, "evaluate", "metrics.evaluate")
    _wrap(tracer, experiments, "stratified_split", "data.split")
    _wrap(tracer, experiments, "build_model", "fusion.build_model")
    _wrap(tracer, experiments, "write_records_csv", "experiments.records")
    _wrap(tracer, data, "load_dataset", "data.load")

    # layers: the module-tree walkers
    def walker(original, eager):
        # ``modules`` is a generator: list it inside the span so the span
        # covers the walk rather than the creation of the generator.
        run = ((lambda *a, **k: iter(list(original(*a, **k))))
               if eager else original)

        def wrapper(self, *args, **kwargs):
            outermost = tracer.walk_depth(+1) == 1
            try:
                if outermost:
                    return tracer.call("layers.walk", run, (self,) + args,
                                       kwargs)
                return run(self, *args, **kwargs)
            finally:
                tracer.walk_depth(-1)
        return wrapper

    for attr, eager in (("named_parameters", False),
                        ("named_buffers", False), ("modules", True)):
        setattr(layers.Module, attr,
                walker(layers.Module.__dict__[attr], eager))


# ---------------------------------------------------------------------------
# per-pass summary
# ---------------------------------------------------------------------------


def _union_seconds(intervals) -> float:
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def summarize(tracer: Tracer, main_thread: int) -> dict:
    """Per-layer numbers of one pass, normalised per step, epoch or call."""
    spans = tracer.spans
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def seconds(items):
        return sum(s.seconds for s in items)

    def mean_ms(items):
        return 1000.0 * seconds(items) / len(items) if items else 0.0

    steps = len(named("training.adam_step"))
    per_step = 1.0 / steps if steps else 0.0
    encoder = named("encoders.forward")
    model = [s for s in named("fusion.forward") if s.parent != "fusion.forward"]
    conv_step = [s for s in named(CONV) if s.phase == "step"]
    predicts = named("fusion.predict")
    epochs = sum(s.attrs.get("epochs", 0) for s in named("training.train"))
    saves = named("training.checkpoint_save")
    splits = named("data.split")

    protocols = named(PROTOCOL)
    top_level = [s for s in spans if s.name != PROTOCOL and (
        s.parent == PROTOCOL or (s.depth == 0 and s.thread != main_thread))]
    self_s = 0.0
    report_ms = 0.0
    for proto in protocols:
        inside = [(max(s.start, proto.start), min(s.end, proto.end))
                  for s in top_level
                  if s.end > proto.start and s.start < proto.end]
        self_s += proto.seconds - _union_seconds(inside)
        records = [s for s in named("experiments.records")
                   if proto.start <= s.start <= proto.end]
        if records:
            report_ms += 1000.0 * (proto.end - records[-1].start)
    wall = seconds(protocols)

    return {
        "tensor.tape_records_per_step":
            sum(s.attrs["records"] for s in named("tensor.backward"))
            * per_step,
        "tensor.backward_ms_per_step":
            1000.0 * seconds(named("tensor.backward")) * per_step,
        "encoders.forward_ms_per_step":
            1000.0 * seconds([s for s in encoder if s.phase == "step"])
            * per_step,
        "encoders.infer_ms_per_batch":
            (1000.0 * seconds([s for s in encoder if s.phase == "predict"])
             / len(predicts)) if predicts else 0.0,
        "kernels.conv_ms_per_step": 1000.0 * seconds(conv_step) * per_step,
        "kernels.conv_calls_per_step": len(conv_step) * per_step,
        "kernels.conv_gflop_per_step":
            sum(s.attrs["flops"] for s in conv_step) / 1e9 * per_step,
        "training.adam_ms_per_step":
            1000.0 * seconds(named("training.adam_step")) * per_step,
        "training.steps": steps,
        "training.validation_ms_per_epoch":
            (1000.0 * seconds([s for s in model if s.phase == "validation"])
             / epochs) if epochs else 0.0,
        "fusion.self_ms_per_step":
            1000.0 * sum(s.seconds - s.child_time for s in model
                         if s.phase == "step") * per_step,
        "layers.walk_calls": len(named("layers.walk")),
        "layers.walk_ms": 1000.0 * seconds(named("layers.walk")),
        "training.checkpoint_save_ms": mean_ms(saves),
        "training.checkpoint_load_ms":
            mean_ms(named("training.checkpoint_load")),
        "training.checkpoint_bytes":
            (sum(s.attrs["bytes"] for s in saves) / len(saves)
             if saves else 0.0),
        "metrics.evaluate_ms": mean_ms(named("metrics.evaluate")),
        "experiments.report_ms": report_ms,
        "experiments.self_s": self_s,
        "experiments.concurrency":
            seconds(top_level) / wall if wall else 0.0,
        "data.load_ms": 1000.0 * seconds(named("data.load")),
        "data.split_ms": mean_ms(splits),
    }
