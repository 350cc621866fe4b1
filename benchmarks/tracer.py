"""Outside-in tracer for fusionmt.

It wraps public functions and methods of the installed ``fusionmt`` package
at every module attribute they are bound to (``decoding.decode_step`` as well
as ``models.decode_step``), so no tracing code lives in the library.  Each
call becomes a span with a name, start, end, parent span and request id; a
layer's self time is its span duration minus the spans it directly caused.
``Tensor.__init__`` is counted but records no spans.  A name that does not
exist (for example after a refactor removed it) is reported in ``absent`` and
does not stop the run; ``uninstall`` restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "fusionmt"

# "<module>.<function>" or "<module>.<Class>.<method>", relative to PACKAGE
TARGETS = (
    "decoding.translate",
    "decoding.beam_step",
    "decoding.BeamScorer.expand",
    "decoding.lm_renormalize",
    "decoding.shallow_score",
    "models.encode",
    "models.attend",
    "models.decode_step",
    "models.lm_step",
    "models.fused_step",
    "models.nmt_batch_loss",
    "models.lm_batch_loss",
    "models.fused_batch_loss",
    "layers.gru_step",
    "layers.lstm_step",
    "layers.deep_output",
    "tensor.log_softmax",
    "tensor.Tape.backward",
    "training.clip_gradients",
    "training.Optimizer.step",
    "checkpoint.snapshot_params",
    "checkpoint.load_checkpoint",
    "checkpoint.build_nmt",
    "checkpoint.build_lm",
    "checkpoint.build_fused",
    "data.pad_batch",
    "evaluation.bleu",
)

# a span of one of these starts a new training update within a request
STEP_MARKERS = frozenset({"models.nmt_batch_loss", "models.lm_batch_loss",
                          "models.fused_batch_loss"})


def _observe_attend(st, args, result):
    st.extra["positions"] += result[0].alpha.shape[-1]


def _observe_expand(st, args, result):
    st.extra["scored"] += result[1].shape[-1]


def _observe_beam_step(st, args, result):
    st.extra["kept"] += len(result)


def _observe_backward(st, args, result):
    st.extra["tape_nodes"] += len(args[0])


def _observe_clip(st, args, result):
    st.extra["clipped"] += result > args[1]


# counts read from a call's arguments or result
OBSERVERS = {
    "models.attend": _observe_attend,
    "decoding.BeamScorer.expand": _observe_expand,
    "decoding.beam_step": _observe_beam_step,
    "tensor.Tape.backward": _observe_backward,
    "training.clip_gradients": _observe_clip,
}


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = defaultdict(float)


class Tracer:
    """Collects spans and per-(phase, layer) statistics while installed.

    The caller sets ``phase`` (which statistics a call counts towards) and
    ``request`` (the id shared by the spans of one request); ``step`` counts
    training updates within the request."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.phase = "untimed"
        self.request = ""
        self.step = 0
        self.stats: dict = defaultdict(LayerStats)  # (phase, name) -> stats
        self.tensors: dict = defaultdict(int)  # phase -> Tensor constructions
        self.spans: list = []  # (id, parent, name, start, end, request, step)
        self.absent: list[str] = []
        self.observe_errors: dict = defaultdict(int)
        self._stack: list = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._patched: list = []  # (owner, attribute, original)
        self.t0 = time.perf_counter()

    def stat(self, phase: str, name: str) -> LayerStats:
        return self.stats[(phase, name)]

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        for target in self.targets:
            if not self._install_target(target):
                self.absent.append(target)
        self._install_tensor_counter()
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _install_target(self, target: str) -> bool:
        parts = target.split(".")
        module = sys.modules.get(f"{PACKAGE}.{parts[0]}")
        if module is None or len(parts) not in (2, 3):
            return False
        if len(parts) == 3:  # method: patch the class that defines it
            cls = getattr(module, parts[1], None)
            original = vars(cls).get(parts[2]) if isinstance(cls, type) else None
            if not callable(original):
                return False
            self._patch(cls, parts[2], self._wrap(target, original))
            return True
        original = getattr(module, parts[1], None)
        if not callable(original):
            return False
        wrapper = self._wrap(target, original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
        return True

    def _install_tensor_counter(self) -> None:
        tensor_mod = sys.modules.get(f"{PACKAGE}.tensor")
        cls = getattr(tensor_mod, "Tensor", None)
        if not isinstance(cls, type) or "__init__" not in vars(cls):
            self.absent.append("tensor.Tensor.__init__")
            return
        original = vars(cls)["__init__"]
        counts = self.tensors

        @functools.wraps(original)
        def counting_init(*args, **kwargs):
            counts[self.phase] += 1
            original(*args, **kwargs)

        self._patch(cls, "__init__", counting_init)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in STEP_MARKERS:
                self.step += 1
            parent = stack[-1][0] if stack else 0
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = self.stats[(self.phase, name)]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.spans.append((frame[0], parent, name, start, end,
                                   self.request, self.step))
            if observe is not None:
                try:
                    observe(st, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.observe_errors[name] += 1
            return result

        traced._bench_traced = True
        return traced

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Tab-separated spans, times in microseconds since the tracer
        was created."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_us\tend_us\trequest\tstep\n")
            for sid, parent, name, start, end, req, step in self.spans:
                f.write(f"{sid}\t{parent}\t{name}\t"
                        f"{(start - self.t0) * 1e6:.1f}\t"
                        f"{(end - self.t0) * 1e6:.1f}\t{req}\t{step}\n")
