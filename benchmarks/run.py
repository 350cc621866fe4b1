"""fusionmt benchmark: one closed-loop client driving the public API.

    python3 benchmarks/run.py --workload short-beam --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run checks the fixture digests, sets up the models several
times (``setup_s`` is the median), warms up, then for ``--seconds`` seconds
alternates between decoding one pool sentence in every mode and one block of
every training loop, checking every translation and every training log
against the committed references.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The environment, run details and, when traced, the spans
are written to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before anything imports NumPy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 25
CALIBRATION_SENTENCES = 8  # sentences timed both untraced and traced
DECODE_SHARE = 1 / 2
PROBE_ITERATIONS = 150  # per input shape
PROBE_REF_S = 1e-3  # probe time at the reference speed
PROBE_REUSE_S = 1e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "sent_per_s": "1/s",
    "none_ms_p50": "ms",
    "shallow_ms_p50": "ms",
    "deep_ms_p50": "ms",
    "sent_ms_tail": "ms",
    "nmt_updates_per_s": "1/s",
    "lm_updates_per_s": "1/s",
    "finetune_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_TRAIN_COMMON = [
    "tensor.tensors", "tensor.tape_nodes", "tensor.Tape.backward.self_ms",
    "tensor.log_softmax.self_ms", "training.clip_gradients.self_ms",
    "training.clip_rate", "training.Optimizer.step.self_ms",
    "checkpoint.snapshot_params.self_ms", "data.pad_batch.self_ms",
]
_NMT_CORE = [
    "models.encode.self_ms", "models.attend.calls", "models.attend.self_ms",
    "models.attend.positions", "layers.gru_step.calls",
    "layers.gru_step.self_ms", "layers.deep_output.calls",
    "layers.deep_output.self_ms",
]
_DEV_EVAL = ["evaluation.bleu.self_ms", "decoding.translate.total_ms"]

# per-layer metrics by phase; a phase's values are normalised per set-up
# (setup), per decoded sentence (decode) or per update (nmt, lm, finetune)
PER_LAYER = {
    "setup": [
        "checkpoint.load_checkpoint.self_ms", "checkpoint.build_nmt.self_ms",
        "checkpoint.build_lm.self_ms", "checkpoint.build_fused.self_ms",
        "tensor.tensors",
    ],
    "decode": [
        "decoding.translate.total_ms", "decoding.BeamScorer.expand.calls",
        "decoding.beam_step.self_ms", "decoding.expand_per_step",
        "decoding.kept_over_scored", "decoding.lm_renormalize.calls",
        "decoding.lm_renormalize.self_ms", "decoding.shallow_score.self_ms",
        *_NMT_CORE, "models.decode_step.self_ms", "models.lm_step.self_ms",
        "models.fused_step.self_ms", "layers.lstm_step.calls",
        "layers.lstm_step.self_ms", "tensor.tensors",
        "tensor.log_softmax.self_ms",
    ],
    "nmt": ["models.nmt_batch_loss.self_ms", *_NMT_CORE,
            "models.decode_step.self_ms", *_TRAIN_COMMON, *_DEV_EVAL],
    "lm": ["models.lm_batch_loss.self_ms", "models.lm_step.self_ms",
           "layers.lstm_step.calls", "layers.lstm_step.self_ms",
           *_TRAIN_COMMON],
    "finetune": ["models.fused_batch_loss.self_ms", *_NMT_CORE,
                 "models.fused_step.self_ms", "layers.lstm_step.calls",
                 "layers.lstm_step.self_ms", *_TRAIN_COMMON, *_DEV_EVAL],
}
TRACE_UNITS = {
    "trace.decode_overhead_pct": "%",
    "trace.train_overhead_pct": "%",
    "trace.absent": "count",
    "trace.spans": "count",
}

# derived per-layer values: (numerator layer, extra key or None for calls,
# denominator layer or None for the phase's normaliser)
_DERIVED = {
    "decoding.expand_per_step": (("decoding.BeamScorer.expand", None),
                                 ("decoding.beam_step", None)),
    "decoding.kept_over_scored": (("decoding.beam_step", "kept"),
                                  ("decoding.BeamScorer.expand", "scored")),
    "models.attend.positions": (("models.attend", "positions"),
                                ("models.attend", None)),
    "training.clip_rate": (("training.clip_gradients", "clipped"),
                           ("training.clip_gradients", None)),
    "tensor.tape_nodes": (("tensor.Tape.backward", "tape_nodes"), None),
}


def layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith(("expand_per_step", "kept_over_scored", "clip_rate")):
        return "ratio"
    return "count"


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    spec = {f"{phase}.{key}": layer_unit(key)
            for phase, keys in PER_LAYER.items() for key in keys}
    spec.update(TRACE_UNITS)
    return spec


class UsageError(Exception):
    """The benchmark cannot run here; reported without a result."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def verify_fixtures() -> None:
    manifest_path = W.fixture_path("MANIFEST.json")
    if not os.path.isfile(manifest_path):
        raise UsageError(f"fixture manifest {manifest_path} is missing")
    for name, digest in sorted(W.read_json(manifest_path).items()):
        path = W.fixture_path(name)
        if not os.path.isfile(path):
            raise UsageError(f"fixture {name} is missing")
        with open(path, "rb") as f:
            actual = hashlib.sha256(f.read()).hexdigest()
        if actual != digest:
            raise UsageError(
                f"fixture {name} does not match its digest in MANIFEST.json "
                f"(expected {digest[:12]}..., found {actual[:12]}...); "
                f"regenerate all fixtures with benchmarks/gen_fixtures.py")


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for _ in f)
    return total


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "processes": 1,
        "clients": 1,
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Fixed NumPy work that calls no fusionmt code, timed right before and
    right after every measured operation.

    On a shared machine the CPU speed can drift by 2x within seconds, and
    this single-threaded code slows with it.  Each operation's time is
    therefore scaled to a reference speed at which one probe takes
    ``PROBE_REF_S``:
    reference time = wall time * PROBE_REF_S / probe time.  Like the library,
    the probe runs many small operations on single rows and on batches and
    keeps every intermediate alive, as a tape does.  Wall times are kept in
    the run record as well."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.tanh = np.tanh
        self.inputs = (rng.standard_normal((1, 48)),
                       rng.standard_normal((W.BATCH_SIZE, 48)))
        self.w = rng.standard_normal((48, 48)) / 7.0
        self.last = (float("-inf"), 0.0)  # (end, duration) of the last probe

    def __call__(self) -> float:
        tanh, w = self.tanh, self.w
        t0 = time.perf_counter()
        kept = []
        for x in self.inputs:
            for _ in range(PROBE_ITERATIONS):
                x = tanh(x @ w) * 0.5 + 0.1
                kept.append(x)
        del kept
        t1 = time.perf_counter()
        self.last = (t1, t1 - t0)
        return t1 - t0

    def timed(self, fn):
        """Run ``fn``; returns (result, exception, wall s, reference s).

        A probe that ended less than ``PROBE_REUSE_S`` ago, after the
        previous operation, serves as this operation's probe before."""
        ended, before = self.last
        if time.perf_counter() - ended > PROBE_REUSE_S:
            before = self()
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - the caller counts it
            result, error = None, exc
        wall = time.perf_counter() - t0
        probe = 0.5 * (before + self())
        return result, error, wall, wall * PROBE_REF_S / probe


class Session:
    """One client: set-up, decode requests and training blocks, each
    checked against its reference.  Times are reference seconds (see
    ``SpeedProbe``) unless named ``wall``."""

    def __init__(self, band: W.Band, seed: int, tracer: Tracer | None):
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.pool = W.read_id_lines(W.fixture_path(f"pool_{band.name}.src"))
        self.ref = W.read_json(W.fixture_path(f"ref_{band.name}.json"))
        self.variant = W.train_variant(seed)
        self.train_ref = W.read_json(
            W.fixture_path(f"train_ref_{band.name}.json")).get(str(self.variant))
        self.data = W.load_train_data(band)
        self.beam = {mode: W.beam_config(band, mode) for mode in W.MODES}
        self.reset_times()
        self.attempted = 0
        self.failed = 0

    def reset_times(self) -> None:
        self.latency_s = {mode: [] for mode in W.MODES}
        self.block_s = {loop: [] for loop in W.LOOPS}
        self.block_wall_s = {loop: [] for loop in W.LOOPS}
        self.wall = {"decode": 0.0, "train": 0.0}
        self.sentences = 0
        self.blocks = 0

    def _mark(self, phase: str, request: str = "") -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.request = request
            self.tracer.step = 0

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", flush=True)

    def setup(self, reps: int) -> list[float]:
        from fusionmt import checkpoint

        def load_and_build():
            ckpts = [checkpoint.load_checkpoint(W.fixture_path(name))
                     for name in ("nmt.ckpt", "lm.ckpt", "fused.ckpt")]
            return ckpts, {"nmt": checkpoint.build_nmt(ckpts[0]),
                           "lm": checkpoint.build_lm(ckpts[1]),
                           "fused": checkpoint.build_fused(ckpts[2])}

        times = []
        for rep in range(reps):
            self._mark("setup", f"setup.{rep}")
            built, error, _, ref = self.probe.timed(load_and_build)
            if error is not None:
                raise error
            times.append(ref)
        self._mark("untimed")
        (self.nmt_ckpt, self.lm_ckpt, _), self.models = built
        return times

    def decode(self, idx: int, record: bool = True) -> float:
        """Decode pool sentence ``idx`` in every mode; returns reference s."""
        from fusionmt import decoding

        src = self.pool[idx]
        spent = 0.0
        for mode in W.MODES:
            if record:
                self._mark("decode", f"s{self.sentences}.{mode}")
            self.attempted += 1
            res, error, wall, ref = self.probe.timed(
                lambda: decoding.translate(src, self.beam[mode], **self.models))
            self._mark("untimed")
            spent += ref
            what = f"decode pool[{idx}] {mode}"
            if error is not None:
                self._fail(what, repr(error))
            elif not math.isfinite(res.score):
                self._fail(what, f"non-finite score {res.score}")
            elif res.tokens != self.ref[mode][idx]:
                self._fail(what, f"tokens {res.tokens} != reference "
                                 f"{self.ref[mode][idx]}")
            if record:
                self.latency_s[mode].append(ref)
                self.wall["decode"] += wall
        if record:
            self.sentences += 1
        return spent

    def train_cycle(self) -> float:
        """One block of every training loop; returns reference s."""
        spent = 0.0
        for loop in W.LOOPS:
            self._mark("untimed")
            call = W.prepare_block(loop, self.data, self.variant,
                                   self.nmt_ckpt, self.lm_ckpt)
            self._mark(loop, f"{loop}.{self.blocks}")
            self.attempted += 1
            out, error, wall, ref = self.probe.timed(call)
            self._mark("untimed")
            spent += ref
            self.block_s[loop].append(ref)
            self.block_wall_s[loop].append(wall)
            self.wall["train"] += wall
            if error is not None:
                self._fail(f"{loop} block {self.blocks}", repr(error))
            else:
                self._check_log(loop, W.log_columns(out[1]))
        self.blocks += 1
        return spent

    def _check_log(self, loop: str, got) -> None:
        what = f"{loop} block {self.blocks} (variant {self.variant})"
        if self.train_ref is None:
            self._fail(what, "unchecked: no reference log for this variant")
            return
        want = self.train_ref[loop]
        if len(got) != len(want):
            self._fail(what, f"{len(got)} log lines, reference has {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            bad = [not math.isfinite(x) or abs(x - y) > 1e-6 + 1e-12
                   for x, y in zip(g, w)]
            if any(bad):
                self._fail(what, f"update {i + 1}: (loss, grad norm) {g} "
                                 f"!= reference {w}")
                return

    def loop(self, seconds: float, schedule) -> None:
        """Alternate decode requests and training cycles, giving decoding
        ``DECODE_SHARE`` of the wall time, until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or not self.sentences
               or not self.blocks):
            decode_wall = self.wall["decode"]
            if decode_wall <= DECODE_SHARE * (decode_wall + self.wall["train"]):
                self.decode(next(schedule))
            else:
                self.train_cycle()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = 50.0
    for q in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def end_to_end(session: Session, setup_times) -> tuple[dict, dict]:
    all_s = [x for mode in W.MODES for x in session.latency_s[mode]]
    q = tail_percentile(len(all_s))
    values = {
        "setup_s": statistics.median(setup_times),
        "sent_per_s": len(all_s) / sum(all_s),
        **{f"{mode}_ms_p50": 1e3 * statistics.median(session.latency_s[mode])
           for mode in W.MODES},
        "sent_ms_tail": 1e3 * percentile(all_s, q),
        **{f"{loop}_updates_per_s":
           statistics.median(W.UPDATES_PER_BLOCK / t
                             for t in session.block_s[loop])
           for loop in W.LOOPS},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"tail_percentile": q, "decode_samples": len(all_s),
               "sentences": session.sentences, "blocks": session.blocks,
               "wall_decode_s": session.wall["decode"],
               "wall_train_s": session.wall["train"],
               "reference_decode_s": sum(all_s),
               "block_s": session.block_s,
               "block_wall_s": session.block_wall_s,
               "setup_reps": len(setup_times)}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in values.items()}, details)


def layer_metrics(tracer: Tracer, norms: dict, overhead: dict) -> dict:
    def count(phase, layer, extra):
        st = tracer.stats.get((phase, layer))
        if st is None:
            return 0.0
        return st.calls if extra is None else st.extra[extra]

    out = {}
    for phase, keys in PER_LAYER.items():
        n = max(norms[phase], 1)
        for key in keys:
            if key == "tensor.tensors":
                value = tracer.tensors[phase] / n
            elif key in _DERIVED:
                num, den = _DERIVED[key]
                top = count(phase, *num)
                bottom = n if den is None else count(phase, *den)
                value = top / bottom if bottom else 0.0
            else:
                layer, kind = key.rsplit(".", 1)
                st = tracer.stats.get((phase, layer))
                if st is None:
                    value = 0.0
                elif kind == "calls":
                    value = st.calls / n
                elif kind == "self_ms":
                    value = 1e3 * st.self_s / n
                else:
                    value = 1e3 * st.total_s / n
            out[f"{phase}.{key}"] = value
    out.update(overhead)
    out["trace.absent"] = len(tracer.absent)
    out["trace.spans"] = len(tracer.spans)
    units = per_layer_spec()
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import fusionmt.checkpoint  # noqa: F401  (load every module the tracer wraps)
    import fusionmt.decoding  # noqa: F401
    import fusionmt.training  # noqa: F401

    band = W.BANDS[W.WORKLOADS[workload]]
    tracer = Tracer() if trace else None
    session = Session(band, seed, tracer)
    if tracer is not None:
        tracer.install()
    setup_times = session.setup(SETUP_REPS)
    session.decode(0, record=False)  # warm-up, checked but not timed

    overhead = {}
    if tracer is not None:
        # the same first requests, untraced, to measure the tracing overhead
        tracer.uninstall()
        calib = W.decode_schedule(band, seed)
        plain_decode = sum(session.decode(next(calib), record=False)
                           for _ in range(CALIBRATION_SENTENCES))
        plain_train = session.train_cycle()
        session.reset_times()
        tracer.install()
        calib = W.decode_schedule(band, seed)
        traced_decode = sum(session.decode(next(calib))
                            for _ in range(CALIBRATION_SENTENCES))
        traced_train = session.train_cycle()
        overhead = {
            "trace.decode_overhead_pct": overhead_pct(traced_decode,
                                                      plain_decode),
            "trace.train_overhead_pct": overhead_pct(traced_train, plain_train),
        }
        schedule = calib
    else:
        schedule = W.decode_schedule(band, seed)

    session.loop(seconds, schedule)
    if tracer is not None:
        tracer.uninstall()

    updates = session.blocks * W.UPDATES_PER_BLOCK
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "train_variant": session.variant,
               "train_checked": session.train_ref is not None}
    if tracer is None:
        metrics, more = end_to_end(session, setup_times)
        details.update(more)
    else:
        norms = {"setup": SETUP_REPS, "decode": session.sentences * len(W.MODES),
                 **{loop: updates for loop in W.LOOPS}}
        metrics = layer_metrics(tracer, norms, overhead)
        details.update(sentences=session.sentences, blocks=session.blocks,
                       absent=tracer.absent,
                       observe_errors=dict(tracer.observe_errors))
    result = {
        "correct": session.failed == 0 and session.train_ref is not None,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{int(trace)}")
    record = {"environment": environment(), "details": details, **result}
    W.write_json(stem + ".json", record)
    if tracer is not None:
        tracer.write_spans(stem + ".spans.tsv")
        if tracer.absent:
            print(f"absent (not traced): {', '.join(tracer.absent)}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("details: " + json.dumps(details, sort_keys=True))
    return result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "fusionmt", "__init__.py")):
            raise UsageError(f"fusionmt sources not found under {SRC}; run "
                             f"from the root of a source checkout")
        verify_fixtures()
    except UsageError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
