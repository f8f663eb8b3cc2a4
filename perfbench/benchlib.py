"""Workloads, output checks, tracing and statistics of the perfbench benchmark.

``run.py`` is the command-line entry point; everything it runs lives here so
the tests next to this file can exercise the same code.  The benchmark only
calls public functions of the ``repro`` package and times them from outside:
the per-stage breakdown comes from a separate traced run that rebuilds each
op from the public stage calls, never from instrumentation inside ``src/``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import SyntheticDigits
from repro.faults import FaultSpec
from repro.hw import DEFAULT_TECH
from repro.hybrid import HybridStochasticBinaryNetwork
from repro.netlist import build_sc_dot_product, estimate_power, simulate_batch
from repro.nn import Adam, build_lenet5_small, quantize_and_freeze, retrain
from repro.nn.quantization import prepare_first_layer_weights
from repro.sc import new_sc_engine, old_sc_engine
from repro.utils.windows import extract_patches, patches_to_map

HERE = Path(__file__).resolve().parent

#: Seed whose op outputs are pinned in ``digests.json``.
DEFAULT_SEED = 0

# Set-up budget: one epoch of baseline training and one of SC-aware
# retraining on this many synthetic digits.  Small enough that three set-ups
# and the measurement fit in about 25 seconds per run.
TRAIN_IMAGES = 400
TRAIN_EPOCHS = 1
BATCH_SIZE = 64
LEARNING_RATE = 1e-3
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Test images each run cycles through (a multiple of every op size).
POOL_IMAGES = 240
#: Soft threshold of the stochastic sign activation (the Table 3 default).
SOFT_THRESHOLD = 0.02

#: Netlist ops cycle through Table 3's adders and precisions in this order.
NETLIST_CONFIGS: Tuple[Tuple[str, int], ...] = tuple(
    (adder, precision) for adder in ("tff", "mux") for precision in (8, 6, 4, 2)
)

#: Tail percentiles tried from the highest down; the first one with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported as ``op_ms_tail``.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

STAGES = (
    "hybrid.acquire",
    "windows.patches",
    "sc.weight_bank",
    "sc.inputs",
    "faults.apply",
    "sc.counts",
    "sc.sign",
    "nn.maxpool2d1",
    "nn.conv2d2",
    "nn.maxpool2d3",
    "nn.flatten4",
    "nn.dense5",
    "nn.dropout6",
    "nn.dense7",
    "netlist.build",
    "netlist.stimulus",
    "netlist.simulate",
    "netlist.power",
)
COUNTERS = (
    "sc.counts.patches",
    "sc.counts.lanes",
    "sc.counts.tiles",
    "sc.inputs.stream_words",
    "sc.counts.bytes_computed",
    "netlist.cells",
    "netlist.toggles",
)
SETUP_STAGES = ("setup.dataset", "setup.fit", "setup.retrain")


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """One named input set; ``kind`` is ``"hybrid"`` or ``"netlist"``."""

    name: str
    why: str
    kind: str
    images_per_op: int
    design: str = ""
    precision: int = 0
    faulted: bool = False
    #: Per-op floor on the share of first-layer signs that agree with the
    #: binary quantized layer (checked in the traced run, any seed).
    agreement_floor: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "this_work_8bit",
            "the paper's headline design (TFF trees, ramp inputs, low-discrepancy "
            "weights) at N=256; tree counts dominate op time",
            "hybrid",
            images_per_op=8,
            design="this_work",
            precision=8,
            agreement_floor=0.95,
        ),
        Workload(
            "old_sc_4bit",
            "Old SC (MUX trees, LFSR SNGs) at N=16: masked-count path, input SNG "
            "and binary layers carry more of the op",
            "hybrid",
            images_per_op=16,
            design="old_sc",
            precision=4,
            agreement_floor=0.55,
        ),
        Workload(
            "faulted_8bit",
            "this work at N=256 under stream faults at 1e-3: forces the "
            "stream-domain tree reduction plus fault masks",
            "hybrid",
            images_per_op=2,
            design="this_work",
            precision=8,
            faulted=True,
            agreement_floor=0.93,
        ),
        Workload(
            "netlist_activity",
            "gate-level batched simulation and power of one SC engine per digit "
            "window, cycling adders tff/mux and precisions 8/6/4/2",
            "netlist",
            images_per_op=5,
        ),
    )
}


def fault_spec(seed: int) -> FaultSpec:
    """The ``faulted_8bit`` environment: every stream channel at 1e-3, no sensor noise."""
    return FaultSpec(
        flip_rate=1e-3,
        stuck_zero_rate=1e-3,
        stuck_one_rate=1e-3,
        burst_rate=1e-3,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory span and counter recorder used by the traced run.

    Each span stores ``(op, name, start, end, peak_bytes)``; every stage span
    is a child of its op's root span, so a stage's self time is its duration.
    ``peak_bytes`` is the tracemalloc peak above the allocation level at span
    entry (zero unless tracemalloc is tracing).
    """

    def __init__(self) -> None:
        self.op = -1
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counters: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] - base if tracing else 0
            self.spans.append((self.op, name, start, end, peak))

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)


class _NullTracer:
    """Tracer stand-in for the untraced twin of a traced op (warm-ups)."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


NULL_TRACER = _NullTracer()


# --------------------------------------------------------------------------- #
# digests and checks
# --------------------------------------------------------------------------- #
def digest(*arrays: np.ndarray) -> str:
    """Short SHA-256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def toggles_digest(toggles: Dict[str, np.ndarray]) -> str:
    names = sorted(toggles)
    return digest(np.array(names), *(np.asarray(toggles[n], np.int64) for n in names))


def load_digests() -> Dict[str, Dict[str, List[str]]]:
    """Pinned per-op digests of the default seed, keyed by workload then kind."""
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)["workloads"]


def check_digest(
    pinned: Dict[str, List[str]], kind: str, index: int, value: str
) -> Optional[str]:
    """A problem string when op ``index``'s pinned ``kind`` digest differs."""
    expected = pinned.get(kind, [])
    if index < len(expected) and expected[index] != value:
        return f"{kind} digest of op {index} is {value}, pinned {expected[index]}"
    return None


def check_range(name: str, values: np.ndarray, low: int, high: int) -> Optional[str]:
    if values.size and (values.min() < low or values.max() > high):
        return f"{name} outside [{low}, {high}]: [{values.min()}, {values.max()}]"
    return None


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
@contextmanager
def _timed(stage_ms: Dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        stage_ms[name] = stage_ms.get(name, 0.0) + (time.perf_counter() - start) * 1e3


def _train_baseline(seed: int, stage_ms: Dict[str, float]):
    with _timed(stage_ms, "setup.dataset"):
        data = SyntheticDigits.generate(
            train_size=TRAIN_IMAGES, test_size=POOL_IMAGES, seed=seed
        )
    x_train = data.x_train[:, np.newaxis, :, :]
    with _timed(stage_ms, "setup.fit"):
        model = build_lenet5_small(seed=seed)
        model.fit(
            x_train,
            data.y_train,
            epochs=TRAIN_EPOCHS,
            batch_size=BATCH_SIZE,
            optimizer=Adam(LEARNING_RATE),
            rng=np.random.default_rng(seed),
        )
    return data, model


@dataclass
class HybridSession:
    """A trained, retrained and warmed-up hybrid network for one workload."""

    workload: Workload
    seed: int
    data: SyntheticDigits
    model: object
    net: HybridStochasticBinaryNetwork

    def images(self, i: int) -> np.ndarray:
        start = (i * self.workload.images_per_op) % POOL_IMAGES
        return self.data.x_test[start : start + self.workload.images_per_op]

    def labels(self, i: int) -> np.ndarray:
        start = (i * self.workload.images_per_op) % POOL_IMAGES
        return self.data.y_test[start : start + self.workload.images_per_op]

    def twin(self) -> "HybridSession":
        """Same trained model, its own network and engine, after the same warm-up."""
        model = copy.deepcopy(self.model)
        other = HybridSession(
            self.workload, self.seed, self.data, model, build_network(self.workload, self.seed, model)
        )
        hybrid_replay(other.net, other.images(0), NULL_TRACER)
        return other


def build_network(wl: Workload, seed: int, model) -> HybridStochasticBinaryNetwork:
    factory = new_sc_engine if wl.design == "this_work" else old_sc_engine
    return HybridStochasticBinaryNetwork(
        model,
        engine=factory(wl.precision, seed=seed + 1),
        soft_threshold=SOFT_THRESHOLD,
        seed=seed,
        faults=fault_spec(seed) if wl.faulted else None,
    )


def setup_hybrid(wl: Workload, seed: int, stage_ms: Dict[str, float]) -> HybridSession:
    data, baseline = _train_baseline(seed, stage_ms)
    with _timed(stage_ms, "setup.retrain"):
        model = quantize_and_freeze(
            baseline, precision=wl.precision, sc_resolution=True, soft_threshold=SOFT_THRESHOLD
        )
        retrain(
            model,
            data.x_train[:, np.newaxis, :, :],
            data.y_train,
            epochs=TRAIN_EPOCHS,
            batch_size=BATCH_SIZE,
            optimizer=Adam(LEARNING_RATE),
            rng=np.random.default_rng(seed + 100 + wl.precision),
        )
    session = HybridSession(wl, seed, data, model, build_network(wl, seed, model))
    hybrid_op(session, 0)  # warm-up: part of every network's call sequence
    return session


@dataclass
class NetlistSession:
    """Digit images, trained kernels per precision and one engine per config."""

    workload: Workload
    seed: int
    data: SyntheticDigits
    kernels: Dict[int, np.ndarray]  # precision -> (filters, taps)
    engines: Dict[Tuple[str, int], object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for adder, precision in NETLIST_CONFIGS:
            factory = new_sc_engine if adder == "tff" else old_sc_engine
            self.engines[adder, precision] = factory(precision, seed=self.seed + 1)

    def images(self, i: int) -> np.ndarray:
        start = (i * self.workload.images_per_op) % POOL_IMAGES
        return self.data.x_test[start : start + self.workload.images_per_op]

    def twin(self) -> "NetlistSession":
        other = NetlistSession(self.workload, self.seed, self.data, self.kernels)
        netlist_op(other, 0, NULL_TRACER)
        return other


def setup_netlist(wl: Workload, seed: int, stage_ms: Dict[str, float]) -> NetlistSession:
    data, baseline = _train_baseline(seed, stage_ms)
    first = baseline.layers[0].weights
    kernels = {
        precision: prepare_first_layer_weights(first.copy(), precision).reshape(first.shape[0], -1)
        for precision in sorted({p for _, p in NETLIST_CONFIGS})
    }
    session = NetlistSession(wl, seed, data, kernels)
    netlist_op(session, 0, NULL_TRACER)  # warm-up
    return session


def setup(wl: Workload, seed: int, stage_ms: Dict[str, float]):
    if wl.kind == "hybrid":
        return setup_hybrid(wl, seed, stage_ms)
    return setup_netlist(wl, seed, stage_ms)


# --------------------------------------------------------------------------- #
# ops
# --------------------------------------------------------------------------- #
def hybrid_op(session: HybridSession, i: int) -> np.ndarray:
    """One untraced op: the public bit-exact forward pass over an image chunk."""
    return session.net.forward(session.images(i), mode="bitexact")


@dataclass
class ReplayResult:
    logits: np.ndarray
    positive: np.ndarray  # (patches, filters) int64
    negative: np.ndarray
    first: np.ndarray  # first-layer sign maps fed to the binary layers


def hybrid_replay(net: HybridStochasticBinaryNetwork, images, tracer) -> ReplayResult:
    """Rebuild ``net.forward(images, mode="bitexact")`` from its public stage calls.

    The calls and their order follow ``HybridStochasticBinaryNetwork.forward``
    and ``StochasticConv2D.forward``, so a stateful engine (Old SC's MUX
    select seeds advance on every ``prepare_weights``) sees exactly the call
    sequence of the untraced op and the logits match bit for bit.
    """
    engine = net.engine
    first_conv = net.model.layers[0]
    kernels = net.kernels
    filters, kh, kw = kernels.shape
    taps = kh * kw
    with tracer.span("hybrid.acquire"):
        acquired = net.front_end.acquire(np.asarray(images, dtype=np.float64))
    with tracer.span("windows.patches"):
        patches = extract_patches(acquired, (kh, kw), first_conv.stride, first_conv.padding)
    batch, n_patches, _ = patches.shape
    out_h, out_w = first_conv.output_shape(acquired.shape[1], acquired.shape[2])
    with tracer.span("sc.weight_bank"):
        bank = engine.prepare_weights(kernels.reshape(filters, taps))
    flat = patches.reshape(batch * n_patches, taps)
    total = flat.shape[0]
    tile = net.tile_patches if net.tile_patches is not None else max(total, 1)
    pos = np.empty((total, filters), dtype=np.int64)
    neg = np.empty_like(pos)
    for start in range(0, total, tile):
        stop = min(start + tile, total)
        with tracer.span("sc.inputs"):
            x = engine.prepare_inputs(flat[start:stop])
        with tracer.span("faults.apply"):
            x = engine.apply_faults(x, offset=start)
        with tracer.span("sc.counts"):
            pos[start:stop], neg[start:stop] = bank.counts(x)
        tracer.count("sc.counts.tiles", 1)
        tracer.count("sc.inputs.stream_words", x.nbytes // 8)
        # The products tensor of the stream/TFF paths: (patches, lanes, taps, W).
        tracer.count("sc.counts.bytes_computed", x.nbytes * 2 * filters)
    tracer.count("sc.counts.patches", total)
    tracer.count("sc.counts.lanes", 2 * filters)
    with tracer.span("sc.sign"):
        p3 = pos.reshape(batch, n_patches, filters)
        n3 = neg.reshape(batch, n_patches, filters)
        length = engine.length
        value = (p3 - n3).astype(np.float64) / length * bank.tree_scale
        sign = np.sign(p3 - n3).astype(np.int8)
        if net.soft_threshold > 0.0:
            below = np.abs(p3 - n3) < net.soft_threshold * length
            sign = np.where(below, 0, sign).astype(np.int8)
            value = np.where(below, 0.0, value)
        first = patches_to_map(sign, (out_h, out_w)).astype(np.float64)
        # The untraced op also builds the value maps it then discards.
        patches_to_map(value, (out_h, out_w))
    out = first
    for index, layer in enumerate(net.model.layers[1:], start=1):
        with tracer.span(f"nn.{type(layer).__name__.lower()}{index}"):
            out = layer.forward(out, training=False)
    return ReplayResult(out, pos, neg, first)


def netlist_op(session: NetlistSession, i: int, tracer) -> dict:
    """Simulate one SC engine netlist over every window of an image chunk.

    Op ``i`` uses config ``NETLIST_CONFIGS[i % 8]`` and kernel ``(i // 8) % 32``;
    each window is one trace of ``N`` cycles, weights and MUX selects are
    shared by every trace.
    """
    adder, precision = NETLIST_CONFIGS[i % len(NETLIST_CONFIGS)]
    engine = session.engines[adder, precision]
    kernels = session.kernels[precision]
    kernel = kernels[(i // len(NETLIST_CONFIGS)) % kernels.shape[0]]
    taps = kernel.shape[0]
    side = int(math.isqrt(taps))
    with tracer.span("windows.patches"):
        windows = extract_patches(session.images(i), (side, side), 1, side // 2).reshape(-1, taps)
    with tracer.span("sc.inputs"):
        x_bits = engine.input_streams(windows)
    with tracer.span("sc.weight_bank"):
        wp_bits, wn_bits = engine.weight_streams(kernel)
    tracer.count("sc.inputs.stream_words", x_bits.nbytes // 8)
    with tracer.span("netlist.build"):
        netlist = build_sc_dot_product(taps, precision + 1, adder=adder)
    with tracer.span("netlist.stimulus"):
        stimulus = {}
        for t in range(taps):
            stimulus[f"x{t}"] = x_bits[:, t, :]
            stimulus[f"wp{t}"] = wp_bits[t]
            stimulus[f"wn{t}"] = wn_bits[t]
        rng = np.random.default_rng([session.seed, i])
        for net in netlist.primary_inputs:
            if net not in stimulus:
                stimulus[net] = rng.integers(0, 2, engine.length, dtype=np.uint8)
    with tracer.span("netlist.simulate"):
        result = simulate_batch(netlist, stimulus, strict=True)
    with tracer.span("netlist.power"):
        power = estimate_power(netlist, DEFAULT_TECH.sc_clock_mhz, simulation=result)
    tracer.count("netlist.cells", len(netlist.instances))
    tracer.count("netlist.toggles", result.total_toggles())
    return {
        "toggles": result.toggles,
        "cycles": result.cycles,
        "traces": result.batch,
        "power_mw": power.total_mw,
    }


# --------------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------------- #
@dataclass
class OpLog:
    """Outcome of every op attempted in one run."""

    attempted: int = 0
    failed: int = 0
    seconds: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def record(self, seconds: float, problem: Optional[str]) -> None:
        self.attempted += 1
        self.seconds.append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"op {self.attempted - 1}: {problem}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(fn: Callable[[], object]) -> Tuple[object, Optional[str]]:
    """Run ``fn``; an exception becomes a problem string instead of ending the run."""
    try:
        return fn(), None
    except Exception as exc:  # the loop must keep running and count the failure
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(
    op: Callable[[int], object],
    check: Callable[[int, object], Optional[str]],
    seconds: float,
    log: OpLog,
    quantum: int = 1,
    min_ops: int = 1,
) -> None:
    """Issue ops back to back until ``seconds`` of op time have accumulated.

    The loop runs at least ``min_ops`` ops and stops only on a multiple of
    ``quantum`` ops, so every run covers whole cycles of a workload's op mix.
    Checks run outside the timed region; a raised exception or a failed
    check marks the op failed.
    """
    busy = 0.0
    while busy < seconds or log.attempted % quantum or log.attempted < min_ops:
        i = log.attempted
        start = time.perf_counter()
        out, problem = attempt(lambda: op(i))
        elapsed = time.perf_counter() - start
        busy += elapsed
        if problem is None:
            checked, error = attempt(lambda: check(i, out))
            problem = error or checked
        log.record(elapsed, problem)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def tail_percentile(samples: List[float]) -> Tuple[float, float, int]:
    """``(percentile, value, beyond)``: the highest ladder percentile with at
    least ``TAIL_MIN_BEYOND`` samples beyond it (nearest-rank); with fewer than
    ``2 * TAIL_MIN_BEYOND`` samples none qualifies and the median is returned."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50.0, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """The checked-out commit read from ``.git`` files; ``"unknown"`` outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ.get(name) for name in PIN_VARS},
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
#: End-to-end metrics (tracing off): name -> unit.
END_TO_END_UNITS = {
    "images_per_s": "1/s",
    "trace_cycles_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics of the traced run: name -> unit."""
    units: Dict[str, str] = {}
    for stage in STAGES:
        units[f"{stage}.ms"] = "ms"
        units[f"{stage}.share"] = "ratio"
        units[f"{stage}.peak_mb"] = "MB"
    for counter in COUNTERS:
        units[counter] = "B" if counter.endswith("bytes_computed") else "count"
    for stage in SETUP_STAGES:
        units[f"{stage}.ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


@dataclass
class RunResult:
    """Everything one run measured, checked and reports."""

    log: OpLog
    metrics: Dict[str, float]
    info: Dict[str, object] = field(default_factory=dict)
    spans: List[Tuple[int, str, float, float, int]] = field(default_factory=list)


def _pinned(wl: Workload, seed: int) -> Dict[str, List[str]]:
    return load_digests().get(wl.name, {}) if seed == DEFAULT_SEED else {}


def _engine_cycles(net: HybridStochasticBinaryNetwork, images: np.ndarray) -> int:
    """Dot-product-engine cycles of a chunk: images x positions x filters x N."""
    out_h, out_w = net.model.layers[0].output_shape(images.shape[1], images.shape[2])
    return images.shape[0] * out_h * out_w * net.kernels.shape[0] * net.engine.length


class _Checks:
    """Per-op output checks shared by the untraced and traced runs."""

    def __init__(self, wl: Workload, seed: int, session) -> None:
        self.wl = wl
        self.session = session
        self.pinned = _pinned(wl, seed)
        self.digest_checked = 0
        self.images_ok = 0
        self.cycles_ok = 0
        self.misclassified = 0
        self.agreement_min: Optional[float] = None

    def untraced(self, i: int, out) -> Optional[str]:
        if self.wl.kind == "netlist":
            return self._netlist(i, out)
        return self._hybrid(i, out)

    def _hybrid(self, i: int, logits: np.ndarray) -> Optional[str]:
        images = self.session.images(i)
        if logits.shape != (images.shape[0], 10) or not np.all(np.isfinite(logits)):
            return f"bad logits: shape {logits.shape}"
        classes = np.argmax(logits, axis=1).astype(np.int64)
        problem = self._pinned("classes", i, digest(classes))
        if problem is None:
            self.images_ok += images.shape[0]
            self.cycles_ok += _engine_cycles(self.session.net, images)
            self.misclassified += int(np.sum(classes != self.session.labels(i)))
        return problem

    def _netlist(self, i: int, out: dict) -> Optional[str]:
        for net, toggles in out["toggles"].items():
            problem = check_range(f"toggles of {net}", toggles, 0, out["cycles"] - 1)
            if problem:
                return problem
        if not (np.isfinite(out["power_mw"]) and out["power_mw"] > 0):
            return f"power {out['power_mw']} mW is not positive"
        problem = self._pinned("toggles", i, toggles_digest(out["toggles"]))
        if problem is None:
            self.images_ok += self.wl.images_per_op
            self.cycles_ok += out["traces"] * out["cycles"]
        return problem

    def _pinned(self, kind: str, i: int, value: str) -> Optional[str]:
        if i < len(self.pinned.get(kind, [])):
            self.digest_checked += 1
        return check_digest(self.pinned, kind, i, value)

    def traced(self, i: int, out_a, out_b, twin) -> Optional[str]:
        """Checks of a traced op ``out_b`` against its untraced twin ``out_a``."""
        problem = self.untraced(i, out_a)
        if problem:
            return problem
        if self.wl.kind == "netlist":
            if out_b["toggles"].keys() != out_a["toggles"].keys() or not all(
                np.array_equal(out_b["toggles"][n], out_a["toggles"][n]) for n in out_a["toggles"]
            ):
                return "traced toggles differ from the untraced op"
            if out_b["power_mw"] != out_a["power_mw"]:
                return "traced power differs from the untraced op"
            return None
        if out_b.logits.dtype != out_a.dtype or not np.array_equal(out_b.logits, out_a):
            return "traced logits differ from the untraced op"
        n = twin.net.engine.length
        problem = check_range("positive counts", out_b.positive, 0, n) or check_range(
            "negative counts", out_b.negative, 0, n
        )
        if problem:
            return problem
        problem = check_digest(self.pinned, "counts", i, digest(out_b.positive, out_b.negative))
        if problem:
            return problem
        binary = twin.net.first_layer_binary(twin.images(i))
        agreement = float(np.mean(out_b.first == binary))
        if self.agreement_min is None or agreement < self.agreement_min:
            self.agreement_min = agreement
        if agreement < self.wl.agreement_floor:
            return f"sign agreement {agreement:.4f} below floor {self.wl.agreement_floor}"
        return None


def _quantum(wl: Workload) -> int:
    """Ops per whole cycle of the workload's op mix (netlist configs)."""
    return len(NETLIST_CONFIGS) if wl.kind == "netlist" else 1


def _setup_repeated(wl: Workload, seed: int, repeats: int):
    """Set up ``repeats`` times; keep the last session and every duration."""
    durations = []
    session = None
    for _ in range(repeats):
        session = None  # release the previous set-up before building the next
        start = time.perf_counter()
        session = setup(wl, seed, {})
        durations.append(time.perf_counter() - start)
    return session, durations


def run_untraced(wl: Workload, seed: int, seconds: float) -> RunResult:
    """The end-to-end run: tracing off, closed loop of one caller."""
    session, setup_durations = _setup_repeated(wl, seed, SETUP_REPEATS)
    checks = _Checks(wl, seed, session)
    if wl.kind == "hybrid":
        def op(i):
            return hybrid_op(session, i)
    else:
        def op(i):
            return netlist_op(session, i, NULL_TRACER)
    log = OpLog()
    closed_loop(op, checks.untraced, seconds, log, _quantum(wl))
    busy = sum(log.seconds)
    q, tail, beyond = tail_percentile(log.seconds)
    metrics = {
        "images_per_s": checks.images_ok / busy,
        "trace_cycles_per_s": checks.cycles_ok / busy,
        "op_ms_p50": statistics.median(log.seconds) * 1e3,
        "op_ms_tail": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_durations),
    }
    info = {
        "op_ms_tail_percentile": q,
        "op_ms_tail_beyond": beyond,
        "failed_frac": log.failed_frac,
        "setup_seconds": setup_durations,
        "digest_checked_ops": checks.digest_checked,
    }
    if wl.kind == "hybrid" and not wl.faulted:
        # Deterministic for a seed: the timed images and the network are fixed.
        info["error_rate"] = checks.misclassified / max(checks.images_ok, 1)
    return RunResult(log, metrics, info)


def run_traced(wl: Workload, seed: int, seconds: float) -> RunResult:
    """The per-layer run: each op runs untraced on one network and is rebuilt
    from stage calls, traced, on a twin network with its own engine.

    tracemalloc slows every allocation, so it is on only for the first whole
    cycle of ops, which give the ``.peak_mb`` figures; stage times, shares
    and the tracing overhead come from the later ops.
    """
    stage_ms: Dict[str, float] = {}
    session_a = setup(wl, seed, stage_ms)
    session_b = session_a.twin()
    checks = _Checks(wl, seed, session_a)
    tracer = Tracer()
    a_seconds: List[float] = []
    b_seconds: List[float] = []

    if wl.kind == "hybrid":
        def op_a(i):
            return hybrid_op(session_a, i)

        def op_b(i):
            return hybrid_replay(session_b.net, session_b.images(i), tracer)
    else:
        def op_a(i):
            return netlist_op(session_a, i, NULL_TRACER)

        def op_b(i):
            return netlist_op(session_b, i, tracer)

    quantum = _quantum(wl)

    def untraced(i):
        start = time.perf_counter()
        out = op_a(i)
        return out, time.perf_counter() - start

    def traced(i):
        memory = i < quantum
        tracer.op = i
        if memory:
            tracemalloc.start()
        try:
            begin = time.perf_counter()
            out = op_b(i)
            end = time.perf_counter()
        finally:
            if memory:
                tracemalloc.stop()
        tracer.spans.append((i, "op", begin, end, 0))
        return out, end - begin

    def pair(i):
        # Alternate which twin runs first so neither inherits the other's
        # warm caches or freed pages on every op.
        if i % 2:
            out_b, b = traced(i)
            out_a, a = untraced(i)
        else:
            out_a, a = untraced(i)
            out_b, b = traced(i)
        if i >= quantum:
            a_seconds.append(a)
            b_seconds.append(b)
        return out_a, out_b

    log = OpLog()
    closed_loop(
        pair,
        lambda i, out: checks.traced(i, out[0], out[1], session_b),
        seconds,
        log,
        quantum,
        min_ops=2 * quantum,
    )
    # ``or 1`` keeps the report printable when every op failed (correct: false).
    ops = len(b_seconds) or 1
    traced_total = sum(b_seconds) or 1.0
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        spans = [s for s in tracer.spans if s[1] == stage]
        busy = sum(end - start for op, _, start, end, _ in spans if op >= quantum)
        metrics[f"{stage}.ms"] = busy / ops * 1e3
        metrics[f"{stage}.share"] = busy / traced_total
        metrics[f"{stage}.peak_mb"] = max((s[4] for s in spans), default=0) / 2**20
    for counter in COUNTERS:
        metrics[counter] = tracer.counters.get(counter, 0) / log.attempted
    for stage in SETUP_STAGES:
        metrics[f"{stage}.ms"] = stage_ms.get(stage, 0.0)
    metrics["trace.overhead_pct"] = (traced_total / (sum(a_seconds) or 1.0) - 1.0) * 100.0
    info = {
        "failed_frac": log.failed_frac,
        "digest_checked_ops": checks.digest_checked,
        "untraced_op_seconds": a_seconds,
    }
    if checks.agreement_min is not None:
        info["sign_agreement_min"] = checks.agreement_min
    return RunResult(log, metrics, info, tracer.spans)
