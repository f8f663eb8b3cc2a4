"""Stream-level, byte-per-bit reference implementations: the test-only oracle.

Every simulator in ``repro`` runs on packed streams (64 clock cycles per
``uint64`` word), and the engines reduce TFF and MUX adder trees in the
count domain.  This module keeps the straightforward evaluation of the same
circuits -- one byte per bit, every adder-tree node's output *stream*
materialized -- so the differential and property suites can check the
library against an independent reference:

* unipolar engine -- :func:`dot`, :func:`dot_prepared`, :func:`dot_filters`
  and :class:`BitBank` (the stream-level twin of
  :class:`repro.sc.dotproduct.PreparedWeights`, reducing through
  :meth:`TreePlan.reduce_bits`);
* bipolar engine -- XNOR products with alternating-pad tree reduction
  (:func:`dot` dispatches on the engine type);
* stream faults -- :func:`bernoulli_words`, the dense Horner combination of
  every rate digit's hash words, and :func:`apply_fault_plan`, the fault
  composition ``((w | stuck1) & ~stuck0) ^ flips`` on unpacked masks;
* convolution -- :func:`conv_forward`, :class:`StochasticConv2D` on bits;
* netlists -- :func:`simulate` / :func:`simulate_batch`, the per-cycle cell
  loop behind the simulator's argument validation;
* Tables 1 and 2 -- :func:`multiplier_mse` / :func:`adder_mse` on bits.

Every function takes the same engine / layer / netlist objects as the
library and never asks the engine which path to take, so a test
parametrized over ``IMPLS = ("packed", "unpacked")`` runs identical inputs
through both and compares with :func:`evaluate`.  The engine twins also take
``packed=True``: the same stream-level reduction on packed words
(:meth:`TreePlan.reduce_packed`), the path the engines keep for OR trees.

Run as a script, ``PYTHONPATH=src python tests/oracle.py <repro CLI
arguments>`` runs the ``repro`` command line with every bit-level simulator
replaced by its oracle twin (see :func:`patched`), so CLI output can be
diffed against a normal run.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Callable

import numpy as np

from repro.bitstream import stream_length, unpack_bits
from repro.bitstream.packed import (
    mask_tail,
    packed_alternating,
    packed_popcount,
    packed_xnor,
    words_for,
)
from repro.eval.table2 import ADDER_CONFIGS, _data_generators, _select_bits
from repro.faults.masks import RATE_BITS, coordinate_words, splitmix64
from repro.netlist.simulator import (
    _batch_setup,
    _simulate_batch_cycle_loop,
    _simulate_cycle_loop,
    _single_trace_setup,
)
from repro.rng.sng import sng_pair
from repro.sc import BipolarDotProductEngine, StochasticConv2D, StochasticDotProductEngine
from repro.sc.bipolar import BipolarDotProductResult
from repro.sc.convolution import StochasticConvResult
from repro.sc.dotproduct import DotProductResult
from repro.sc.elements.adders import AdderTree, TffAdder, TreePlan, mux_add, tff_add
from repro.sc.elements.converters import count_ones
from repro.sc.elements.multipliers import xnor_multiply
from repro.utils.windows import extract_patches, patches_to_map

#: Parametrize values of the differential suites: the packed code under test
#: and this byte-per-bit oracle.
IMPLS = ("packed", "unpacked")


# --------------------------------------------------------------------------- #
# stream faults
# --------------------------------------------------------------------------- #
def bernoulli_words(rate, seed, salt, n_streams, taps, n_bits, offset=0):
    """Dense twin of :func:`repro.faults.masks.bernoulli_words`.

    The classic bit-slicing (Horner) combination: every word of every rate
    digit's slice is hashed, and the accumulator is combined LSB digit first
    as ``acc = word | acc`` where the digit is 1 and ``acc = word & acc``
    where it is 0.
    """
    width = words_for(n_bits)
    shape = (n_streams, taps, width)
    if rate == 0.0 or n_bits == 0 or n_streams == 0 or taps == 0:
        return np.zeros(shape, dtype=np.uint64)
    scaled = min(max(int(round(rate * (1 << RATE_BITS))), 0), 1 << RATE_BITS)
    if scaled == 0:
        return np.zeros(shape, dtype=np.uint64)
    if scaled == 1 << RATE_BITS:
        return mask_tail(np.full(shape, np.uint64(0xFFFFFFFFFFFFFFFF)), n_bits)
    digits = [(scaled >> (RATE_BITS - 1 - i)) & 1 for i in range(RATE_BITS)]
    while digits and digits[-1] == 0:
        digits.pop()
    base = coordinate_words(seed, salt, n_streams, taps, n_bits, offset)

    def slice_word(i: int) -> np.ndarray:
        return splitmix64(base + np.uint64((i * 0x3C6EF372FE94F82B) % (1 << 64)))

    # After digit b_i the accumulator's set-probability is 0.b_i ... b_M;
    # the last digit is 1, so the seed step ``acc = w | 0`` is ``acc = w``.
    acc = slice_word(len(digits) - 1)
    for i in range(len(digits) - 2, -1, -1):
        acc = slice_word(i) | acc if digits[i] else slice_word(i) & acc
    return mask_tail(acc, n_bits)


def apply_fault_plan(plan, bits: np.ndarray, offset: int = 0) -> np.ndarray:
    """Byte-per-bit twin of :meth:`repro.faults.FaultPlan.apply`.

    Unpacks the *same* counter-hashed masks and applies the composition
    ``((w | stuck1) & ~stuck0) ^ flips`` on ``(..., taps, N)`` uint8 bits.
    """
    arr = np.asarray(bits)
    n_bits = arr.shape[-1] if arr.ndim else 0
    if not plan.spec.corrupts_streams or arr.size == 0 or n_bits == 0:
        return arr
    taps = arr.shape[-2]
    lead = arr.shape[:-2]
    n_streams = int(np.prod(lead)) if lead else 1
    stuck0, stuck1, flips = plan.masks(n_streams, taps, n_bits, offset)
    flat = arr.reshape((n_streams, taps, n_bits)).astype(np.uint8)
    s0 = unpack_bits(stuck0, n_bits)
    s1 = unpack_bits(stuck1, n_bits)
    fl = unpack_bits(flips, n_bits)
    out = ((flat | s1) & (1 - s0)) ^ fl
    return out.reshape(arr.shape).astype(arr.dtype, copy=False)


def apply_faults(engine, bits: np.ndarray, offset: int = 0) -> np.ndarray:
    """Byte-per-bit twin of ``engine.apply_faults`` (no-op without stream faults)."""
    if not engine._stream_faults_active:
        return bits
    return apply_fault_plan(engine.faults.plan(), bits, offset)


def input_bits(engine, values: np.ndarray, offset: int = 0, packed: bool = False):
    """Faulted input streams: ``prepare_inputs`` + ``apply_faults``.

    Byte-per-bit by default; ``packed=True`` returns the engine's own packed
    words.
    """
    if packed:
        return engine.apply_faults(engine.prepare_inputs(values), offset)
    return apply_faults(engine, engine.input_streams(values), offset)


def root_counts(plan: TreePlan, products: np.ndarray, n_bits: int, packed: bool):
    """Ones-counts of the root streams of ``plan`` over ``(..., k, N|W)`` leaves."""
    if packed:
        return packed_popcount(plan.reduce_packed(products, n_bits))
    return count_ones(plan.reduce_bits(products))


# --------------------------------------------------------------------------- #
# unipolar engine
# --------------------------------------------------------------------------- #
def stochastic_dot_product(
    x_bits: np.ndarray,
    w_bits: np.ndarray,
    adder_factory: Callable[[], object] = TffAdder,
) -> np.ndarray:
    """Bit-level unipolar dot product of input streams with weight streams.

    ``x_bits`` has shape ``(..., k, N)`` and ``w_bits`` broadcasts to it;
    returns the ones-count of the tree output, shape ``(...,)``.  The
    byte-per-bit twin of :func:`repro.sc.stochastic_dot_product_packed`.
    """
    products = (np.asarray(x_bits) & np.asarray(w_bits)).astype(np.uint8)
    return count_ones(AdderTree(adder_factory).reduce(products))


def dot_prepared(
    engine: StochasticDotProductEngine,
    x_bits: np.ndarray,
    weights: np.ndarray,
    packed: bool = False,
) -> DotProductResult:
    """Stream-level twin of ``engine.dot_prepared`` on ``(..., k, N)`` input bits.

    Builds a positive and a negative tree plan in turn (the per-filter
    stream path the filter bank replaced); ``packed=True`` takes packed
    input words and reduces them with :meth:`TreePlan.reduce_packed`.
    """
    x = np.asarray(x_bits) if packed else np.asarray(x_bits).astype(np.uint8)
    w_pos, w_neg = (engine.weight_words if packed else engine.weight_streams)(weights)
    taps = x.shape[-2]
    tree = AdderTree(engine._adder_factory())
    plan_pos = tree.plan(taps)
    plan_neg = tree.plan(taps)
    return DotProductResult(
        positive_count=root_counts(plan_pos, x & w_pos, engine.length, packed),
        negative_count=root_counts(plan_neg, x & w_neg, engine.length, packed),
        length=engine.length,
        tree_scale=plan_pos.tree_scale,
    )


class BitBank:
    """Stream-level twin of :class:`repro.sc.dotproduct.PreparedWeights`.

    Generates its own weight streams (``engine.weight_streams``, or
    ``engine.weight_words`` with ``packed=True``) and its own
    lane-per-``(filter, sign)`` tree plan, instantiated filter-major exactly
    like the library's bank, so stateful MUX select seeds line up when the
    two banks are built on twin engines.
    """

    def __init__(
        self,
        engine: StochasticDotProductEngine,
        weights: np.ndarray,
        packed: bool = False,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        self.engine = engine
        self.packed = packed
        self.filters, self.taps = weights.shape
        self.n_bits = engine.length
        make = engine.weight_words if packed else engine.weight_streams
        w_pos, w_neg = make(weights)
        self.weight_streams = np.stack([w_pos, w_neg], axis=1)
        self.plan = AdderTree(engine._adder_factory()).plan(
            self.taps, lanes=2 * self.filters
        )

    @property
    def tree_scale(self) -> int:
        return self.plan.tree_scale

    def counts(self, x_bits: np.ndarray):
        """Positive and negative counts ``(..., filters)`` for ``(..., taps, N)`` bits."""
        x = np.asarray(x_bits) if self.packed else np.asarray(x_bits).astype(np.uint8)
        flat_w = self.weight_streams.reshape((2 * self.filters, self.taps, -1))
        products = x[..., np.newaxis, :, :] & flat_w
        flat_counts = root_counts(self.plan, products, self.n_bits, self.packed)
        stacked = flat_counts.reshape(flat_counts.shape[:-1] + (self.filters, 2))
        return stacked[..., 0], stacked[..., 1]


def dot_filters(
    engine: StochasticDotProductEngine,
    x: np.ndarray,
    weights: np.ndarray,
    packed: bool = False,
) -> DotProductResult:
    """Stream-level twin of ``engine.dot_filters``: counts shaped ``(..., filters)``."""
    bank = BitBank(engine, weights, packed)
    pos, neg = bank.counts(input_bits(engine, np.asarray(x, dtype=np.float64), packed=packed))
    return DotProductResult(
        positive_count=pos,
        negative_count=neg,
        length=engine.length,
        tree_scale=bank.tree_scale,
    )


# --------------------------------------------------------------------------- #
# bipolar engine
# --------------------------------------------------------------------------- #
def bipolar_dot_prepared(
    engine: BipolarDotProductEngine,
    x_bits: np.ndarray,
    weights: np.ndarray,
    packed: bool = False,
) -> BipolarDotProductResult:
    """Stream-level twin of ``BipolarDotProductEngine.dot_prepared``.

    Pads the XNOR products to a power of two with alternating 0101...
    (bipolar-zero) streams and reduces the padded streams.
    """
    engine._mux_seed_counter = 0
    weights = np.asarray(weights, dtype=np.float64)
    if packed:
        products = packed_xnor(x_bits, engine.weight_words(weights), engine.length)
        zero_value = packed_alternating(engine.length)
    else:
        products = np.asarray(xnor_multiply(x_bits, engine.weight_streams(weights)))
        zero_value = (np.arange(engine.length) % 2 == 0).astype(np.uint8)
    taps = products.shape[-2]
    depth = AdderTree().depth(taps)
    padded_taps = 1 << depth
    if padded_taps != taps:
        pad = np.broadcast_to(
            zero_value, products.shape[:-2] + (padded_taps - taps, zero_value.shape[-1])
        )
        products = np.concatenate([products, pad], axis=-2)
    plan = AdderTree(engine._adder_factory()).plan(padded_taps)
    return BipolarDotProductResult(
        count=root_counts(plan, products, engine.length, packed),
        length=engine.length,
        tree_scale=1 << depth,
    )


def dot(engine, x: np.ndarray, weights: np.ndarray, packed: bool = False):
    """Stream-level twin of ``engine.dot`` for either engine type."""
    x_bits = input_bits(engine, np.asarray(x, dtype=np.float64), packed=packed)
    if isinstance(engine, BipolarDotProductEngine):
        return bipolar_dot_prepared(engine, x_bits, weights, packed)
    return dot_prepared(engine, x_bits, weights, packed)


# --------------------------------------------------------------------------- #
# convolution
# --------------------------------------------------------------------------- #
def conv_forward(
    layer: StochasticConv2D, images: np.ndarray, image_offset: int = 0
) -> StochasticConvResult:
    """Byte-per-bit twin of :meth:`StochasticConv2D.forward` (same tiling)."""
    images = np.asarray(images, dtype=np.float64)
    kh, kw = layer.kernel_size
    out_h, out_w = layer.output_shape(images.shape[1:])
    patches = extract_patches(images, (kh, kw), layer.stride, layer.padding)
    batch, n_patches, taps = patches.shape
    engine = layer.engine
    bank = BitBank(engine, layer.kernels.reshape(layer.filters, taps))
    flat = patches.reshape(batch * n_patches, taps)
    total = flat.shape[0]
    first_patch = image_offset * n_patches
    tile = layer.tile_patches if layer.tile_patches is not None else max(total, 1)
    pos = np.empty((total, layer.filters), dtype=np.int64)
    neg = np.empty_like(pos)
    for start in range(0, total, tile):
        stop = min(start + tile, total)
        x = input_bits(engine, flat[start:stop], offset=first_patch + start)
        pos[start:stop], neg[start:stop] = bank.counts(x)
    pos = pos.reshape(batch, n_patches, layer.filters)
    neg = neg.reshape(batch, n_patches, layer.filters)

    length = engine.length
    value = (pos - neg).astype(np.float64) / length * bank.tree_scale
    sign = np.sign(pos - neg).astype(np.int8)
    if layer.soft_threshold > 0.0:
        below = np.abs(pos - neg) < layer.soft_threshold * length
        sign = np.where(below, 0, sign).astype(np.int8)
        value = np.where(below, 0.0, value)
    return StochasticConvResult(
        sign=patches_to_map(sign, (out_h, out_w)),
        value=patches_to_map(value, (out_h, out_w)),
        positive_count=patches_to_map(pos, (out_h, out_w)),
        negative_count=patches_to_map(neg, (out_h, out_w)),
    )


# --------------------------------------------------------------------------- #
# netlist simulation
# --------------------------------------------------------------------------- #
def simulate(netlist, stimulus, cycles=None, record=None, strict=False, faults=None):
    """:func:`repro.netlist.simulate` through the per-cycle cell loop."""
    waves, cycles, record, nets, forced = _single_trace_setup(
        netlist, stimulus, cycles, record, strict, faults
    )
    return _simulate_cycle_loop(netlist, waves, cycles, record, nets, forced)


def simulate_batch(
    netlist, stimulus, cycles=None, record=None, batch=None, strict=False, faults=None
):
    """:func:`repro.netlist.simulate_batch` as one cycle-loop run per trace."""
    waves, cycles, record, nets, batch, forced = _batch_setup(
        netlist, stimulus, cycles, record, batch, strict, faults
    )
    return _simulate_batch_cycle_loop(netlist, waves, cycles, record, nets, batch, forced)


# --------------------------------------------------------------------------- #
# Tables 1 and 2
# --------------------------------------------------------------------------- #
def multiplier_mse(scheme: str, precision: int, seed: int = 1) -> float:
    """Byte-per-bit twin of :func:`repro.eval.table1.multiplier_mse`."""
    n = stream_length(precision)
    values = np.arange(n + 1, dtype=np.float64) / n
    sng_x, sng_y = sng_pair(scheme, precision, seed=seed)
    x_bits = sng_x.generate_bits(values, n)  # (n+1, n)
    y_bits = sng_y.generate_bits(values, n)
    products = x_bits[:, np.newaxis, :] & y_bits[np.newaxis, :, :]
    estimates = products.sum(axis=-1, dtype=np.int64) / n
    exact = np.outer(values, values)
    return float(np.mean((estimates - exact) ** 2))


def adder_mse(config: str, precision: int, seed: int = 1) -> float:
    """Stream-level twin of :func:`repro.eval.table2.adder_mse`.

    Adds every representable input pair as streams: the full ``(N+1)**2``
    grid of byte-per-bit sum streams.
    """
    if config not in ADDER_CONFIGS:
        raise ValueError(f"unknown adder config {config!r}")
    n = stream_length(precision)
    values = np.arange(n + 1, dtype=np.float64) / n
    sng_x, sng_y = _data_generators(config, precision, seed)
    x_bits = sng_x.generate_bits(values, n)
    y_bits = sng_y.generate_bits(values, n)
    x_all = np.broadcast_to(x_bits[:, np.newaxis, :], (n + 1, n + 1, n))
    y_all = np.broadcast_to(y_bits[np.newaxis, :, :], (n + 1, n + 1, n))
    if config == "new_tff":
        sums = tff_add(np.ascontiguousarray(x_all), np.ascontiguousarray(y_all))
    else:
        sums = mux_add(x_all, y_all, _select_bits(config, precision, n, seed))
    estimates = np.asarray(sums).sum(axis=-1, dtype=np.int64) / n
    exact = 0.5 * (values[:, np.newaxis] + values[np.newaxis, :])
    return float(np.mean((estimates - exact) ** 2))


# --------------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------------- #
_TWINS = {
    "dot": dot,
    "dot_filters": dot_filters,
    "dot_prepared": lambda engine, x_bits, weights: (
        bipolar_dot_prepared(engine, x_bits, weights)
        if isinstance(engine, BipolarDotProductEngine)
        else dot_prepared(engine, x_bits, weights)
    ),
    "prepare_inputs": lambda engine, values: engine.input_streams(values),
    "prepare_weights": BitBank,
    "forward": conv_forward,
}


def evaluate(impl: str, obj, method: str, *args):
    """``obj.<method>(*args)`` for ``impl="packed"``, its oracle twin for ``"unpacked"``."""
    if impl == "packed":
        return getattr(obj, method)(*args)
    if impl != "unpacked":
        raise ValueError(f"unknown implementation {impl!r}; expected one of {IMPLS}")
    return _TWINS[method](obj, *args)


@contextlib.contextmanager
def patched():
    """Route the library's bit-level simulators through this oracle.

    Replaces the engines' ``dot`` / ``dot_filters``, the convolution layer's
    ``forward``, the netlist simulator entry points (where the CLI and the
    emulator look them up) and the Table 1/2 sweep kernels; everything is
    restored on exit.
    """
    import repro.eval.table1 as table1
    import repro.eval.table2 as table2
    import repro.hybrid.emulation as emulation
    import repro.netlist as netlist

    targets = [
        (StochasticDotProductEngine, "dot", dot),
        (StochasticDotProductEngine, "dot_filters", dot_filters),
        (BipolarDotProductEngine, "dot", dot),
        (StochasticConv2D, "forward", conv_forward),
        (netlist, "simulate", simulate),
        (netlist, "simulate_batch", simulate_batch),
        (emulation, "simulate_batch", simulate_batch),
        (table1, "multiplier_mse", multiplier_mse),
        (table2, "adder_mse", adder_mse),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, twin in targets:
            setattr(owner, name, twin)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def main(argv=None) -> int:
    """Run the ``repro`` CLI with every bit-level simulator on the oracle."""
    from repro.cli import main as cli_main

    with patched():
        return cli_main(argv)


if __name__ == "__main__":  # pragma: no cover - script entry point
    raise SystemExit(main(sys.argv[1:]))
