"""Differential + property tests for the engines' count-domain evaluation.

The engines reduce all-TFF and all-MUX adder trees in the count domain,
with or without stream faults.  The result must be *bit-identical* to
reducing the tree's streams, for unipolar split-weight engines (any
generator, tap count, tiling) and for the bipolar XNOR engine (including
its odd-tap alternating-stream padding).  The reference is the stream-level oracle
(``tests/oracle.py``), on packed words (``TreePlan.reduce_packed``) or one
byte per bit (``TreePlan.reduce_bits``).  These tests pin that contract, the
``TreePlan`` mask machinery behind the MUX shortcut, and the edge cases that
rode along (empty batches, dtype-preserving count maps, the sign-tie
contract, bipolar input-range validation).
"""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultSpec
from repro.sc import (
    BipolarDotProductEngine,
    BipolarDotProductResult,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    MuxAdder,
    new_sc_engine,
    old_sc_engine,
)
from repro.sc.elements.adders import TreePlan
from repro.bitstream.packed import pack_bits
from repro.utils.windows import patches_to_map


def stream_reference(reference, engine, method, *args):
    """The oracle's stream reduction on packed words or on bytes."""
    return getattr(oracle, method)(engine, *args, packed=reference == "packed")


# --------------------------------------------------------------------- #
# unipolar split-weight engine: counts == streams, bit for bit
# --------------------------------------------------------------------- #

UNIPOLAR_GENERATORS = [
    ("ramp", "lowdisc"),
    ("lfsr", "lfsr"),
    ("lowdisc", "lowdisc"),
]


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", oracle.IMPLS)
@pytest.mark.parametrize("input_gen,weight_gen", UNIPOLAR_GENERATORS)
@pytest.mark.parametrize("taps", [1, 2, 3, 7, 25])
def test_unipolar_counts_bit_identical(adder, reference, input_gen, weight_gen, taps):
    rng = np.random.default_rng(taps)
    x = rng.random((5, taps))
    w = rng.uniform(-1.0, 1.0, taps)
    kwargs = dict(
        precision=6,
        adder=adder,
        input_generator=input_gen,
        weight_generator=weight_gen,
        seed=11,
    )
    counted = StochasticDotProductEngine(**kwargs).dot(x, w)
    streamed = stream_reference(
        reference, StochasticDotProductEngine(**kwargs), "dot", x, w
    )
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", oracle.IMPLS)
def test_unipolar_filter_parallel_counts_bit_identical(adder, reference):
    rng = np.random.default_rng(3)
    x = rng.random((9, 25))
    kernels = rng.uniform(-1.0, 1.0, (6, 25))
    kwargs = dict(precision=6, adder=adder, seed=5)
    counted = StochasticDotProductEngine(**kwargs).dot_filters(x, kernels)
    streamed = stream_reference(
        reference, StochasticDotProductEngine(**kwargs), "dot_filters", x, kernels
    )
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


@pytest.mark.parametrize("factory", [new_sc_engine, old_sc_engine])
def test_paper_engines_match_stream_oracle(factory):
    rng = np.random.default_rng(2)
    x = rng.random((4, 9))
    w = rng.uniform(-1.0, 1.0, 9)
    counted = factory(6, seed=1).dot(x, w)
    streamed = oracle.dot(factory(6, seed=1), x, w)
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


def test_mux_select_periodicity_across_repeated_calls():
    """Free-running MUX selects keep advancing across dot() calls.

    The engine deliberately lets every node's select source continue across
    sequential evaluations; the count path must consume *exactly* the same
    select windows as the oracle's stream path or the second call diverges.
    """
    rng = np.random.default_rng(8)
    x1, x2 = rng.random((4, 10)), rng.random((4, 10))
    w = rng.uniform(-1.0, 1.0, 10)
    engine, twin = (
        StochasticDotProductEngine(precision=5, adder="mux", seed=21) for _ in range(2)
    )
    for x in (x1, x2, x1):
        counted = engine.dot(x, w)
        streamed = oracle.dot(twin, x, w)
        np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
        np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("tile_patches", [None, 1, 7, 64])
def test_conv_counts_mode_tiling_bit_identical(adder, tile_patches):
    rng = np.random.default_rng(1)
    images = rng.random((2, 8, 8))
    kernels = rng.uniform(-1.0, 1.0, (4, 3, 3))
    counted, streamed = (
        StochasticConv2D(
            kernels,
            engine=StochasticDotProductEngine(precision=5, adder=adder, seed=4),
            padding=1,
            tile_patches=tile_patches,
        )
        for _ in range(2)
    )
    counted = counted.forward(images)
    streamed = oracle.conv_forward(streamed, images)
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)
    np.testing.assert_array_equal(counted.sign, streamed.sign)


def test_stream_paths_match_oracle():
    """OR trees reduce packed streams and faulted TFF/MUX trees popcount their
    leaves; all match the oracle's stream reduction."""
    rng = np.random.default_rng(12)
    x = rng.random((6, 9))
    w = rng.uniform(-1.0, 1.0, 9)
    spec = FaultSpec(flip_rate=0.05, stuck_one_rate=0.01, seed=3)
    for kwargs in (
        dict(adder="or"),
        dict(adder="tff", faults=spec),
        dict(adder="mux", faults=spec),
    ):
        engine, twin = (
            StochasticDotProductEngine(precision=6, seed=5, **kwargs) for _ in range(2)
        )
        for _ in range(2):
            counted = engine.dot(x, w)
            streamed = oracle.dot(twin, x, w)
            np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
            np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)
    for adder in ("tff", "mux"):
        engine = BipolarDotProductEngine(precision=6, adder=adder, faults=spec)
        xb = rng.uniform(-1.0, 1.0, (6, 9))
        np.testing.assert_array_equal(
            engine.dot(xb, w).count, oracle.dot(engine, xb, w).count
        )


# --------------------------------------------------------------------- #
# bipolar XNOR engine: counts == streams, including padding
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize("reference", oracle.IMPLS)
@pytest.mark.parametrize("taps", [1, 2, 3, 5, 9, 25, 32])
def test_bipolar_counts_bit_identical(adder, reference, taps):
    """Covers power-of-two, odd and single tap counts (padding edge cases)."""
    rng = np.random.default_rng(taps + 100)
    x = rng.uniform(-1.0, 1.0, (6, taps))
    w = rng.uniform(-1.0, 1.0, taps)
    kwargs = dict(precision=6, adder=adder, seed=9)
    counted = BipolarDotProductEngine(**kwargs).dot(x, w)
    streamed = stream_reference(reference, BipolarDotProductEngine(**kwargs), "dot", x, w)
    np.testing.assert_array_equal(counted.count, streamed.count)
    np.testing.assert_array_equal(counted.sign, streamed.sign)
    np.testing.assert_array_equal(counted.value, streamed.value)
    assert counted.tree_scale == streamed.tree_scale


# --------------------------------------------------------------------- #
# property-based sweep
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    taps=st.integers(min_value=1, max_value=12),
    precision=st.integers(min_value=3, max_value=7),
    adder=st.sampled_from(["tff", "mux"]),
    reference=st.sampled_from(oracle.IMPLS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_unipolar_counts_property(taps, precision, adder, reference, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((3, taps))
    w = rng.uniform(-1.0, 1.0, taps)
    kwargs = dict(precision=precision, adder=adder, seed=seed)
    counted = StochasticDotProductEngine(**kwargs).dot(x, w)
    streamed = stream_reference(
        reference, StochasticDotProductEngine(**kwargs), "dot", x, w
    )
    np.testing.assert_array_equal(counted.positive_count, streamed.positive_count)
    np.testing.assert_array_equal(counted.negative_count, streamed.negative_count)


@settings(max_examples=30, deadline=None)
@given(
    taps=st.integers(min_value=1, max_value=12),
    precision=st.integers(min_value=3, max_value=7),
    adder=st.sampled_from(["tff", "mux"]),
    reference=st.sampled_from(oracle.IMPLS),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bipolar_counts_property(taps, precision, adder, reference, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (3, taps))
    w = rng.uniform(-1.0, 1.0, taps)
    kwargs = dict(precision=precision, adder=adder, seed=seed)
    counted = BipolarDotProductEngine(**kwargs).dot(x, w)
    streamed = stream_reference(reference, BipolarDotProductEngine(**kwargs), "dot", x, w)
    np.testing.assert_array_equal(counted.count, streamed.count)


# --------------------------------------------------------------------- #
# TreePlan mask machinery (the MUX count-domain core)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 8, 25])
@pytest.mark.parametrize("lanes", [1, 3])
def test_leaf_masks_are_disjoint_and_exact(count, lanes):
    length = 96  # not a multiple of 64: exercises the packed tail word
    plan = TreePlan(lambda: MuxAdder(toggle_select=True), count, lanes=lanes)
    rng = np.random.default_rng(count * 10 + lanes)
    bits = rng.integers(0, 2, size=(lanes, count, length)).astype(np.uint8)
    if lanes == 1:
        bits = bits[0]

    # Reference: an identically-seeded plan reducing actual streams.
    ref_plan = TreePlan(lambda: MuxAdder(toggle_select=True), count, lanes=lanes)
    expected = np.asarray(ref_plan.reduce_bits(bits)).sum(axis=-1, dtype=np.int64)

    # Each cycle is owned by at most one leaf (pads absorb the rest).
    masks = plan.leaf_masks(length, packed=False)
    assert np.all(masks.sum(axis=-2) <= 1)

    # Packed masks agree with the unpacked ones bit for bit.
    packed_masks = plan.leaf_masks(length, packed=True)
    np.testing.assert_array_equal(pack_bits(masks), packed_masks)
    packed_counts = plan.masked_counts_packed(pack_bits(bits), length)
    np.testing.assert_array_equal(packed_counts, expected)


def test_leaf_masks_cached_per_length():
    plan = TreePlan(lambda: MuxAdder(toggle_select=True), 5)
    first = plan.leaf_masks(64, packed=True)
    assert plan.leaf_masks(64, packed=True) is first
    assert plan.leaf_masks(128, packed=True) is not first


def test_tff_plan_reports_count_reduction_mux_reports_masked():
    tff_plan = TreePlan(TffAdder, 8)
    assert tff_plan.supports_count_reduction
    assert not tff_plan.supports_masked_reduction
    mux_plan = TreePlan(lambda: MuxAdder(toggle_select=True), 8)
    assert not mux_plan.supports_count_reduction
    assert mux_plan.supports_masked_reduction


# --------------------------------------------------------------------- #
# satellite regressions: stream-path edge cases
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("tile_patches", [None, 16])
def test_conv_empty_batch_returns_empty_result(tile_patches):
    kernels = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 3, 3))
    layer = StochasticConv2D(
        kernels,
        engine=new_sc_engine(5, seed=1),
        padding=1,
        tile_patches=tile_patches,
    )
    result = layer.forward(np.zeros((0, 8, 8)))
    assert result.sign.shape == (0, 4, 8, 8)
    assert result.positive_count.shape == (0, 4, 8, 8)
    assert result.negative_count.shape == (0, 4, 8, 8)
    assert result.value.shape == (0, 4, 8, 8)
    assert result.sign.dtype == np.int8
    assert result.positive_count.dtype == np.int64
    # Bad geometry still raises even for an empty batch.
    with pytest.raises(ValueError):
        layer.forward(np.zeros((0, 0, 0)))


def test_conv_still_rejects_out_of_range_pixels():
    kernels = np.full((1, 3, 3), 0.5)
    layer = StochasticConv2D(kernels, engine=new_sc_engine(4), padding=1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        layer.forward(np.full((1, 8, 8), 1.5))


def test_conv_counts_stay_integer_dtype():
    rng = np.random.default_rng(5)
    layer = StochasticConv2D(
        rng.uniform(-1.0, 1.0, (2, 3, 3)), engine=new_sc_engine(5, seed=1), padding=1
    )
    result = layer.forward(rng.random((1, 6, 6)))
    assert result.positive_count.dtype == np.int64
    assert result.negative_count.dtype == np.int64
    assert result.sign.dtype == np.int8
    assert result.value.dtype == np.float64


def test_patches_to_map_preserves_dtype_exactly():
    # A counter value float64 cannot represent: 2**53 + 1 survives the map.
    big = np.int64(2**53 + 1)
    patch_values = np.full((1, 4, 2), big, dtype=np.int64)
    mapped = patches_to_map(patch_values, (2, 2))
    assert mapped.dtype == np.int64
    assert np.all(mapped == big)
    assert np.int64(float(big)) != big  # the old float64 round trip was lossy
    for dtype in (np.int8, np.int32, np.uint8, np.float32):
        assert patches_to_map(np.zeros((1, 4, 3), dtype=dtype), (2, 2)).dtype == dtype


def test_bipolar_sign_tie_resolves_to_plus_one():
    length = 16
    tie = BipolarDotProductResult(
        count=np.array([length // 2]), length=length, tree_scale=1
    )
    assert tie.sign[0] == 1  # comparator's "not below mid-scale" side
    below = BipolarDotProductResult(
        count=np.array([length // 2 - 1]), length=length, tree_scale=1
    )
    assert below.sign[0] == -1


def test_unipolar_conv_sign_tie_resolves_to_zero():
    # An all-zero kernel produces identical (zero) positive and negative
    # counters at every output: the three-valued sign activation emits 0.
    layer = StochasticConv2D(
        np.zeros((1, 3, 3)), engine=new_sc_engine(4, seed=1), padding=1
    )
    result = layer.forward(np.random.default_rng(0).random((1, 5, 5)))
    np.testing.assert_array_equal(result.positive_count, result.negative_count)
    assert np.all(result.sign == 0)


@pytest.mark.parametrize("impl", oracle.IMPLS)
def test_bipolar_rejects_out_of_range_inputs(impl):
    engine = BipolarDotProductEngine(precision=4)
    w = np.full(4, 0.5)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        oracle.evaluate(impl, engine, "dot", np.array([[0.0, 0.5, 1.5, -0.5]]), w)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        oracle.evaluate(impl, engine, "dot", np.array([[0.0, 0.5, -1.5, -0.5]]), w)
    # Exact boundary values stay legal.
    result = oracle.evaluate(impl, engine, "dot", np.array([[1.0, -1.0, 0.0, 1.0]]), w)
    assert result.count.shape == (1,)


# --------------------------------------------------------------------- #
# Table 2: count-domain sweep vs. the stream grid
# --------------------------------------------------------------------- #


def test_table2_counts_mode_bit_identical():
    from repro.eval.table2 import ADDER_CONFIGS, adder_mse

    for config in ADDER_CONFIGS:
        for precision in (4, 6):
            assert adder_mse(config, precision) == oracle.adder_mse(config, precision)
