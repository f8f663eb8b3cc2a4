"""Differential suite for the filter-parallel, tile-streamed convolution path.

The seed semantics are the historical per-filter loop: one
``engine.dot_prepared`` call per kernel over untiled prepared inputs.  Every
test here asserts that the vectorized paths that replaced it -- the
:class:`~repro.sc.dotproduct.PreparedWeights` filter bank, the count-domain
TFF shortcut, and tile-streamed :class:`~repro.sc.convolution.StochasticConv2D`
execution -- are *bit-identical* to that loop, on packed words and on the
byte-per-bit oracle (``tests/oracle.py``), for every adder type, including
tile sizes that do not divide the patch count.
"""

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid import CalibratedSCEmulator, HybridStochasticBinaryNetwork
from repro.nn import build_lenet5_small, quantize_and_freeze
from repro.sc import StochasticConv2D, resolve_tile_patches
from repro.sc.dotproduct import PreparedWeights, StochasticDotProductEngine
from repro.sc.elements.adders import AdderTree, MuxAdder, TffAdder, TreePlan


def per_filter_reference(impl, engine, x, kernels):
    """The seed path: one dot_prepared call per kernel, counts stacked last."""
    prepared = oracle.evaluate(impl, engine, "prepare_inputs", x)
    lead = np.asarray(prepared).shape[:-2]
    pos = np.empty(lead + (kernels.shape[0],), dtype=np.int64)
    neg = np.empty_like(pos)
    for f in range(kernels.shape[0]):
        result = oracle.evaluate(impl, engine, "dot_prepared", prepared, kernels[f])
        pos[..., f] = result.positive_count
        neg[..., f] = result.negative_count
    return pos, neg


def make_engine(adder, precision=5):
    return StochasticDotProductEngine(precision=precision, adder=adder, seed=3)


class TestFilterBankEquivalence:
    @pytest.mark.parametrize("adder", ["tff", "mux", "or"])
    @pytest.mark.parametrize("impl", oracle.IMPLS)
    def test_bank_matches_per_filter_loop(self, adder, impl):
        rng = np.random.default_rng(1)
        x = rng.random((2, 9, 13))
        kernels = rng.uniform(-1, 1, (6, 13))
        reference_engine = make_engine(adder)
        bank_engine = make_engine(adder)
        pos_ref, neg_ref = per_filter_reference(impl, reference_engine, x, kernels)
        result = oracle.evaluate(impl, bank_engine, "dot_filters", x, kernels)
        np.testing.assert_array_equal(result.positive_count, pos_ref)
        np.testing.assert_array_equal(result.negative_count, neg_ref)
        # Stateful factories must have advanced identically, so the *next*
        # evaluation on each engine stays in lockstep too (free-running MUX
        # select sources).
        assert bank_engine._mux_seed_counter == reference_engine._mux_seed_counter
        pos2, neg2 = per_filter_reference(impl, reference_engine, x, kernels)
        again = oracle.evaluate(impl, bank_engine, "dot_filters", x, kernels)
        np.testing.assert_array_equal(again.positive_count, pos2)
        np.testing.assert_array_equal(again.negative_count, neg2)

    @pytest.mark.parametrize("impl", oracle.IMPLS)
    def test_bank_reuse_across_tiles_matches_untiled(self, impl):
        rng = np.random.default_rng(2)
        x = rng.random((11, 9))
        kernels = rng.uniform(-1, 1, (4, 9))
        engine = make_engine("mux")
        bank = oracle.evaluate(impl, engine, "prepare_weights", kernels)
        whole_pos, whole_neg = bank.counts(
            oracle.evaluate(impl, engine, "prepare_inputs", x)
        )
        tiled_pos = np.empty_like(whole_pos)
        tiled_neg = np.empty_like(whole_neg)
        for start in range(0, x.shape[0], 4):  # 4 does not divide 11
            tile = x[start : start + 4]
            p, n = bank.counts(oracle.evaluate(impl, engine, "prepare_inputs", tile))
            tiled_pos[start : start + 4] = p
            tiled_neg[start : start + 4] = n
        np.testing.assert_array_equal(tiled_pos, whole_pos)
        np.testing.assert_array_equal(tiled_neg, whole_neg)

    def test_tree_scale_matches_dot_prepared(self):
        rng = np.random.default_rng(3)
        engine = make_engine("tff")
        kernels = rng.uniform(-1, 1, (3, 10))
        result = engine.dot_filters(rng.random((4, 10)), kernels)
        single = engine.dot(rng.random((4, 10)), kernels[0])
        assert result.tree_scale == single.tree_scale
        assert result.length == single.length

    def test_bank_validation(self):
        engine = make_engine("tff")
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros(5))  # not 2-D
        with pytest.raises(ValueError):
            engine.prepare_weights(np.zeros((0, 5)))  # zero filters
        bank = engine.prepare_weights(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            bank.counts(engine.prepare_inputs(np.zeros((3, 4))))  # tap mismatch
        other = make_engine("tff")
        with pytest.raises(ValueError):
            other.dot_filters_prepared(other.prepare_inputs(np.zeros((3, 5))), bank)
        with pytest.raises(ValueError):
            engine.dot_filters(np.zeros((3, 4)), np.zeros((2, 5)))
        assert "PreparedWeights" in repr(bank)
        assert isinstance(bank, PreparedWeights)

    @settings(deadline=None, max_examples=20)
    @given(
        taps=st.integers(min_value=1, max_value=12),
        filters=st.integers(min_value=1, max_value=5),
        adder=st.sampled_from(["tff", "mux", "or"]),
        impl=st.sampled_from(oracle.IMPLS),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hypothesis_random_kernels(self, taps, filters, adder, impl, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((3, taps))
        kernels = rng.uniform(-1, 1, (filters, taps))
        reference_engine = make_engine(adder, precision=4)
        bank_engine = make_engine(adder, precision=4)
        pos_ref, neg_ref = per_filter_reference(impl, reference_engine, x, kernels)
        result = oracle.evaluate(impl, bank_engine, "dot_filters", x, kernels)
        np.testing.assert_array_equal(result.positive_count, pos_ref)
        np.testing.assert_array_equal(result.negative_count, neg_ref)


class TestCountDomainShortcut:
    def test_reduce_counts_matches_stream_reduction(self):
        rng = np.random.default_rng(4)
        n_bits = 96
        for count in (1, 2, 5, 8, 11):
            streams = rng.integers(0, 2, (7, count, n_bits)).astype(np.uint8)
            plan = AdderTree(TffAdder).plan(count)
            summed = plan.reduce_bits(streams)
            from_streams = summed.sum(axis=-1, dtype=np.int64)
            from_counts = plan.reduce_counts(
                streams.sum(axis=-1, dtype=np.int64)
            )
            np.testing.assert_array_equal(from_counts, from_streams)

    def test_reduce_counts_ceil_rounding(self):
        plan = TreePlan(lambda: TffAdder(initial_state=1), 2)
        # ones 3 + 0 -> ceil(3 / 2) = 2 with initial state 1.
        assert plan.reduce_counts(np.array([3, 0])) == 2
        floor_plan = TreePlan(TffAdder, 2)
        assert floor_plan.reduce_counts(np.array([3, 0])) == 1

    def test_reduce_counts_rejects_position_dependent_adders(self):
        plan = TreePlan(lambda: MuxAdder(seed=1), 4)
        assert not plan.supports_count_reduction
        with pytest.raises(ValueError):
            plan.reduce_counts(np.zeros((2, 4), dtype=np.int64))

    def test_reduce_counts_validates_shape(self):
        plan = TreePlan(TffAdder, 4)
        with pytest.raises(ValueError):
            plan.reduce_counts(np.zeros((2, 3), dtype=np.int64))


class TestTiledConvolution:
    @pytest.mark.parametrize("impl", oracle.IMPLS)
    @pytest.mark.parametrize("tile", [1, 3, 7, 50, None])
    def test_tiling_is_bit_identical(self, impl, tile):
        rng = np.random.default_rng(5)
        images = rng.random((2, 6, 6))
        kernels = rng.uniform(-1, 1, (3, 3, 3))
        untiled = oracle.evaluate(
            impl,
            StochasticConv2D(kernels, engine=make_engine("tff"), padding=1),
            "forward",
            images,
        )
        tiled = oracle.evaluate(
            impl,
            StochasticConv2D(
                kernels, engine=make_engine("tff"), padding=1, tile_patches=tile
            ),
            "forward",
            images,
        )
        np.testing.assert_array_equal(tiled.positive_count, untiled.positive_count)
        np.testing.assert_array_equal(tiled.negative_count, untiled.negative_count)
        np.testing.assert_array_equal(tiled.sign, untiled.sign)
        np.testing.assert_array_equal(tiled.value, untiled.value)

    @settings(deadline=None, max_examples=15)
    @given(
        tile=st.integers(min_value=1, max_value=40),
        adder=st.sampled_from(["tff", "mux"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_hypothesis_tile_sizes(self, tile, adder, seed):
        rng = np.random.default_rng(seed)
        images = rng.random((1, 5, 5))
        kernels = rng.uniform(-1, 1, (2, 3, 3))
        untiled = StochasticConv2D(
            kernels, engine=make_engine(adder, precision=4), padding=1
        ).forward(images)
        tiled = StochasticConv2D(
            kernels,
            engine=make_engine(adder, precision=4),
            padding=1,
            tile_patches=tile,
        ).forward(images)
        np.testing.assert_array_equal(tiled.positive_count, untiled.positive_count)
        np.testing.assert_array_equal(tiled.negative_count, untiled.negative_count)

    def test_zero_filter_kernels_rejected(self):
        with pytest.raises(ValueError, match="at least one filter"):
            StochasticConv2D(np.zeros((0, 3, 3)))

    def test_tile_patches_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_PATCHES", "7")
        assert resolve_tile_patches(None) == 7
        assert resolve_tile_patches(3) == 3  # explicit wins
        layer = StochasticConv2D(np.zeros((1, 3, 3)))
        assert layer.tile_patches == 7
        monkeypatch.setenv("REPRO_TILE_PATCHES", "junk")
        with pytest.raises(ValueError):
            resolve_tile_patches(None)
        monkeypatch.delenv("REPRO_TILE_PATCHES")
        assert resolve_tile_patches(None) is None
        with pytest.raises(ValueError):
            resolve_tile_patches(0)


class TestHybridAndEmulatorTiling:
    def test_calibrate_matches_per_kernel_loop(self):
        rng = np.random.default_rng(6)
        windows = rng.random((12, 9))
        kernels = rng.uniform(-1, 1, (3, 9))
        for adder in ("tff", "mux"):
            reference_engine = make_engine(adder)
            x_streams = reference_engine.prepare_inputs(windows)
            residuals = []
            from repro.bitstream import quantize_unipolar
            from repro.sc.dotproduct import split_weights

            tree_scale = 1 << AdderTree().depth(9)
            n = reference_engine.length
            quantized = quantize_unipolar(windows, reference_engine.precision)
            for kernel in kernels:
                result = reference_engine.dot_prepared(x_streams, kernel)
                w_pos, w_neg = split_weights(kernel)
                ideal = (quantized @ (w_pos - w_neg)) / tree_scale * n
                residuals.append(
                    result.positive_count - result.negative_count - ideal
                )
            expected = np.concatenate([r.ravel() for r in residuals])

            emulator = CalibratedSCEmulator(make_engine(adder))
            model = emulator.calibrate(windows, kernels)
            np.testing.assert_array_equal(model.residuals, expected)

    def test_tiled_calibration_is_bit_identical(self):
        rng = np.random.default_rng(7)
        windows = rng.random((10, 9))
        kernels = rng.uniform(-1, 1, (2, 9))
        untiled = CalibratedSCEmulator(make_engine("tff")).calibrate(
            windows, kernels
        )
        tiled = CalibratedSCEmulator(
            make_engine("tff"), tile_patches=3
        ).calibrate(windows, kernels)
        np.testing.assert_array_equal(tiled.residuals, untiled.residuals)
        assert tiled.bias == untiled.bias
        assert tiled.sigma == untiled.sigma

    def test_bitexact_first_layer_tiled_matches_untiled(self):
        rng = np.random.default_rng(8)
        images = rng.random((2, 8, 8))
        model = build_lenet5_small(seed=0, image_size=8, filters1=2)
        frozen = quantize_and_freeze(model, precision=4)
        untiled = HybridStochasticBinaryNetwork(
            frozen, engine=make_engine("tff", precision=4)
        )
        tiled = HybridStochasticBinaryNetwork(
            frozen,
            engine=make_engine("tff", precision=4),
            tile_patches=13,
        )
        np.testing.assert_array_equal(
            tiled.first_layer_bitexact(images), untiled.first_layer_bitexact(images)
        )
