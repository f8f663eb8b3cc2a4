"""Comparator-reference tables: input streams and leaf counts as lookups.

Every engine input stream is a comparator output ``ref < p`` against one
fixed reference sequence, so :class:`repro.rng.ComparatorTable` stores the
``N + 1`` possible streams and the engine's ``input_words`` is a
``searchsorted`` plus a row lookup.  The filter bank's count domain reads
leaf counts from a prefix-count table indexed by each stream's ones-count.
These tests pin both lookups against the per-cycle comparison and the
stream-level oracle (``tests/oracle.py``): every generator and stream
length, reference ties (stuck LFSR cells), values on reference points,
out-of-range and NaN inputs, and the rejection of streams the table cannot
have produced.
"""

import numpy as np
import oracle
import pytest

from repro.bitstream import pack_bits, unpack_bits
from repro.faults import FaultSpec
from repro.rng import ComparatorTable, RampSource
from repro.sc import StochasticConv2D, StochasticDotProductEngine
from repro.sc.elements.adders import TffAdder, TreePlan

GENERATORS = ("ramp", "lowdisc", "lfsr")


def make_engine(input_generator, precision, adder="tff", faults=None):
    return StochasticDotProductEngine(
        precision=precision,
        adder=adder,
        input_generator=input_generator,
        weight_generator="lfsr" if input_generator == "lfsr" else "lowdisc",
        seed=5,
        faults=faults,
    )


def reference_of(engine):
    """The input SNG's per-cycle reference, as ``input_streams`` compares it."""
    if engine.input_generator == "ramp":
        return RampSource(engine.precision).sequence(engine.length)
    return engine._input_sng().source.sequence(engine.length)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("precision", range(2, 13))
def test_input_words_match_byte_per_bit_streams(generator, precision):
    engine = make_engine(generator, precision)
    rng = np.random.default_rng(precision)
    values = rng.random((7, 5))
    words = engine.input_words(values)
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(
        unpack_bits(words, engine.length), engine.input_streams(values)
    )


@pytest.mark.parametrize("generator", GENERATORS)
def test_values_on_reference_points_use_strict_less_than(generator):
    engine = make_engine(generator, 6)
    ref = reference_of(engine)
    # Each reference value p yields the stream ref < p: cycles where the
    # reference equals p stay 0.
    values = np.concatenate([ref, np.nextafter(ref, 2.0), np.nextafter(ref, -1.0)])
    bits = unpack_bits(engine.input_words(values), engine.length)
    np.testing.assert_array_equal(bits, engine.input_streams(values))
    np.testing.assert_array_equal(
        bits[: engine.length], (ref[np.newaxis, :] < ref[:, np.newaxis]).astype(np.uint8)
    )


@pytest.mark.parametrize("generator", GENERATORS)
def test_out_of_range_values_clip(generator):
    engine = make_engine(generator, 5)
    values = np.array([-3.0, -1e-12, -np.inf, 1.0 + 1e-12, 7.5, np.inf])
    bits = unpack_bits(engine.input_words(values), engine.length)
    np.testing.assert_array_equal(bits, engine.input_streams(values))
    np.testing.assert_array_equal(
        bits, unpack_bits(engine.input_words(np.clip(values, 0.0, 1.0)), engine.length)
    )
    assert bits[:3].sum() == 0
    assert (bits[3:].sum(axis=-1) == engine.length).all()


@pytest.mark.parametrize("generator", GENERATORS)
def test_input_words_reject_nan(generator):
    engine = make_engine(generator, 4)
    with pytest.raises(ValueError, match="NaN"):
        engine.input_words(np.array([0.25, np.nan]))


def test_conv_forward_rejects_nan_pixels():
    layer = StochasticConv2D(np.full((2, 3, 3), 0.5), padding=1)
    images = np.full((1, 5, 5), 0.5)
    images[0, 2, 3] = np.nan
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        layer.forward(images)


def test_table_rows_are_ranked_prefixes():
    ref = np.array([0.5, 0.25, 0.5, 0.0, 0.75, 0.25, 0.5, 0.0])
    table = ComparatorTable(ref)
    rows = unpack_bits(table.streams, ref.size)
    assert rows.shape == (ref.size + 1, ref.size)
    np.testing.assert_array_equal(rows.sum(axis=-1), np.arange(ref.size + 1))
    # Row k is the stream of every threshold whose comparator output has k
    # ones; thresholds on tie boundaries hit exactly those rows.
    for p in np.unique(np.concatenate([ref, [1.0]])):
        k = int((ref < p).sum())
        np.testing.assert_array_equal(rows[k], (ref < p).astype(np.uint8))
        assert table.levels(np.array([p]))[0] == k


def test_prefix_counts_are_masked_popcounts():
    rng = np.random.default_rng(3)
    table = ComparatorTable(rng.random(100))
    w_bits = rng.integers(0, 2, (4, 100)).astype(np.uint8)
    prefix = table.prefix_counts(pack_bits(w_bits), np.int16)
    assert prefix.dtype == np.int16 and prefix.shape == (4, 101)
    rows = unpack_bits(table.streams, 100)
    np.testing.assert_array_equal(prefix, w_bits @ rows.T.astype(np.int64))


def test_decode_inverts_words_and_rejects_other_widths():
    table = ComparatorTable(np.linspace(0.0, 1.0, 64, endpoint=False))
    values = np.random.default_rng(4).random((3, 6))
    np.testing.assert_array_equal(table.decode(table.words(values)), table.levels(values))
    with pytest.raises(ValueError, match="words per stream"):
        table.decode(np.zeros((3, 2), dtype=np.uint64))


def test_input_table_is_cached_and_keyed():
    engine = make_engine("lfsr", 5)
    first = engine._input_table()
    assert engine._input_table() is first
    engine.seed = 9
    second = engine._input_table()
    assert second is not first
    engine.faults = FaultSpec(sng_stuck_cells=((1, 0),))
    third = engine._input_table()
    assert third is not second
    ref = reference_of(engine)
    np.testing.assert_array_equal(third.sorted_reference, np.sort(ref, kind="stable"))


@pytest.mark.parametrize("adder", ["tff", "mux"])
@pytest.mark.parametrize(
    "precision, cells", [(4, ((0, 1),)), (5, ((1, 0), (3, 1))), (8, ((2, 1),))]
)
def test_stuck_lfsr_cells_stay_exact_in_count_domain(adder, precision, cells):
    faults = FaultSpec(sng_stuck_cells=cells)
    engine = make_engine("lfsr", precision, adder, faults)
    twin = make_engine("lfsr", precision, adder, faults)
    if (precision, cells) == (4, ((0, 1),)):
        assert np.unique(reference_of(engine)).size == 4  # heavy ties
    rng = np.random.default_rng(precision)
    x = rng.random((40, 9))
    kernels = rng.uniform(-1, 1, (3, 9))
    bank = engine.prepare_weights(kernels)
    reference = oracle.BitBank(twin, kernels)
    assert engine._uses_count_domain(bank.plan)
    pos, neg = bank.counts(engine.prepare_inputs(x))
    ref_pos, ref_neg = reference.counts(twin.input_streams(x))
    np.testing.assert_array_equal(pos, ref_pos)
    np.testing.assert_array_equal(neg, ref_neg)


def flip_one_bit(words, index=(2, 1), bit=3):
    flipped = words.copy()
    flipped[index + (0,)] ^= np.uint64(1 << bit)
    return flipped


@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_count_domain_rejects_non_comparator_streams(adder):
    engine = make_engine("ramp", 6, adder)
    bank = engine.prepare_weights(np.random.default_rng(5).uniform(-1, 1, (2, 4)))
    x = engine.prepare_inputs(np.random.default_rng(6).random((5, 4)))
    bank.counts(x)
    with pytest.raises(ValueError, match="comparator outputs"):
        bank.counts(flip_one_bit(x))


@pytest.mark.parametrize(
    "adder, faults",
    [
        ("or", None),
        ("tff", FaultSpec(flip_rate=1e-3, seed=2)),
        ("mux", FaultSpec(stuck_one_rate=0.01)),
    ],
)
def test_stream_paths_accept_arbitrary_streams(adder, faults):
    engine = make_engine("ramp", 6, adder, faults)
    twin = make_engine("ramp", 6, adder, faults)
    kernels = np.random.default_rng(7).uniform(-1, 1, (2, 4))
    bank = engine.prepare_weights(kernels)
    reference = oracle.BitBank(twin, kernels, packed=True)
    x = flip_one_bit(engine.prepare_inputs(np.random.default_rng(8).random((5, 4))))
    pos, neg = bank.counts(x)
    ref_pos, ref_neg = reference.counts(x)
    np.testing.assert_array_equal(pos, ref_pos)
    np.testing.assert_array_equal(neg, ref_neg)


@pytest.mark.parametrize("count", [1, 2, 5, 25, 32])
@pytest.mark.parametrize("initial_state", [0, 1])
def test_reduce_counts_int16_matches_int64(count, initial_state):
    plan = TreePlan(lambda: TffAdder(initial_state), count, lanes=3)
    leaves = np.random.default_rng(count).integers(0, 4097, (6, 3, count))
    wide = plan.reduce_counts(leaves.astype(np.int64))
    narrow = plan.reduce_counts(leaves.astype(np.int16))
    assert wide.dtype == np.int64 and narrow.dtype == np.int16
    np.testing.assert_array_equal(narrow, wide)
    # A transposed (leaves-strided) view reduces to the same counts.
    strided = np.ascontiguousarray(np.swapaxes(leaves.astype(np.int16), -1, -2))
    np.testing.assert_array_equal(plan.reduce_counts(np.swapaxes(strided, -1, -2)), wide)


@pytest.mark.parametrize("adder", ["tff", "mux"])
def test_long_streams_use_wide_leaf_table(adder):
    # At N = 16384 two leaf counts overflow int16, so the leaf table widens.
    engine = make_engine("ramp", 14, adder)
    twin = make_engine("ramp", 14, adder)
    kernels = np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, -1.0]])
    x = np.array([[1.0, 1.0, 1.0], [0.3, 0.9, 0.7]])
    bank = engine.prepare_weights(kernels)
    reference = oracle.BitBank(twin, kernels, packed=True)
    x_words = engine.prepare_inputs(x)
    pos, neg = bank.counts(x_words)
    assert bank._leaf_table.dtype == np.int32
    ref_pos, ref_neg = reference.counts(x_words)
    np.testing.assert_array_equal(pos, ref_pos)
    np.testing.assert_array_equal(neg, ref_neg)
