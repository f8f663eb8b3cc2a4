"""Benchmark: packed-word kernels vs. the byte-per-bit reference oracle.

Times the two hot kernels of the reproduction -- the stochastic dot product
and the stochastic convolution layer -- against their byte-per-bit or
packed-stream twins in ``tests/oracle.py``, asserts each path meets its
speedup floor (e.g. >= 5x on the dot-product kernel at stream length 4096,
>= 10x for the table-lookup count domain at paper geometry, >= 5x for the
faulted count domain there), and writes a ``BENCH_packed.json`` artifact
under ``.bench_build/`` (untracked) so the speedup trajectory can be tracked
across runs without rewriting committed files.

Timings use best-of-``REPEATS`` wall-clock so a single scheduler hiccup on a
loaded CI machine cannot fail the regression assertion.
"""

import json
import time
from pathlib import Path

import numpy as np
import oracle

from repro.bitstream import pack_bits
from repro.faults import FaultSpec
from repro.sc import (
    BipolarDotProductEngine,
    StochasticConv2D,
    StochasticDotProductEngine,
    TffAdder,
    new_sc_engine,
)
from repro.sc.dotproduct import stochastic_dot_product_packed
from repro.utils import extract_patches

ARTIFACT = Path(__file__).resolve().parent.parent / ".bench_build" / "BENCH_packed.json"
REPEATS = 3


def best_of(fn, repeats=REPEATS):
    """Best wall-clock of ``repeats`` runs, plus the last return value."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_packed_dot_product_speedup_at_4096():
    rng = np.random.default_rng(0)
    length, taps, batch = 4096, 25, 32
    x_bits = rng.integers(0, 2, size=(batch, taps, length)).astype(np.uint8)
    w_bits = rng.integers(0, 2, size=(taps, length)).astype(np.uint8)
    x_words, w_words = pack_bits(x_bits), pack_bits(w_bits)

    unpacked_s, unpacked_counts = best_of(
        lambda: oracle.stochastic_dot_product(x_bits, w_bits, TffAdder)
    )
    packed_s, packed_counts = best_of(
        lambda: stochastic_dot_product_packed(x_words, w_words, length, TffAdder)
    )

    # Correctness first: the speedup claim is only meaningful bit-identically.
    np.testing.assert_array_equal(packed_counts, unpacked_counts)

    speedup = unpacked_s / packed_s
    print(
        f"\ndot product N={length}, taps={taps}, batch={batch}: "
        f"unpacked {unpacked_s * 1e3:.1f} ms, packed {packed_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"packed dot product only {speedup:.1f}x faster than unpacked "
        f"(floor is 5x at stream length {length})"
    )

    memory_ratio = x_bits.nbytes / x_words.nbytes
    assert memory_ratio >= 7.9  # 8x minus the tail-word rounding

    _write_artifact(
        dot_product={
            "stream_length": length,
            "taps": taps,
            "batch": batch,
            "unpacked_seconds": unpacked_s,
            "packed_seconds": packed_s,
            "speedup": speedup,
            "memory_ratio": memory_ratio,
        }
    )


def test_packed_convolution_faster():
    rng = np.random.default_rng(1)
    images = rng.random((2, 12, 12))
    kernels = rng.uniform(-1.0, 1.0, (8, 5, 5))

    layer = StochasticConv2D(kernels, engine=new_sc_engine(8, seed=1), padding=2)
    results, timings = {}, {}
    timings["unpacked"], results["unpacked"] = best_of(
        lambda: oracle.conv_forward(layer, images)
    )
    timings["packed"], results["packed"] = best_of(lambda: layer.forward(images))

    np.testing.assert_array_equal(
        results["packed"].positive_count, results["unpacked"].positive_count
    )
    np.testing.assert_array_equal(results["packed"].sign, results["unpacked"].sign)

    speedup = timings["unpacked"] / timings["packed"]
    print(
        f"\nconvolution 12x12, 8 kernels, N=256: "
        f"unpacked {timings['unpacked'] * 1e3:.0f} ms, "
        f"packed {timings['packed'] * 1e3:.0f} ms ({speedup:.1f}x)"
    )
    assert speedup > 1.2, f"packed convolution not faster ({speedup:.2f}x)"

    _write_artifact(
        convolution={
            "image": [2, 12, 12],
            "kernels": [8, 5, 5],
            "stream_length": 256,
            "unpacked_seconds": timings["unpacked"],
            "packed_seconds": timings["packed"],
            "speedup": speedup,
        }
    )


def test_filter_parallel_conv_speedup():
    """Filter-parallel conv vs. the historical per-filter dot_prepared loop.

    Table 3 scale on the filter axis: 32 kernels at N=256, evaluated over one
    16x16 image's worth of patches.  The per-filter loop is the seed path the
    vectorized bank replaced (one ``dot_prepared`` call per kernel, weight
    streams regenerated each time); the filter-parallel path reduces every
    ``(filter, sign)`` tree lane in one vectorized pass per level and must be
    bit-identical while clearing the acceptance floor of 5x.

    The loop side is the historical per-filter stream path: the oracle's
    ``dot_prepared`` on packed words, two ``TreePlan.reduce_packed`` tree
    reductions per kernel.  (The engine's own ``dot_prepared`` now runs a
    one-filter bank in the count domain, which would erase the contrast this
    row has tracked since the filter-parallel change.)  The bank side is the
    engine's count domain for all-TFF trees: leaf counts gathered from the
    bank's prefix-count table by each input stream's ones-count, then halved
    level by level (``TreePlan.reduce_counts``).
    """
    rng = np.random.default_rng(2)
    images = rng.random((1, 16, 16))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    loop_engine = new_sc_engine(8, seed=1)
    bank_engine = new_sc_engine(8, seed=1)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)
    x_streams = loop_engine.prepare_inputs(patches)

    def per_filter_loop():
        pos = np.empty((patches.shape[0], filters), dtype=np.int64)
        neg = np.empty_like(pos)
        for f in range(filters):
            result = oracle.dot_prepared(
                loop_engine, x_streams, flat_kernels[f], packed=True
            )
            pos[:, f] = result.positive_count
            neg[:, f] = result.negative_count
        return pos, neg

    def filter_parallel():
        result = bank_engine.dot_filters_prepared(x_streams, flat_kernels)
        return result.positive_count, result.negative_count

    loop_s, (loop_pos, loop_neg) = best_of(per_filter_loop)
    parallel_s, (par_pos, par_neg) = best_of(filter_parallel)

    # Correctness first: the counts must be bit-identical to the seed path.
    np.testing.assert_array_equal(par_pos, loop_pos)
    np.testing.assert_array_equal(par_neg, loop_neg)

    speedup = loop_s / parallel_s
    print(
        f"\nfilter-parallel conv, {filters} kernels, "
        f"{patches.shape[0]} patches, N=256: "
        f"per-filter loop {loop_s * 1e3:.1f} ms, "
        f"filter-parallel {parallel_s * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"filter-parallel convolution only {speedup:.1f}x faster than the "
        f"per-filter loop (floor is 5x at {filters} filters)"
    )

    _write_artifact(
        filter_parallel_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "per_filter_seconds": loop_s,
            "filter_parallel_seconds": parallel_s,
            "speedup": speedup,
        }
    )


def test_mux_count_conv_speedup():
    """Count-domain MUX reduction vs. the stream path on the conv hot loop.

    Table 3 scale on the filter axis: 32 MUX-adder kernels at N=256 over one
    16x16 image's worth of patches, evaluated through the same prepared
    filter-parallel bank the convolution layer uses per tile.  The count
    path folds the cached select streams into per-leaf ownership masks,
    tabulates the masked weights' prefix counts once, and sums the leaf
    counts each input stream's ones-count gathers from that table; the
    stream side is the oracle's packed bank, which reduces the same lanes
    level by level with ``TreePlan.reduce_packed``.  The count path must be
    bit-identical while clearing the acceptance floor of 3x.
    """
    rng = np.random.default_rng(3)
    images = rng.random((1, 16, 16))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)

    engine, twin = (
        StochasticDotProductEngine(precision=8, adder="mux", seed=1) for _ in range(2)
    )
    x_streams = engine.prepare_inputs(patches)
    bank = engine.prepare_weights(flat_kernels)
    stream_bank = oracle.BitBank(twin, flat_kernels, packed=True)
    results, timings = {}, {}
    timings["streams"], results["streams"] = best_of(lambda: stream_bank.counts(x_streams))
    timings["counts"], results["counts"] = best_of(lambda: bank.counts(x_streams))

    # Correctness first: the count path must be bit-identical to the stream path.
    np.testing.assert_array_equal(results["counts"][0], results["streams"][0])
    np.testing.assert_array_equal(results["counts"][1], results["streams"][1])

    speedup = timings["streams"] / timings["counts"]
    print(
        f"\nmux count conv, {filters} kernels, {patches.shape[0]} patches, "
        f"N=256: streams {timings['streams'] * 1e3:.1f} ms, "
        f"counts {timings['counts'] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 3.0, (
        f"MUX count-domain convolution only {speedup:.1f}x faster than the "
        f"stream path (floor is 3x at {filters} filters)"
    )

    _write_artifact(
        mux_count_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            "streams_seconds": timings["streams"],
            "counts_seconds": timings["counts"],
            "speedup": speedup,
        }
    )


def test_table_count_conv_speedup():
    """Table-lookup count domain vs. the packed stream bank at paper geometry.

    One 28x28 image ("same" padding: 784 patches), 32 kernels, N=256, for
    TFF and MUX trees.  Both sides evaluate the same prepared input words:
    ``PreparedWeights.counts`` gathers leaf counts from its prefix-count
    table by each stream's ones-count (no product or tree streams), while
    ``oracle.BitBank(..., packed=True).counts`` ANDs inputs with weights
    and reduces the tree level by level.  Counts must be bit-identical, and
    each adder must clear a 10x floor.
    """
    rng = np.random.default_rng(5)
    images = rng.random((1, 28, 28))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)

    rows = {}
    for adder in ("tff", "mux"):
        engine, twin = (
            StochasticDotProductEngine(precision=8, adder=adder, seed=1)
            for _ in range(2)
        )
        x_words = engine.prepare_inputs(patches)
        bank = engine.prepare_weights(flat_kernels)
        stream_bank = oracle.BitBank(twin, flat_kernels, packed=True)
        streams_s, (ref_pos, ref_neg) = best_of(lambda: stream_bank.counts(x_words))
        counts_s, (pos, neg) = best_of(lambda: bank.counts(x_words))

        # Correctness first: the table path must match the stream reduction.
        np.testing.assert_array_equal(pos, ref_pos)
        np.testing.assert_array_equal(neg, ref_neg)
        rows[adder] = {
            "streams_seconds": streams_s,
            "counts_seconds": counts_s,
            "speedup": streams_s / counts_s,
        }
        print(
            f"\ntable count conv ({adder}), {filters} kernels, "
            f"{patches.shape[0]} patches, N=256: streams {streams_s * 1e3:.1f} ms, "
            f"counts {counts_s * 1e3:.1f} ms ({streams_s / counts_s:.1f}x)"
        )

    for adder, row in rows.items():
        assert row["speedup"] >= 10.0, (
            f"table-lookup {adder} counts only {row['speedup']:.1f}x faster "
            f"than the stream bank (floor is 10x at {filters} filters)"
        )

    _write_artifact(
        table_count_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            **rows,
        }
    )


def test_faulted_count_conv_speedup():
    """Faulted count domain vs. the packed stream bank at paper geometry.

    One 28x28 image ("same" padding: 784 patches), 32 kernels, N=256, for
    TFF and MUX trees, with flips, stuck-at-0/1 and bursts on the input
    streams.  Corrupted streams are no comparator-table rows, so
    ``PreparedWeights.counts`` popcounts ``x & w`` per ``(tap, word)`` into
    leaf counts and halves or sums them (no product or tree streams), while
    ``oracle.BitBank(..., packed=True).counts`` ANDs inputs with weights
    and reduces the tree level by level.  Counts must be bit-identical, and
    each adder must clear a 5x floor.
    """
    rng = np.random.default_rng(6)
    images = rng.random((1, 28, 28))
    kernels = rng.uniform(-1.0, 1.0, (32, 5, 5))
    filters, taps = kernels.shape[0], 25
    flat_kernels = kernels.reshape(filters, taps)
    patches = extract_patches(images, (5, 5), padding=2).reshape(-1, taps)
    faults = FaultSpec(
        flip_rate=1e-3, stuck_zero_rate=1e-3, stuck_one_rate=1e-3,
        burst_rate=1e-3, seed=1,
    )

    rows = {}
    for adder in ("tff", "mux"):
        engine, twin = (
            StochasticDotProductEngine(precision=8, adder=adder, seed=1, faults=faults)
            for _ in range(2)
        )
        x_words = engine.apply_faults(engine.prepare_inputs(patches))
        bank = engine.prepare_weights(flat_kernels)
        stream_bank = oracle.BitBank(twin, flat_kernels, packed=True)
        streams_s, (ref_pos, ref_neg) = best_of(lambda: stream_bank.counts(x_words))
        counts_s, (pos, neg) = best_of(lambda: bank.counts(x_words))

        # Correctness first: the faulted count path must match the streams.
        np.testing.assert_array_equal(pos, ref_pos)
        np.testing.assert_array_equal(neg, ref_neg)
        rows[adder] = {
            "streams_seconds": streams_s,
            "counts_seconds": counts_s,
            "speedup": streams_s / counts_s,
        }
        print(
            f"\nfaulted count conv ({adder}), {filters} kernels, "
            f"{patches.shape[0]} patches, N=256: streams {streams_s * 1e3:.1f} ms, "
            f"counts {counts_s * 1e3:.1f} ms ({streams_s / counts_s:.1f}x)"
        )

    for adder, row in rows.items():
        assert row["speedup"] >= 5.0, (
            f"faulted {adder} counts only {row['speedup']:.1f}x faster "
            f"than the stream bank (floor is 5x at {filters} filters)"
        )

    _write_artifact(
        faulted_count_conv={
            "filters": filters,
            "taps": taps,
            "patches": int(patches.shape[0]),
            "stream_length": 256,
            **rows,
        }
    )


def test_bipolar_count_dot_speedup():
    """Bipolar TFF engine: count-domain halving vs. the stream reduction.

    128 windows x 25 taps at N=4096 (the long-stream regime where tree
    tensors hurt most).  The count path popcounts the packed XNOR products
    once and halves integer counts per level -- with the exact ``N/2``
    alternating-pad count for the odd tap axis -- so it must be bit-identical
    to the stream reduction while clearing a 1.3x end-to-end floor (stream
    generation itself, common to both sides, dominates the remainder).  The
    stream side is the oracle's packed twin: alternating-stream pad plus
    ``TreePlan.reduce_packed``.
    """
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.0, 1.0, (128, 25))
    w = rng.uniform(-1.0, 1.0, 25)

    engine = BipolarDotProductEngine(precision=12, adder="tff", seed=1)
    results, timings = {}, {}
    timings["streams"], results["streams"] = best_of(
        lambda: oracle.dot(engine, x, w, packed=True)
    )
    timings["counts"], results["counts"] = best_of(lambda: engine.dot(x, w))

    np.testing.assert_array_equal(results["counts"].count, results["streams"].count)

    speedup = timings["streams"] / timings["counts"]
    print(
        f"\nbipolar count dot, 128 windows, 25 taps, N=4096: "
        f"streams {timings['streams'] * 1e3:.1f} ms, "
        f"counts {timings['counts'] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 1.3, (
        f"bipolar count-domain dot only {speedup:.1f}x faster than the "
        f"stream path (floor is 1.3x at stream length 4096)"
    )

    _write_artifact(
        bipolar_count_dot={
            "windows": int(x.shape[0]),
            "taps": 25,
            "stream_length": 4096,
            "streams_seconds": timings["streams"],
            "counts_seconds": timings["counts"],
            "speedup": speedup,
        }
    )


def _write_artifact(**sections):
    """Merge benchmark sections into the BENCH_packed.json artifact."""
    data = {}
    if ARTIFACT.exists():
        try:
            data = json.loads(ARTIFACT.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(sections)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
