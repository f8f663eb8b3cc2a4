"""The stochastic dot-product engine (paper Fig. 3, middle).

Each convolution engine of the hybrid first layer computes

    g(x, w) = sign(x . w)

entirely in the stochastic domain, with the trick described in Section IV-B:
instead of using bipolar arithmetic (whose decision point sits at the
maximum-fluctuation density 0.5), the weights are split into positive and
negative magnitude vectors and *two unipolar* dot products are evaluated:

    g_pos = x . w_pos        g_neg = x . w_neg

Each dot product is an AND-multiplier per tap followed by a balanced tree of
scaled adders; two counters convert the results to binary and a binary
comparator implements the sign activation.

This module provides :class:`StochasticDotProductEngine`, which owns the
number-generation configuration (the knob that distinguishes "this work" from
the "old SC" baseline in Table 3), and the raw packed-word kernel
:func:`stochastic_dot_product_packed` that operates on pre-generated streams.
Every stream is stored 64 clock cycles per ``uint64`` word (see
:mod:`repro.bitstream.packed`).  Input streams are comparator outputs against
one fixed reference, so the engine looks them up by ones-count in a cached
:class:`~repro.rng.sng.ComparatorTable`, and the filter bank reduces them in
the count domain through the same table.  Fault-corrupted input streams are
reduced in the count domain too, from popcounted leaf products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ..bitstream import stream_length
from ..bitstream.packed import packed_popcount, word_popcount
from ..faults.spec import FaultedEngine, FaultSpec
from ..rng import (
    ComparatorSNG,
    ComparatorTable,
    LFSRSource,
    RampSource,
    VanDerCorputSource,
    ramp_compare_batch,
)
from .elements.adders import AdderTree, MuxAdder, OrAdder, TffAdder, TreePlan
from .elements.converters import sign_from_counts

__all__ = [
    "split_weights",
    "stochastic_dot_product_packed",
    "DotProductResult",
    "PreparedWeights",
    "StochasticDotProductEngine",
    "new_sc_engine",
    "old_sc_engine",
]


def split_weights(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split signed weights into positive and negative unipolar magnitudes.

    Returns ``(w_pos, w_neg)`` with ``weights = w_pos - w_neg`` and both parts
    in ``[0, 1]`` (weights are expected to be pre-scaled into ``[-1, 1]``; see
    :func:`repro.nn.quantization.scale_kernel`).
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(np.abs(w) > 1.0 + 1e-9):
        raise ValueError("weights must lie in [-1, 1]; apply weight scaling first")
    w_pos = np.clip(w, 0.0, 1.0)
    w_neg = np.clip(-w, 0.0, 1.0)
    return w_pos, w_neg


def stochastic_dot_product_packed(
    x_words: np.ndarray,
    w_words: np.ndarray,
    n_bits: int,
    adder_factory: Callable[[], object] = TffAdder,
) -> np.ndarray:
    """Bit-level unipolar dot product of packed input and weight streams.

    ``x_words`` has shape ``(..., k, W)`` and ``w_words`` broadcasts to it,
    where ``W = ceil(n_bits / 64)`` uint64 words per stream (see
    :mod:`repro.bitstream.packed`).  Each tap is an AND multiplier, the taps
    are summed by a balanced tree of ``adder_factory`` adders, and the
    result is the ones-count of the tree output, shape ``(...,)``: the
    encoded value is ``counts / n_bits * 2**depth`` with
    ``depth = ceil(log2 k)``.
    """
    products = np.asarray(x_words) & np.asarray(w_words)
    tree = AdderTree(adder_factory)
    summed = tree.reduce_packed(products, n_bits)
    return packed_popcount(summed)


@dataclass
class DotProductResult:
    """Outputs of one batch of stochastic dot products."""

    #: Ones-count of the positive-weight tree output.
    positive_count: np.ndarray
    #: Ones-count of the negative-weight tree output.
    negative_count: np.ndarray
    #: Stream length used.
    length: int
    #: Scale factor 2**depth of the adder tree.
    tree_scale: int

    @property
    def sign(self) -> np.ndarray:
        """The sign activation ``sign(x . w)`` (-1, 0 or +1)."""
        return sign_from_counts(self.positive_count, self.negative_count)

    @property
    def value(self) -> np.ndarray:
        """The reconstructed (scaled-back) dot-product value ``x . w``."""
        diff = self.positive_count.astype(np.float64) - self.negative_count
        return diff / self.length * self.tree_scale


class PreparedWeights:
    """A filter bank: all-kernel weight streams plus a shared adder-tree plan.

    Built once per kernel set by
    :meth:`StochasticDotProductEngine.prepare_weights` and applied to any
    number of input tiles via :meth:`counts`.  Weight streams carry a leading
    *filter* axis and a positive/negative axis -- ``(filters, 2, taps, W)``
    packed words -- and the tree plan has one lane per ``(filter, sign)``
    pair, so the positive and negative dot products of the paper's
    split-weight trick are fused into one pass over shared input streams.

    All-TFF and all-MUX trees reduce in the count domain, from the leaf
    counts ``popcount(x & w)`` alone; MUX leaves use the weight streams
    pre-ANDed with their cached leaf ownership masks
    (:meth:`_masked_weight_bank`).  The leaf counts have two sources:

    * fault-free inputs -- every input stream is the comparator output of
      the engine's input reference, fixed by its ones-count ``k``
      (:class:`~repro.rng.sng.ComparatorTable`), so the leaf counts are rows
      of a ``(taps, N + 1, lanes)`` prefix-count table, built once from the
      weight bits in reference order on first use; input and weight streams
      are never ANDed;
    * stream faults active -- corrupted streams are no table rows, so the
      bank popcounts ``x & w`` one ``(tap, word)`` pair at a time
      (:meth:`_popcount_leaves`).

    Neither source builds a products tensor or a tree stream.

    The tree plan's adders are instantiated filter-major (filter 0's positive
    tree, then its negative tree, then filter 1, ...), exactly the order a
    loop of single-filter :meth:`~StochasticDotProductEngine.dot_prepared`
    calls uses, so stateful adder factories (per-node MUX select seeds) keep
    producing bit-identical counts -- including across successive calls on
    one engine.
    Because the plan caches its select streams, evaluating inputs tile by
    tile is bit-identical to one untiled pass.
    """

    def __init__(self, engine: "StochasticDotProductEngine", weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(
                f"weights must have shape (filters, taps), got {weights.shape}"
            )
        if weights.shape[0] == 0:
            raise ValueError("need at least one filter kernel")
        self.engine = engine
        self.filters, self.taps = weights.shape
        self.n_bits = engine.length
        w_pos, w_neg = engine.weight_words(weights)
        #: Weight streams with the filter axis leading: ``(filters, 2, taps, .)``
        #: where index 0 of the second axis is the positive tree's streams.
        self.weight_streams = np.stack([w_pos, w_neg], axis=1)
        # One tree lane per (filter, sign) pair, laid out filter-major.
        self.plan: TreePlan = AdderTree(engine._adder_factory()).plan(
            self.taps, lanes=2 * self.filters
        )
        # The count-domain leaf table and the input table it was built
        # against (built lazily: OR and faulted banks never need it).
        self._leaf_table: Optional[np.ndarray] = None
        self._leaf_table_source: Optional[ComparatorTable] = None

    @property
    def tree_scale(self) -> int:
        """Counter scale ``2**depth`` of each per-filter adder tree."""
        return self.plan.tree_scale

    def _lane_weights(self) -> np.ndarray:
        """Weight streams lane-major like the plan: ``(2 * filters, taps, W)``."""
        return self.weight_streams.reshape(
            2 * self.filters, self.taps, self.weight_streams.shape[-1]
        )

    def _masked_weight_bank(self) -> np.ndarray:
        """Weight streams pre-ANDed with their lane's leaf ownership masks.

        Shape ``(2 * filters, taps, W)`` (lane-major like the plan).
        Because the masks of one lane are disjoint across leaves, the lane's
        root count is the sum over taps of ``popcount(input &
        masked_weight)`` -- the MUX count-domain kernel.
        """
        return self._lane_weights() & self.plan.leaf_masks(self.n_bits, packed=True)

    @property
    def _leaf_dtype(self) -> type:
        """Integer dtype of the leaf counts, shared by both leaf sources.

        int16 holds twice the largest count plus one up to ``N = 8192``
        (the TFF halving adds two counts); longer streams use int32.
        """
        return np.int16 if 2 * self.n_bits < np.iinfo(np.int16).max else np.int32

    def _leaf_weights(self) -> np.ndarray:
        """The ``(lanes, taps, W)`` leaf weights: select-masked for MUX trees."""
        if self.plan.supports_count_reduction:
            return self._lane_weights()
        return self._masked_weight_bank()

    def _leaves(self, table: ComparatorTable) -> np.ndarray:
        """The ``(taps, N + 1, lanes)`` leaf-count table for input ``table``.

        Entry ``[t, k, lane]`` is ``popcount(table.streams[k] & w)`` for the
        lane's tap-``t`` leaf weight ``w`` (select-masked for MUX trees).
        """
        if self._leaf_table_source is not table:
            # (lanes, taps, N + 1) prefix counts, stored tap-major.
            prefix = table.prefix_counts(self._leaf_weights(), self._leaf_dtype)
            self._leaf_table = np.ascontiguousarray(prefix.transpose(1, 2, 0))
            self._leaf_table_source = table
        return self._leaf_table

    def _table_leaves(self, x: np.ndarray) -> np.ndarray:
        """Leaf counts ``(..., taps, lanes)`` of fault-free comparator streams.

        Each stream's ones-count ``k`` gathers its row of the leaf table;
        streams that are not comparator outputs of the engine's input
        reference raise ``ValueError``.
        """
        table = self.engine._input_table()
        levels = table.decode(x)
        # Row t * (N + 1) + k of the flattened table is tap t at count k.
        index = levels + np.arange(self.taps) * (self.n_bits + 1)
        return self._leaves(table).reshape(-1, 2 * self.filters)[index]

    def _popcount_leaves(self, x: np.ndarray) -> np.ndarray:
        """Leaf counts ``(..., taps, lanes)`` of arbitrary input streams.

        ``popcount(x & w)`` for every ``(tap, lane)`` leaf weight ``w``,
        accumulated one ``(tap, word)`` pair at a time: each step ANDs one
        word column of the inputs with that word of every lane's weight, so
        the only temporaries are ``(..., lanes)`` and no products tensor is
        built.  This is the leaf source of fault-corrupted streams, which
        are no longer rows of the comparator table.
        """
        leaf_weights = self._leaf_weights()
        lead = x.shape[:-2]
        # Tap-major, so every step adds into one contiguous block.
        leaves = np.zeros((self.taps,) + lead + (2 * self.filters,), self._leaf_dtype)
        columns = np.moveaxis(x, (-2, -1), (0, 1))  # (taps, W, ...)
        product = np.empty(leaves.shape[1:], dtype=np.uint64)
        for t in range(self.taps):
            for j in range(x.shape[-1]):
                np.bitwise_and(
                    columns[t, j][..., np.newaxis], leaf_weights[:, t, j], out=product
                )
                leaves[t] += word_popcount(product)
        return np.moveaxis(leaves, 0, -2)

    def counts(self, prepared: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positive and negative tree counts for prepared input streams.

        ``prepared`` is the output of
        :meth:`StochasticDotProductEngine.prepare_inputs`, shape
        ``(..., taps, W)``; returns ``(positive, negative)`` int64 count
        arrays of shape ``(..., filters)``.

        All-TFF and all-MUX trees reduce in the count domain: the leaf
        counts come from the leaf table (each input stream's ones-count
        ``k`` indexes it) or, while stream faults are active, from
        popcounting ``x & w``; MUX trees sum the leaves (their ownership
        masks are disjoint) and TFF trees halve them with
        :meth:`TreePlan.reduce_counts`.  No stream tensor is built.  Without
        stream faults, inputs that are not comparator outputs of the engine
        raise ``ValueError``.  OR trees reduce the packed streams level by
        level.
        """
        x = np.asarray(prepared)
        if x.ndim < 2 or x.shape[-2] != self.taps:
            raise ValueError(
                f"prepared inputs must have {self.taps} taps on axis -2, "
                f"got shape {x.shape}"
            )
        if self.engine._uses_count_domain(self.plan):
            leaves = (
                self._popcount_leaves(x)
                if self.engine._stream_faults_active
                else self._table_leaves(x)
            )
            if self.plan.supports_count_reduction:
                flat_counts = self.plan.reduce_counts(np.swapaxes(leaves, -1, -2))
            else:
                # Disjoint leaf masks: every partial sum is a root-stream
                # count, so the leaf dtype holds it.
                flat_counts = leaves.sum(axis=-2, dtype=leaves.dtype)
            flat_counts = flat_counts.astype(np.int64)
        else:
            products = x[..., np.newaxis, :, :] & self._lane_weights()
            flat_counts = packed_popcount(self.plan.reduce_packed(products, self.n_bits))
        stacked = flat_counts.reshape(flat_counts.shape[:-1] + (self.filters, 2))
        return stacked[..., 0], stacked[..., 1]

    def __repr__(self) -> str:
        return (
            f"PreparedWeights(filters={self.filters}, taps={self.taps}, "
            f"n_bits={self.n_bits})"
        )


@dataclass
class StochasticDotProductEngine(FaultedEngine):
    """A configurable stochastic dot-product engine.

    Parameters
    ----------
    precision:
        Binary precision in bits; the bit-stream length is ``2**precision``.
    adder:
        ``"tff"`` (this work), ``"mux"`` (conventional) or ``"or"``.
    input_generator:
        ``"ramp"`` -- ramp-compare analog-to-stochastic conversion (this work),
        ``"lfsr"`` -- conventional comparator SNG with an LFSR,
        ``"lowdisc"`` -- comparator SNG with a van der Corput source.
    weight_generator:
        ``"lowdisc"`` (this work) or ``"lfsr"`` (old designs).
    seed:
        Seed for LFSR-based and MUX-select sources.
    faults:
        Optional :class:`~repro.faults.FaultSpec` describing the fault
        environment.  Stream-level faults (flips, stuck-at, bursts) are
        injected into the *input* streams -- by :meth:`dot` /
        :meth:`dot_filters` directly, or by tile drivers calling
        :meth:`apply_faults` with their tile offset.  ``sng_stuck_cells``
        additionally defects the LFSR of LFSR-based input SNGs.  Injection
        is seed-deterministic and bit-identical across tilings and repeated
        calls.

    The adder tree is reduced in the count domain when it is all-TFF or
    all-MUX, with or without stream faults, and as packed streams for OR
    trees; both give the counts the hardware's streams would.
    """

    precision: int = 8
    adder: str = "tff"
    input_generator: str = "ramp"
    weight_generator: str = "lowdisc"
    seed: int = 1
    faults: Optional[FaultSpec] = None
    _mux_seed_counter: int = field(default=0, repr=False)
    # ``(key, ComparatorTable)`` of the input SNG, rebuilt when the key changes.
    _input_table_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if self.adder not in ("tff", "mux", "or"):
            raise ValueError(f"unknown adder {self.adder!r}")
        if self.input_generator not in ("ramp", "lfsr", "lowdisc"):
            raise ValueError(f"unknown input generator {self.input_generator!r}")
        if self.weight_generator not in ("lowdisc", "lfsr"):
            raise ValueError(f"unknown weight generator {self.weight_generator!r}")
        self._check_faults()

    # ------------------------------------------------------------------ #
    # stream generation
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Bit-stream length ``2**precision``."""
        return stream_length(self.precision)

    def input_streams(self, values: np.ndarray) -> np.ndarray:
        """Convert unipolar input values (shape ``(...,)``) to bit arrays ``(..., N)``."""
        values = np.asarray(values, dtype=np.float64)
        if self.input_generator == "ramp":
            return ramp_compare_batch(values, self.length)
        return self._input_sng().generate_bits(values, self.length)

    def input_words(self, values: np.ndarray) -> np.ndarray:
        """Packed variant of :meth:`input_streams`: shape ``(..., ceil(N/64))`` uint64.

        A lookup, not a per-cycle comparison: each value's ones-count
        ``#{ref < p}`` selects a row of the engine's cached
        :class:`~repro.rng.sng.ComparatorTable`, bit-identical to comparing
        against the reference every cycle (values clip to ``[0, 1]``).  NaN
        values raise ``ValueError``.
        """
        return self._input_table().words(values)

    def _input_table(self) -> ComparatorTable:
        """The input SNG's comparator table, cached per reference sequence.

        The reference depends on the generator, precision, seed and the
        stuck LFSR cells of ``faults``; the cache is keyed on all four.
        """
        stuck = self.faults.sng_stuck_cells if self.faults is not None else ()
        key = (self.input_generator, self.precision, self.seed, stuck)
        if self._input_table_cache is None or self._input_table_cache[0] != key:
            if self.input_generator == "ramp":
                source = RampSource(self.precision)
            else:
                source = self._input_sng().source
            table = ComparatorTable(source.sequence(self.length))
            self._input_table_cache = (key, table)
        return self._input_table_cache[1]

    def _input_sng(self) -> ComparatorSNG:
        if self.input_generator == "lfsr":
            stuck = self.faults.sng_stuck_cells if self.faults is not None else ()
            return ComparatorSNG(
                LFSRSource(self.precision, seed=self.seed, stuck_cells=stuck)
            )
        return ComparatorSNG(VanDerCorputSource(self.precision))

    def _weight_sng(self) -> ComparatorSNG:
        if self.weight_generator == "lowdisc":
            return ComparatorSNG(VanDerCorputSource(self.precision))
        return ComparatorSNG(
            LFSRSource(self.precision, seed=(self.seed * 3 + 1) % 255 or 1)
        )

    def weight_streams(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Generate positive and negative weight bit arrays (shape ``w.shape + (N,)``)."""
        w_pos, w_neg = split_weights(weights)
        sng = self._weight_sng()
        return sng.generate_bits(w_pos, self.length), sng.generate_bits(
            w_neg, self.length
        )

    def weight_words(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Packed variant of :meth:`weight_streams` (uint64 words per stream)."""
        w_pos, w_neg = split_weights(weights)
        sng = self._weight_sng()
        return sng.generate_packed(w_pos, self.length), sng.generate_packed(
            w_neg, self.length
        )

    def prepare_inputs(self, values: np.ndarray) -> np.ndarray:
        """Generate the packed input streams: :meth:`input_words`.

        The returned ``(..., taps, W)`` uint64 array is meant to be passed to
        :meth:`dot_prepared` or a :class:`PreparedWeights` bank (possibly
        many times, e.g. once per convolution tile), after
        :meth:`apply_faults` when the engine carries stream faults.
        """
        return self.input_words(values)

    def dot_prepared(
        self, prepared: np.ndarray, weights: np.ndarray
    ) -> DotProductResult:
        """Dot product of :meth:`prepare_inputs` output with one ``(taps,)`` kernel.

        A one-filter :meth:`dot_filters_prepared`: the bank's two tree lanes
        are built in the same positive-then-negative order, so counts (and
        the advance of MUX select seeds) match a column of the filter bank.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError(f"weights must have shape (taps,), got {weights.shape}")
        result = self.dot_filters_prepared(prepared, weights[np.newaxis])
        return DotProductResult(
            positive_count=result.positive_count[..., 0],
            negative_count=result.negative_count[..., 0],
            length=self.length,
            tree_scale=result.tree_scale,
        )

    def prepare_weights(self, weights: np.ndarray) -> PreparedWeights:
        """Generate the filter bank for a whole ``(filters, taps)`` kernel set.

        The returned :class:`PreparedWeights` evaluates every filter's
        positive and negative dot products in one vectorized pass and is
        reusable across input tiles; combined with :meth:`prepare_inputs` it
        gives the counts of a loop of per-filter :meth:`dot_prepared` calls.
        """
        return PreparedWeights(self, weights)

    def dot_filters_prepared(
        self, prepared: np.ndarray, weights: np.ndarray | PreparedWeights
    ) -> DotProductResult:
        """All-filter dot products of prepared inputs: counts shaped ``(..., filters)``.

        ``weights`` is either a raw ``(filters, taps)`` kernel array or an
        existing :class:`PreparedWeights` bank (pass the bank when evaluating
        several input tiles so weight streams and adder nodes are built only
        once).
        """
        bank = (
            weights
            if isinstance(weights, PreparedWeights)
            else self.prepare_weights(weights)
        )
        if bank.engine is not self:
            raise ValueError("prepared weights belong to a different engine")
        pos, neg = bank.counts(prepared)
        return DotProductResult(
            positive_count=pos,
            negative_count=neg,
            length=self.length,
            tree_scale=bank.tree_scale,
        )

    def dot_filters(self, x: np.ndarray, weights: np.ndarray) -> DotProductResult:
        """Filter-parallel :meth:`dot`: ``x`` is ``(..., taps)``, weights
        ``(filters, taps)``; result counts have shape ``(..., filters)``."""
        x = np.asarray(x, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or x.shape[-1] != weights.shape[-1]:
            raise ValueError(
                f"tap count mismatch: inputs have {x.shape[-1]}, "
                f"weights have shape {weights.shape}"
            )
        return self.dot_filters_prepared(
            self.apply_faults(self.prepare_inputs(x)), weights
        )

    def _adder_factory(self) -> Callable[[], object]:
        if self.adder == "tff":
            return TffAdder
        if self.adder == "or":
            return OrAdder

        def make_mux() -> MuxAdder:
            # Give every tree node its own select source so node outputs stay
            # mutually uncorrelated, mirroring independent hardware LFSRs.
            # The counter deliberately advances across dot()/dot_prepared()
            # calls: sequential kernel evaluations on one engine see
            # *continuing* select streams, modelling free-running hardware
            # sources (the bipolar engine, whose ablation needs repeatable
            # single evaluations, resets its counter per call instead).
            self._mux_seed_counter += 1
            return MuxAdder(seed=self.seed * 1000 + self._mux_seed_counter)

        return make_mux

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def dot(self, x: np.ndarray, weights: np.ndarray) -> DotProductResult:
        """Compute ``x . w`` for inputs ``x`` in ``[0, 1]`` and weights in ``[-1, 1]``.

        ``x`` has shape ``(..., k)`` and ``weights`` shape ``(k,)``; the result
        arrays have shape ``(...,)``.
        """
        x = np.asarray(x, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if x.shape[-1] != weights.shape[-1]:
            raise ValueError(
                f"tap count mismatch: inputs have {x.shape[-1]}, "
                f"weights have {weights.shape[-1]}"
            )
        return self.dot_prepared(self.apply_faults(self.prepare_inputs(x)), weights)


def new_sc_engine(
    precision: int,
    seed: int = 1,
    faults: Optional[FaultSpec] = None,
) -> StochasticDotProductEngine:
    """The paper's proposed configuration: TFF adder, ramp input, low-discrepancy weights."""
    return StochasticDotProductEngine(
        precision=precision,
        adder="tff",
        input_generator="ramp",
        weight_generator="lowdisc",
        seed=seed,
        faults=faults,
    )


def old_sc_engine(
    precision: int,
    seed: int = 1,
    faults: Optional[FaultSpec] = None,
) -> StochasticDotProductEngine:
    """The conventional configuration used as the "Old SC" baseline in Table 3.

    MUX adders driven by pseudo-random select streams and LFSR-based SNGs for
    both inputs and weights, matching the Fig. 1 primitives of prior work.
    """
    return StochasticDotProductEngine(
        precision=precision,
        adder="mux",
        input_generator="lfsr",
        weight_generator="lfsr",
        seed=seed,
        faults=faults,
    )
