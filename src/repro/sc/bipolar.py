"""The bipolar stochastic dot product -- the design alternative the paper rejects.

Section IV-B explains why the hybrid design does *not* use bipolar stochastic
arithmetic even though the weights are signed: in the bipolar encoding the
sign-activation decision point maps to bit-streams of unipolar density 0.5,
which is exactly where stochastic fluctuation (and switching activity) is
maximal, so accuracy and power both suffer.  The paper's solution is the
positive/negative weight split implemented by
:class:`~repro.sc.dotproduct.StochasticDotProductEngine`.

This module implements the rejected alternative so the claim can be measured:
:class:`BipolarDotProductEngine` evaluates ``x . w`` with XNOR multipliers and
a scaled adder tree entirely in the bipolar domain.  The ablation benchmark
``benchmarks/test_ablation_bipolar.py`` compares the two designs' accuracy
near the decision point.

Like the unipolar engine, the bipolar engine simulates packed streams (64
stream bits per uint64 word, word-level XNOR / adder-tree kernels).  It
honours the engine ``mode`` (:mod:`repro.sc.mode`): in count mode (the
default, exact for both its adder types) the XNOR products are popcounted
once and the tree is reduced in the count domain -- integer
``floor((cx + cy) / 2)`` halving for TFF trees, with odd tap counts padded
by the exact alternating-stream count ``N / 2``; cached select masks for MUX
trees -- never materializing an adder-tree stream tensor, bit-identically to
stream mode.

Sign-tie contract
-----------------
The bipolar sign activation is a hardware comparator against the mid-scale
count ``N / 2`` and emits only +-1: the exact tie ``2 * count == length``
resolves to **+1** (the comparator's "not below the decision point" side).
This deliberately differs from the paper's split-weight unipolar design,
whose sign activation compares *two* counters and reports **0** when they
are exactly equal (see :func:`repro.sc.elements.converters.sign_from_counts`
and :class:`repro.sc.convolution.StochasticConv2D`): there a tie is a
representable "exactly zero" output, while a single mid-scale counter has no
zero code.  Both behaviours are pinned by regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..bitstream import bipolar_to_unipolar, stream_length
from ..bitstream.packed import packed_alternating, packed_popcount, packed_xnor
from ..faults.spec import FaultSpec
from ..rng import ComparatorSNG, SobolSource, VanDerCorputSource
from .elements.adders import AdderTree, MuxAdder, TffAdder, TreePlan
from .mode import resolve_mode

__all__ = ["BipolarDotProductResult", "BipolarDotProductEngine"]


@dataclass
class BipolarDotProductResult:
    """Outputs of one batch of bipolar stochastic dot products."""

    #: Ones-count of the adder-tree output stream.
    count: np.ndarray
    #: Stream length used.
    length: int
    #: Scale factor 2**depth of the adder tree.
    tree_scale: int

    @property
    def value(self) -> np.ndarray:
        """The reconstructed dot-product value ``x . w``."""
        bipolar = 2.0 * self.count.astype(np.float64) / self.length - 1.0
        return bipolar * self.tree_scale

    @property
    def sign(self) -> np.ndarray:
        """Sign activation: compare the counter against the mid-scale N/2.

        A hardware sign activation emits only +-1; the exact tie
        ``2 * count == length`` (counter at mid-scale) resolves to +1, the
        comparator's "not below the decision point" side.  This is
        intentionally asymmetric with the split-weight unipolar design,
        which compares two counters and emits 0 on an exact tie (see the
        module docstring's sign-tie contract).
        """
        count2 = self.count.astype(np.int64) * 2
        return np.where(count2 >= self.length, 1, -1).astype(np.int8)


@dataclass
class BipolarDotProductEngine:
    """Fully bipolar stochastic dot-product engine (XNOR multipliers).

    Parameters
    ----------
    precision:
        Binary precision in bits (stream length ``2**precision``).
    adder:
        ``"tff"`` or ``"mux"`` scaled adders for the reduction tree.
    seed:
        Seed for LFSR/MUX-select sources.
    mode:
        ``"counts"`` reduces the adder tree in the count domain (exact for
        both supported adders -- see the module docstring), ``"streams"``
        forces the reference stream reduction, ``"auto"`` picks counts.
        Bit-identical counter values either way.  ``None`` (the default)
        resolves to the ``REPRO_MODE`` environment variable, falling back to
        ``"auto"`` (see :func:`repro.sc.dotproduct.resolve_mode`).
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  Stream-level faults are
        injected into the input streams (by :meth:`dot` at offset 0, or by
        tile drivers via :meth:`apply_faults`) and force the stream-domain
        evaluation -- ``mode="auto"`` resolves to streams while faults are
        active, and an explicit ``mode="counts"`` raises, exactly like the
        unipolar engine.
    """

    precision: int = 8
    adder: str = "tff"
    seed: int = 1
    mode: Optional[str] = None
    faults: Optional[FaultSpec] = None
    _mux_seed_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if self.adder not in ("tff", "mux"):
            raise ValueError(f"unknown adder {self.adder!r}")
        self.mode = resolve_mode(self.mode)
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(
                f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
            )
        if self.mode == "counts" and self._stream_faults_active:
            raise ValueError(
                "mode='counts' is invalid under stream-level fault injection: "
                "the count-domain shortcuts assume uncorrupted tree inputs -- "
                "use mode='streams' (or 'auto', which resolves to streams "
                "while faults are active)"
            )

    @property
    def _stream_faults_active(self) -> bool:
        """Whether the engine must inject fault masks into input streams."""
        return self.faults is not None and self.faults.corrupts_streams

    @property
    def _use_count_mode(self) -> bool:
        # Both supported adders (TFF, MUX) have exact count-domain
        # evaluations, so only an explicit "streams" -- or active stream
        # faults, which invalidate the count-domain algebra -- forces
        # stream tensors.
        return self.mode != "streams" and not self._stream_faults_active

    def apply_faults(self, prepared: np.ndarray, offset: int = 0) -> np.ndarray:
        """Inject the engine's stream faults into :meth:`prepare_inputs` output.

        Mirrors :meth:`StochasticDotProductEngine.apply_faults`: ``offset``
        is the global index of the first stream in ``prepared`` (tile
        drivers pass their tile start), and the injection is a no-op when no
        stream fault channel is active.
        """
        if not self._stream_faults_active:
            return prepared
        return self.faults.plan().apply(prepared, self.length, offset=offset)

    @property
    def length(self) -> int:
        """Bit-stream length ``2**precision``."""
        return stream_length(self.precision)

    def _adder_factory(self) -> Callable[[], object]:
        if self.adder == "tff":
            return TffAdder

        def make_mux() -> MuxAdder:
            self._mux_seed_counter += 1
            return MuxAdder(seed=self.seed * 777 + self._mux_seed_counter)

        return make_mux

    # ------------------------------------------------------------------ #
    # stream generation
    # ------------------------------------------------------------------ #
    def _input_sng(self) -> ComparatorSNG:
        return ComparatorSNG(VanDerCorputSource(self.precision))

    def _weight_sng(self) -> ComparatorSNG:
        return ComparatorSNG(SobolSource(self.precision, dimension=1))

    def _input_probabilities(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if np.any(np.abs(values) > 1.0 + 1e-9):
            # Raise exactly like the weight side: silently clipping here
            # used to mask calibration errors upstream (values far outside
            # the bipolar range would quietly saturate to +-1).
            raise ValueError("bipolar inputs must lie in [-1, 1]")
        return bipolar_to_unipolar(np.clip(values, -1.0, 1.0))

    def _weight_probabilities(self, weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(np.abs(weights) > 1.0 + 1e-9):
            raise ValueError("weights must lie in [-1, 1]")
        return bipolar_to_unipolar(weights)

    def input_streams(self, values: np.ndarray) -> np.ndarray:
        """Encode inputs (in ``[-1, 1]``; image pixels use ``[0, 1]``) as bipolar streams."""
        return self._input_sng().generate_bits(
            self._input_probabilities(values), self.length
        )

    def input_words(self, values: np.ndarray) -> np.ndarray:
        """Packed variant of :meth:`input_streams`: ``(..., ceil(N/64))`` uint64 words."""
        return self._input_sng().generate_packed(
            self._input_probabilities(values), self.length
        )

    def weight_streams(self, weights: np.ndarray) -> np.ndarray:
        """Encode signed weights as bipolar streams (one stream per tap)."""
        return self._weight_sng().generate_bits(
            self._weight_probabilities(weights), self.length
        )

    def weight_words(self, weights: np.ndarray) -> np.ndarray:
        """Packed variant of :meth:`weight_streams` (uint64 words per stream)."""
        return self._weight_sng().generate_packed(
            self._weight_probabilities(weights), self.length
        )

    # ------------------------------------------------------------------ #
    # computation
    # ------------------------------------------------------------------ #
    def prepare_inputs(self, values: np.ndarray) -> np.ndarray:
        """Generate the packed input streams: :meth:`input_words`.

        Mirrors :meth:`StochasticDotProductEngine.prepare_inputs`: the
        returned ``(..., taps, W)`` uint64 array is meant to be passed to
        :meth:`dot_prepared`, possibly several times.
        """
        return self.input_words(values)

    def dot(self, x: np.ndarray, weights: np.ndarray) -> BipolarDotProductResult:
        """Compute ``x . w`` for inputs ``x`` (shape ``(..., k)``) and weights ``(k,)``.

        Every call re-seeds the per-node MUX select sources from scratch, so
        repeated ``dot()`` invocations on one engine are deterministic:
        identical inputs always produce identical counts.
        """
        x = np.asarray(x, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if x.shape[-1] != weights.shape[-1]:
            raise ValueError(
                f"tap count mismatch: inputs have {x.shape[-1]}, "
                f"weights have {weights.shape[-1]}"
            )
        return self.dot_prepared(self.apply_faults(self.prepare_inputs(x)), weights)

    def dot_prepared(
        self, prepared: np.ndarray, weights: np.ndarray
    ) -> BipolarDotProductResult:
        """Dot product of :meth:`prepare_inputs` output with fresh weight streams."""
        # Reset the MUX seed counter so every evaluation instantiates the
        # same select sources (node i always gets seed 777*seed + i + 1).
        self._mux_seed_counter = 0
        w_words = self.weight_words(np.asarray(weights, dtype=np.float64))
        products = packed_xnor(prepared, w_words, self.length)
        taps = products.shape[-2]
        depth = AdderTree().depth(taps)
        padded_taps = 1 << depth

        if self._use_count_mode and self.adder == "tff":
            # Exact count shortcut: popcount the XNOR products once and
            # halve integer counts level by level.  Odd tap counts are
            # padded with the *count* of the alternating bipolar-zero pad
            # stream -- exactly N/2 ones -- instead of the stream itself.
            counts = self._tff_tree_counts(
                packed_popcount(products), depth, padded_taps
            )
            return BipolarDotProductResult(
                count=counts, length=self.length, tree_scale=1 << depth
            )

        # Pad the tap axis to a power of two with bipolar-zero (density 0.5)
        # streams: an all-zeros pad would encode -1 and bias the sum.
        if padded_taps != taps:
            pad = np.broadcast_to(
                packed_alternating(self.length),
                products.shape[:-2] + (padded_taps - taps, products.shape[-1]),
            )
            products = np.concatenate([products, pad], axis=-2)

        plan = AdderTree(self._adder_factory()).plan(padded_taps)
        if self._use_count_mode:
            counts = plan.masked_counts_packed(products, self.length)
        else:
            counts = packed_popcount(plan.reduce_packed(products, self.length))
        return BipolarDotProductResult(
            count=counts, length=self.length, tree_scale=1 << depth
        )

    def _tff_tree_counts(
        self, leaf_counts: np.ndarray, depth: int, padded_taps: int
    ) -> np.ndarray:
        """Count-domain all-TFF reduction with exact bipolar-zero padding.

        ``leaf_counts`` holds the per-tap XNOR product ones-counts
        ``(..., taps)``.  Missing leaves up to ``padded_taps`` contribute
        exactly ``N / 2`` ones each (the alternating 0101... pad stream has
        one 1 per bit pair and ``N = 2**precision`` is even), so the padded
        integer reduction is bit-identical to reducing the padded streams.
        """
        taps = leaf_counts.shape[-1]
        if padded_taps != taps:
            padded = np.full(
                leaf_counts.shape[:-1] + (padded_taps,),
                self.length // 2,
                dtype=np.int64,
            )
            padded[..., :taps] = leaf_counts
            leaf_counts = padded
        plan = TreePlan(TffAdder, padded_taps)
        return plan.reduce_counts(leaf_counts)
