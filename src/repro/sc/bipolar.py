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
stream bits per uint64 word, word-level XNOR / adder-tree kernels) and
reduces its adder tree in the count domain, with or without stream faults
-- integer ``floor((cx + cy) / 2)`` halving of the popcounted XNOR products
for TFF trees, with odd tap counts padded by the exact alternating-stream
count ``N / 2``; cached select masks for MUX trees -- never materializing an
adder-tree stream tensor.

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
from ..faults.spec import FaultedEngine, FaultSpec
from ..rng import ComparatorSNG, SobolSource, VanDerCorputSource
from .elements.adders import AdderTree, MuxAdder, TffAdder

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
class BipolarDotProductEngine(FaultedEngine):
    """Fully bipolar stochastic dot-product engine (XNOR multipliers).

    Parameters
    ----------
    precision:
        Binary precision in bits (stream length ``2**precision``).
    adder:
        ``"tff"`` or ``"mux"`` scaled adders for the reduction tree.
    seed:
        Seed for LFSR/MUX-select sources.
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  Stream-level faults are
        injected into the input streams (by :meth:`dot` at offset 0, or by
        tile drivers via :meth:`apply_faults`); the count-domain reduction
        popcounts the corrupted XNOR products like clean ones.
    """

    precision: int = 8
    adder: str = "tff"
    seed: int = 1
    faults: Optional[FaultSpec] = None
    _mux_seed_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.precision < 2:
            raise ValueError("precision must be at least 2 bits")
        if self.adder not in ("tff", "mux"):
            raise ValueError(f"unknown adder {self.adder!r}")
        self._check_faults()

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
        plan = AdderTree(self._adder_factory()).plan(1 << depth)
        pad_taps = plan.count - taps

        if plan.supports_count_reduction:
            # TFF trees halve integer leaf counts.  Each missing leaf is the
            # alternating bipolar-zero pad stream, which holds exactly N / 2
            # ones (N = 2**precision is even), so its count stands in for it.
            leaf_counts = packed_popcount(products)
            if pad_taps:
                pad = np.full(
                    leaf_counts.shape[:-1] + (pad_taps,), self.length // 2, dtype=np.int64
                )
                leaf_counts = np.concatenate([leaf_counts, pad], axis=-1)
            counts = plan.reduce_counts(leaf_counts)
        else:
            # MUX trees: pad the tap axis to a power of two with bipolar-zero
            # (density 0.5) streams -- an all-zeros pad would encode -1 and
            # bias the sum -- and popcount the select-masked leaves.
            if pad_taps:
                pad = np.broadcast_to(
                    packed_alternating(self.length),
                    products.shape[:-2] + (pad_taps, products.shape[-1]),
                )
                products = np.concatenate([products, pad], axis=-2)
            counts = plan.masked_counts_packed(products, self.length)
        return BipolarDotProductResult(
            count=counts, length=self.length, tree_scale=1 << depth
        )
