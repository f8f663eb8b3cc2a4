"""Stochastic number generators (SNGs).

An SNG converts a binary (or analog) value into a stochastic bit-stream by
comparing it against a number source every clock cycle (Fig. 1c of the
paper).  The accuracy of stochastic arithmetic is dominated by which sources
drive the SNGs and how those sources relate to each other -- that is exactly
what Table 1 of the paper quantifies.  This module provides:

* :class:`ComparatorSNG` -- the generic comparator-based SNG over any
  :class:`~repro.rng.sources.NumberSource`;
* :class:`RampCompareSNG` -- the analog-to-stochastic converter variant used
  for the sensor input;
* :class:`ComparatorTable` -- the table form of a comparator over one fixed
  reference sequence, in which a stream is a lookup by its ones-count;
* :func:`sng_pair` -- a factory for the four input-pair generation schemes
  compared in Table 1, by name.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..bitstream import Bitstream, to_probability
from ..bitstream.packed import pack_comparator_output, packed_popcount, unpack_bits
from .lfsr import ALTERNATE_TAPS, LFSRSource, RotatedLFSRSource
from .lowdiscrepancy import SobolSource, VanDerCorputSource
from .ramp import RampSource
from .sources import NumberSource, PseudoRandomSource

__all__ = [
    "ComparatorSNG",
    "RampCompareSNG",
    "ComparatorTable",
    "sng_pair",
    "TABLE1_SCHEMES",
]


class ComparatorSNG:
    """A comparator-based stochastic number generator.

    Parameters
    ----------
    source:
        The number source feeding the comparator's reference input.
    encoding:
        How input values are interpreted ("unipolar" or "bipolar").  Bipolar
        values are first mapped to their ones-probability.
    """

    def __init__(self, source: NumberSource, encoding: str = "unipolar") -> None:
        self.source = source
        self.encoding = encoding

    def generate(self, value: float, length: int) -> Bitstream:
        """Generate a ``length``-bit stream encoding ``value``."""
        bits = self.generate_bits(np.asarray([value]), length)[0]
        return Bitstream(bits, encoding=self.encoding)

    def generate_bits(self, values: np.ndarray, length: int) -> np.ndarray:
        """Vectorized generation: returns shape ``values.shape + (length,)`` uint8.

        Every value is compared against the *same* source sequence, which
        models a bank of SNGs sharing one number source -- the arrangement
        used for the weight generators in the paper's convolution engine
        (the source cost is amortized across all units).
        """
        p = to_probability(np.asarray(values, dtype=np.float64), self.encoding)
        ref = self.source.sequence(length)
        return (ref < p[..., np.newaxis]).astype(np.uint8)

    def generate_packed(self, values: np.ndarray, length: int) -> np.ndarray:
        """Vectorized generation straight into packed words.

        Returns uint64 words of shape ``values.shape + (ceil(length / 64),)``
        holding exactly the bits :meth:`generate_bits` would produce, packed
        64-per-word (see :mod:`repro.bitstream.packed`).  The comparator
        output is packed chunk by chunk so the transient unpacked bits never
        exceed a few MiB regardless of batch size.
        """
        p = to_probability(np.asarray(values, dtype=np.float64), self.encoding)
        return pack_comparator_output(self.source.sequence(length), p)

    def __repr__(self) -> str:
        return f"ComparatorSNG(source={self.source!r}, encoding={self.encoding!r})"


class RampCompareSNG(ComparatorSNG):
    """The ramp-compare analog-to-stochastic converter (paper Section IV-A).

    Functionally an SNG whose reference input is a ramp rather than a random
    number; the generated stream has exact ones-counts but maximal
    auto-correlation.  ``descending`` selects the falling-ramp variant.
    """

    def __init__(
        self, bits: int, descending: bool = False, encoding: str = "unipolar"
    ) -> None:
        super().__init__(RampSource(bits, descending=descending), encoding=encoding)


class ComparatorTable:
    """Every stream a comparator can emit against one reference sequence.

    A comparator SNG emits ``ref < p`` at every cycle, so its stream is fully
    determined by its ones-count ``k = #{ref < p}``: the ones sit on the
    ``k`` lowest-ranked cycles of the stably sorted reference (tied
    reference values are all below ``p`` or none are, so ``k`` always
    falls on a tie boundary).  The table holds those ``N + 1`` streams, and
    turns stream generation into a ``searchsorted`` plus a row lookup and
    ``popcount(stream & w)`` into a prefix count of ``w`` in reference order
    -- the exact-count property of ramp conversion (paper Sec. IV-A),
    which holds for any reference sequence.

    Parameters
    ----------
    reference:
        The 1-D number-source sequence, one value per clock cycle.
    """

    def __init__(self, reference: np.ndarray) -> None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.ndim != 1:
            raise ValueError(f"reference must be 1-D, got shape {reference.shape}")
        self.length = reference.shape[0]
        #: Cycle indices in ascending reference order (stable for ties).
        self.order = np.argsort(reference, kind="stable")
        #: The reference values in that order, the ``searchsorted`` key.
        self.sorted_reference = reference[self.order]
        ranks = np.empty(self.length, dtype=np.int64)
        ranks[self.order] = np.arange(self.length)
        #: ``(N + 1, W)`` packed words: row ``k`` sets the ``k`` lowest-ranked
        #: cycles, i.e. it is the stream of every value with ones-count ``k``.
        self.streams = pack_comparator_output(ranks, np.arange(self.length + 1))

    def levels(self, values: np.ndarray) -> np.ndarray:
        """Ones-counts ``#{ref < p}`` of unipolar ``values`` (clipped to ``[0, 1]``).

        NaN has no comparator output (``ref < NaN`` is false at every cycle,
        while a sorted lookup would place it above every reference value),
        so it raises ``ValueError``.
        """
        values = np.asarray(values, dtype=np.float64)
        if np.isnan(values).any():
            raise ValueError("comparator inputs must not be NaN")
        return np.searchsorted(
            self.sorted_reference, np.clip(values, 0.0, 1.0), side="left"
        )

    def words(self, values: np.ndarray) -> np.ndarray:
        """Packed streams ``ref < p``: shape ``values.shape + (W,)`` uint64."""
        return self.streams[self.levels(values)]

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Ones-counts ``k`` of packed comparator streams, shape ``words.shape[:-1]``.

        The inverse of :meth:`words`.  Raises ``ValueError`` unless every
        stream is exactly row ``k`` of the table, i.e. a fault-free output
        of this comparator.
        """
        words = np.asarray(words)
        if words.shape[-1:] != self.streams.shape[-1:]:
            raise ValueError(
                f"expected {self.streams.shape[-1]} words per stream, "
                f"got shape {words.shape}"
            )
        levels = packed_popcount(words)
        if not np.array_equal(self.streams[levels], words):
            raise ValueError(
                "streams are not comparator outputs of this reference; "
                "reduce them as streams instead"
            )
        return levels

    def prefix_counts(self, words: np.ndarray, dtype=np.int64) -> np.ndarray:
        """``popcount(streams[k] & w)`` for every ``k``: shape ``words.shape[:-1] + (N + 1,)``.

        A cumulative sum of the bits of ``w`` taken in reference order; the
        caller picks a ``dtype`` that holds ``N``.
        """
        bits = unpack_bits(words, self.length)[..., self.order]
        out = np.zeros(bits.shape[:-1] + (self.length + 1,), dtype=dtype)
        np.cumsum(bits, axis=-1, dtype=dtype, out=out[..., 1:])
        return out

    def __repr__(self) -> str:
        return f"ComparatorTable(length={self.length})"


#: Names of the four number-generation schemes evaluated in Table 1, mapped to
#: a short description.  Use with :func:`sng_pair`.
TABLE1_SCHEMES = {
    "shared_lfsr": "One LFSR + shifted version",
    "two_lfsrs": "Two LFSRs",
    "low_discrepancy": "Low-discrepancy sequences [4]",
    "ramp_low_discrepancy": "Ramp-compare [13] + [4]",
}


def sng_pair(
    scheme: str, precision: int, seed: int = 1
) -> Tuple[ComparatorSNG, ComparatorSNG]:
    """Return the pair of SNGs implementing one Table 1 scheme.

    Parameters
    ----------
    scheme:
        One of the keys of :data:`TABLE1_SCHEMES`.
    precision:
        Binary precision in bits; the generated streams have length
        ``2**precision``.
    seed:
        Seed for the LFSR-based schemes (any non-zero register value).

    Returns
    -------
    (sng_x, sng_y):
        The generators for the first and second multiplier input.
    """
    if scheme == "shared_lfsr":
        base = LFSRSource(precision, seed=seed)
        # The "shifted version" is the same register read through rotated
        # wires: zero extra hardware, but the two streams stay correlated.
        return ComparatorSNG(base), ComparatorSNG(RotatedLFSRSource(base, rotation=1))
    if scheme == "two_lfsrs":
        first = LFSRSource(precision, seed=seed)
        period = (1 << precision) - 1
        second_seed = (4 * seed) % period or 1
        taps = ALTERNATE_TAPS.get(precision)
        second = LFSRSource(precision, seed=second_seed, taps=taps)
        return ComparatorSNG(first), ComparatorSNG(second)
    if scheme == "low_discrepancy":
        return (
            ComparatorSNG(VanDerCorputSource(precision)),
            ComparatorSNG(SobolSource(precision, dimension=1)),
        )
    if scheme == "ramp_low_discrepancy":
        return (
            RampCompareSNG(precision),
            ComparatorSNG(SobolSource(precision, dimension=1)),
        )
    if scheme == "random":
        # Not part of Table 1 but used by Table 2's "Random + ..." adder rows.
        return (
            ComparatorSNG(PseudoRandomSource(seed=seed)),
            ComparatorSNG(PseudoRandomSource(seed=seed + 1)),
        )
    raise ValueError(
        f"unknown scheme {scheme!r}; expected one of {sorted(TABLE1_SCHEMES)} or 'random'"
    )
