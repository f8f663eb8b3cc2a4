"""Bit-stream representations and value encodings for stochastic computing.

Every simulator (the dot-product engines, the netlist simulator, the Table
1/2 sweeps) runs on packed streams: 64 clock cycles per ``uint64`` word,
with the word kernels of :mod:`repro.bitstream.packed`.  The element-level
:class:`Bitstream` class keeps one byte per bit for hand-built streams and
the primitive tour; it converts losslessly to and from
:class:`~repro.bitstream.packed.PackedBitstream` via ``Bitstream.pack()`` /
``PackedBitstream.unpack()``.
"""

from .bitstream import Bitstream
from .correlation import (
    autocorrelation,
    overlap_count,
    pearson_correlation,
    stochastic_cross_correlation,
)
from .packed import (
    WORD_BITS,
    PackedBitstream,
    mask_tail,
    pack_bits,
    pack_comparator_output,
    packed_alternating,
    packed_delay,
    packed_mux,
    packed_mux_add,
    packed_not,
    packed_or_add,
    packed_popcount,
    packed_tff_add,
    packed_toggle_states,
    packed_transition_count,
    packed_xnor,
    unpack_bits,
    words_for,
)
from .encoding import (
    BIPOLAR,
    UNIPOLAR,
    bipolar_to_unipolar,
    clip_bipolar,
    clip_unipolar,
    from_probability,
    precision_bits,
    quantization_grid,
    quantize_bipolar,
    quantize_unipolar,
    stream_length,
    to_probability,
    unipolar_to_bipolar,
)

__all__ = [
    "Bitstream",
    "PackedBitstream",
    "WORD_BITS",
    "words_for",
    "pack_bits",
    "pack_comparator_output",
    "unpack_bits",
    "mask_tail",
    "packed_popcount",
    "packed_not",
    "packed_xnor",
    "packed_mux",
    "packed_alternating",
    "packed_delay",
    "packed_transition_count",
    "packed_tff_add",
    "packed_or_add",
    "packed_mux_add",
    "packed_toggle_states",
    "UNIPOLAR",
    "BIPOLAR",
    "stream_length",
    "precision_bits",
    "clip_unipolar",
    "clip_bipolar",
    "unipolar_to_bipolar",
    "bipolar_to_unipolar",
    "quantize_unipolar",
    "quantize_bipolar",
    "quantization_grid",
    "to_probability",
    "from_probability",
    "stochastic_cross_correlation",
    "pearson_correlation",
    "autocorrelation",
    "overlap_count",
]
