"""The refusal matrix of the one bit check, ``keyfile.bit_array``.

Bit sources, key files and BASES frames must each refuse every entry of
``REFUSED`` with their own error and take every entry of ``TAKEN`` as the
bits 1, 0, 1. A cast before the check would wrap 256 to 0 and -255 to 1,
cut 0.5 to 0, warn on NaN and raise ValueError on text.

DISCLOSE items given as plain (index, bit) pairs pass the same check on
their bits, and the index check on their indices, before they become
records: each entry of ``DISCLOSE_REFUSED`` must be refused, where a cast
into the record would take 0.5 as bit 0, 1.7 as bit 1 and 5.9 as index 5.
"""

import numpy as np

REFUSED = {
    "256": [256, 1, 0],
    "-255": [-255, 1],
    "fraction": [0.5, 1.0],
    "nan": [float("nan"), 1.0],
    "text": ["a", "b"],
    "2-D": [[0, 1], [1, 0]],
    "column": np.ones((3, 1), np.uint8),
    "scalar": 1,
}

TAKEN = [
    [1, 0, 1],
    np.array([True, False, True]),
    np.array([1, 0, 1], np.int64),
    np.array([1, 0, 1], np.uint8),
]

DISCLOSE_REFUSED = {
    "bit 0.5": [(5, 0.5)],
    "bit 1.7": [(5, 1.7)],
    "index 5.9": [(5.9, 1)],
}
