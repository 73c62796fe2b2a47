"""The refusal matrix of the one bit check, ``keyfile.bit_array``.

Bit sources, key files and BASES frames must each refuse every entry of
``REFUSED`` with their own error and take every entry of ``TAKEN`` as the
bits 1, 0, 1. A cast before the check would wrap 256 to 0 and -255 to 1,
cut 0.5 to 0, warn on NaN and raise ValueError on text.
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
