"""Erasure codes — consumers of position-aware placement.

The paper's strategies always identify the i-th of k copies, enabling the
redundancy techniques it cites beyond plain mirroring: Reed-Solomon codes
and Row-Diagonal Parity [3].  One MDS code and one XOR array code are
implemented here behind one :class:`~repro.erasure.base.ErasureCode`
interface, so the cluster layer can swap them freely.
"""

from .base import ErasureCode, pad_block
from .mirror import MirrorCode
from .rdp import RowDiagonalParityCode
from .reed_solomon import ReedSolomonCode

__all__ = [
    "ErasureCode",
    "MirrorCode",
    "ReedSolomonCode",
    "RowDiagonalParityCode",
    "pad_block",
]
