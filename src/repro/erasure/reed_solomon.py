"""Systematic Reed-Solomon coding over GF(256).

The general-purpose MDS code the paper names as a mirroring alternative:
``data`` payload shares plus ``parity`` coded shares; *any* ``data``
survivors reconstruct the block (tolerance = ``parity``).

The generator matrix is a column-reduced Vandermonde matrix (top square =
identity), so encoding leaves the data shares verbatim — the usual choice
for storage systems, where the common case reads data shares directly.
Decoding inverts the surviving rows of the generator.
"""

from __future__ import annotations

from typing import Dict, List

from ..exceptions import DecodingError
from . import gf256
from .base import ErasureCode, pad_block


class ReedSolomonCode(ErasureCode):
    """RS(data + parity) with byte-interleaved shares."""

    name = "reed-solomon"

    def __init__(self, data: int, parity: int) -> None:
        """Build the code.

        Args:
            data: Number of data shares (``>= 1``).
            parity: Number of parity shares (``>= 0``); ``data + parity``
                must not exceed 256 (the field size).
        """
        if data < 1 or parity < 0:
            raise ValueError("need data >= 1 and parity >= 0")
        if data + parity > gf256.ORDER:
            raise ValueError("data + parity must be <= 256")
        self._data = data
        self._parity = parity
        self._generator = gf256.systematic_generator(data, data + parity)

    @property
    def total_shares(self) -> int:
        """Shares produced per block."""
        return self._data + self._parity

    @property
    def data_shares(self) -> int:
        """Minimum shares needed to reconstruct."""
        return self._data

    def encode(self, block: bytes) -> List[bytes]:
        padded = pad_block(block, self._data)
        stripe = len(padded) // self._data
        columns = [
            padded[index * stripe : (index + 1) * stripe]
            for index in range(self._data)
        ]
        shares = [bytearray(column) for column in columns]
        for parity_row in self._generator[self._data :]:
            share = bytearray(stripe)
            for coefficient, column in zip(parity_row, columns):
                if coefficient == 0:
                    continue
                for offset in range(stripe):
                    byte = column[offset]
                    if byte:
                        share[offset] ^= gf256.mul(coefficient, byte)
            shares.append(share)
        return [bytes(share) for share in shares]

    def decode(self, shares: Dict[int, bytes]) -> bytes:
        self.check_enough(shares)
        lengths = {len(payload) for payload in shares.values()}
        if len(lengths) != 1:
            raise DecodingError("reed-solomon shares have differing lengths")
        stripe = lengths.pop()

        positions = sorted(shares)[: self._data]
        if all(position < self._data for position in positions) and positions == list(
            range(self._data)
        ):
            # Fast path: all data shares survived; concatenate.
            return b"".join(shares[index] for index in range(self._data))

        matrix = [list(self._generator[position]) for position in positions]
        try:
            inverse = gf256.mat_invert(matrix)
        except ValueError as error:  # pragma: no cover - MDS guarantees this
            raise DecodingError(f"unexpected singular decode matrix: {error}")
        survivors = [shares[position] for position in positions]
        columns = [bytearray(stripe) for _ in range(self._data)]
        for row_index, row in enumerate(inverse):
            column = columns[row_index]
            for coefficient, survivor in zip(row, survivors):
                if coefficient == 0:
                    continue
                for offset in range(stripe):
                    byte = survivor[offset]
                    if byte:
                        column[offset] ^= gf256.mul(coefficient, byte)
        return b"".join(bytes(column) for column in columns)
