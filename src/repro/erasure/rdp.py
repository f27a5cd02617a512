"""RDP — Row-Diagonal Parity (Corbett et al., FAST 2004).

Reference [3] of the paper.  For a prime ``p``, a block is arranged into a
``(p-1) x (p-1)`` data cell array; two parity columns are added:

* column ``p-1``: plain row parity over the data columns;
* column ``p``: diagonal parity, where diagonals run over the data *and*
  the row-parity column (``i + j ≡ d (mod p)`` for ``j in 0..p-1``), and
  the diagonal ``d = p-1`` is deliberately left unprotected.

Reconstruction is *peeling*: every row and diagonal is an XOR equation
over cells; repeatedly find an equation with exactly one unknown cell and
solve it.  Because the diagonals cover the row-parity column and ``p`` is
prime, the diagonals form one zig-zag chain through any two erased
columns, so peeling always completes within the code's tolerance of 2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..exceptions import DecodingError
from .base import ErasureCode, pad_block

Cell = Tuple[int, int]  # (row, column)


def _xor_many(parts: Iterable[bytes], size: int) -> bytes:
    """XOR equal-length byte strings (no parts -> zeros)."""
    total = bytearray(size)
    for part in parts:
        if len(part) != size:
            raise ValueError("xor operands must have equal length")
        for index, value in enumerate(part):
            total[index] ^= value
    return bytes(total)


def _is_prime(value: int) -> bool:
    if value < 2:
        return False
    return all(value % divisor for divisor in range(2, int(value**0.5) + 1))


def _split_cells(payload: bytes, rows: int) -> List[bytes]:
    """Split a column payload into ``rows`` equal cells."""
    if len(payload) % rows:
        raise ValueError("column payload not divisible into rows")
    size = len(payload) // rows
    return [payload[index * size : (index + 1) * size] for index in range(rows)]


class _Equation:
    """One XOR constraint: ``xor(unknown cells) == value``."""

    __slots__ = ("unknowns", "value")

    def __init__(self, unknowns: Set[Cell], value: bytes) -> None:
        self.unknowns = unknowns
        self.value = value

    def absorb(self, cell: Cell, payload: bytes) -> None:
        """Substitute a solved cell into the equation."""
        self.unknowns.discard(cell)
        self.value = _xor_many((self.value, payload), len(payload))


def _peel(equations: Sequence[_Equation], unknowns: Set[Cell]) -> Dict[Cell, bytes]:
    """Solve the system by iterated single-unknown substitution.

    Raises:
        DecodingError: if peeling stalls (more erasures than the code
            tolerates).
    """
    solved: Dict[Cell, bytes] = {}
    progress = True
    while unknowns and progress:
        progress = False
        for equation in equations:
            live = equation.unknowns & unknowns
            if len(live) != 1:
                continue
            cell = next(iter(live))
            # Fold any already-solved cells of this equation first.
            for other in list(equation.unknowns):
                if other in solved:
                    equation.absorb(other, solved[other])
            payload = solved[cell] = equation.value
            unknowns.discard(cell)
            for other_equation in equations:
                if cell in other_equation.unknowns:
                    other_equation.absorb(cell, payload)
            progress = True
    if unknowns:
        raise DecodingError(
            f"rdp: erasure pattern outside the code's tolerance "
            f"({len(unknowns)} cells unresolved)"
        )
    return solved


class RowDiagonalParityCode(ErasureCode):
    """RDP(p): p-1 data shares + 2 parity shares, tolerance 2."""

    name = "rdp"

    def __init__(self, prime: int = 5) -> None:
        """Build the code.

        Args:
            prime: The array parameter ``p``; must be a prime >= 3.  The
                code produces ``p + 1`` shares per block.
        """
        if not _is_prime(prime) or prime < 3:
            raise ValueError(f"RDP needs a prime p >= 3, got {prime}")
        self._p = prime

    @property
    def prime(self) -> int:
        """The array parameter ``p``."""
        return self._p

    @property
    def total_shares(self) -> int:
        """Shares produced per block."""
        return self._p + 1

    @property
    def data_shares(self) -> int:
        """Minimum shares needed to reconstruct."""
        return self._p - 1

    def encode(self, block: bytes) -> List[bytes]:
        p = self._p
        data_columns = p - 1
        padded = pad_block(block, data_columns * (p - 1))
        column_bytes = len(padded) // data_columns
        size = column_bytes // (p - 1)
        columns = [
            _split_cells(
                padded[j * column_bytes : (j + 1) * column_bytes], p - 1
            )
            for j in range(data_columns)
        ]
        row_parity = [
            _xor_many((columns[j][i] for j in range(data_columns)), size)
            for i in range(p - 1)
        ]
        extended = columns + [row_parity]  # columns 0..p-1 incl. row parity
        diag_parity = []
        for diagonal in range(p - 1):
            parts = []
            for j in range(p):
                i = (diagonal - j) % p
                if i <= p - 2:
                    parts.append(extended[j][i])
            diag_parity.append(_xor_many(parts, size))
        shares = [b"".join(column) for column in columns]
        shares.append(b"".join(row_parity))
        shares.append(b"".join(diag_parity))
        return shares

    def decode(self, shares: Dict[int, bytes]) -> bytes:
        self.check_enough(shares)
        p = self._p
        data_columns = p - 1
        missing = [pos for pos in range(self.total_shares) if pos not in shares]
        if not any(position < data_columns for position in missing):
            return b"".join(shares[j] for j in range(data_columns))
        if len(missing) > 2:
            raise DecodingError(f"rdp tolerates 2 erasures, got {len(missing)}")

        size = len(next(iter(shares.values()))) // (p - 1)
        known: Dict[Cell, bytes] = {}
        for position, payload in shares.items():
            for i, cell in enumerate(_split_cells(payload, p - 1)):
                known[(i, position)] = cell

        missing_set = set(missing)
        # Unknown cells: erased columns among 0..p-1 (data + row parity).
        unknowns: Set[Cell] = {
            (i, j)
            for j in missing_set
            if j <= p - 1
            for i in range(p - 1)
        }

        equations: List[_Equation] = []
        # Row equations need the row-parity cell or treat it as unknown too.
        for i in range(p - 1):
            unknown: Set[Cell] = set()
            parts = []
            for j in range(p):  # data columns + row parity column
                if j in missing_set:
                    unknown.add((i, j))
                else:
                    parts.append(known[(i, j)])
            equations.append(_Equation(unknown, _xor_many(parts, size)))
        # Diagonal equations (diagonal p-1 is unprotected by design).
        if p not in missing_set:
            for diagonal in range(p - 1):
                unknown = set()
                parts = [known[(diagonal, p)]]
                for j in range(p):
                    i = (diagonal - j) % p
                    if i > p - 2:
                        continue
                    if j in missing_set:
                        unknown.add((i, j))
                    else:
                        parts.append(known[(i, j)])
                equations.append(_Equation(unknown, _xor_many(parts, size)))

        known.update(_peel(equations, unknowns))
        return b"".join(
            b"".join(known[(i, j)] for i in range(p - 1))
            for j in range(data_columns)
        )
