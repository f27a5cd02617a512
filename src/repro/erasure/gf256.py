"""Arithmetic in GF(2^8) — the base field for Reed-Solomon coding.

The field is realised as polynomials over GF(2) modulo the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d, the conventional choice of
storage RS implementations).  Multiplication uses exp/log tables built once
at import; addition is XOR.

Also provides the small amount of linear algebra Reed-Solomon needs:
Gaussian inversion and (systematic) Vandermonde construction.
"""

from __future__ import annotations

from typing import List

#: The primitive polynomial (degree-8 terms included) defining the field.
PRIMITIVE_POLY = 0x11D

#: Field size.
ORDER = 256


def _build_tables():
    exp = [0] * (2 * ORDER)
    log = [0] * ORDER
    value = 1
    for power in range(ORDER - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    for power in range(ORDER - 1, 2 * ORDER):
        exp[power] = exp[power - (ORDER - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


def add(a: int, b: int) -> int:
    """Field addition (and subtraction): XOR."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Field multiplication via log tables."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def inv(a: int) -> int:
    """Multiplicative inverse.

    Raises:
        ZeroDivisionError: for ``a == 0``.
    """
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[(ORDER - 1) - _LOG[a]]


def power(a: int, exponent: int) -> int:
    """``a`` raised to a non-negative integer power."""
    if exponent == 0:
        return 1
    if a == 0:
        return 0
    return _EXP[(_LOG[a] * exponent) % (ORDER - 1)]


Matrix = List[List[int]]


def identity(size: int) -> Matrix:
    """The size x size identity matrix."""
    return [[1 if row == col else 0 for col in range(size)] for row in range(size)]


def mat_invert(matrix: Matrix) -> Matrix:
    """Gauss-Jordan inversion over GF(256).

    Raises:
        ValueError: if the matrix is singular or not square.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    work = [list(row) + identity_row for row, identity_row in zip(matrix, identity(size))]
    for col in range(size):
        pivot_row = next(
            (row for row in range(col, size) if work[row][col]), None
        )
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_inv = inv(work[col][col])
        work[col] = [mul(pivot_inv, value) for value in work[col]]
        for row in range(size):
            if row == col or not work[row][col]:
                continue
            factor = work[row][col]
            work[row] = [
                value ^ mul(factor, pivot_value)
                for value, pivot_value in zip(work[row], work[col])
            ]
    return [row[size:] for row in work]


def vandermonde(rows: int, cols: int) -> Matrix:
    """The ``rows x cols`` Vandermonde matrix ``V[i][j] = i^j``.

    Any ``cols`` rows are linearly independent as long as ``rows <= 256``.
    """
    if rows > ORDER:
        raise ValueError("at most 256 distinct evaluation points exist")
    return [[power(i, j) for j in range(cols)] for i in range(rows)]


def systematic_generator(data: int, total: int) -> Matrix:
    """A ``total x data`` generator whose top ``data`` rows are the identity.

    Built by column-reducing a Vandermonde matrix (the Jerasure
    construction); every ``data``-row subset remains invertible.
    """
    if data < 1 or total < data:
        raise ValueError("need 1 <= data <= total")
    matrix = vandermonde(total, data)
    # Column operations to turn the top square into the identity.
    for col in range(data):
        pivot = matrix[col][col]
        if pivot == 0:
            swap = next(
                j for j in range(col, data) if matrix[col][j]
            )
            for row in matrix:
                row[col], row[swap] = row[swap], row[col]
            pivot = matrix[col][col]
        pivot_inv = inv(pivot)
        for row in matrix:
            row[col] = mul(row[col], pivot_inv)
        for other in range(data):
            if other == col or not matrix[col][other]:
                continue
            factor = matrix[col][other]
            for row in matrix:
                row[other] ^= mul(factor, row[col])
    return matrix
