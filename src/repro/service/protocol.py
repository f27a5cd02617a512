"""Length-prefixed wire protocol for the placement service: two frame kinds.

Every frame is a 4-byte big-endian length and a body of exactly that many
bytes; the body's first byte tells the two kinds apart.

A **JSON frame** carries any JSON value (servers additionally require a
dict envelope, but the codec itself is payload-agnostic)::

    +----------------+----------------------------------------+
    | 4-byte big-    | UTF-8 JSON body, exactly ``length``    |
    | endian length  | bytes                                  |
    +----------------+----------------------------------------+

A **columnar frame** carries a JSON value with one column in it — the
rank matrix of a :class:`~repro.placement.base.BatchPlacement` (the
answer to ``where_are``) or a vector of u64 addresses (its request) —
without rendering a device id per copy or an address in decimal::

    +----------------+------+----------------+-------------+--------------+
    | 4-byte big-    | 0xFF | 4-byte big-    | UTF-8 JSON  | the column:  |
    | endian length  |      | endian header  | header      | n*k*itemsize |
    |                |      | length         |             | or 8*n bytes |
    +----------------+------+----------------+-------------+--------------+

``0xFF`` occurs in no UTF-8 text, so no JSON body starts with it.  The
header is the payload itself with ``{"$ranks": {"dtype": code,
"rank_ids": [id, ...], "shape": [n, k]}}`` standing where the matrix
goes; the matrix follows as ``n`` rows of ``k`` little-endian unsigned
ranks into ``rank_ids``, in the smallest of ``u1``/``u2``/``u4`` that
indexes the table, and decodes to a ``BatchPlacement`` whose columns
read those bytes (NumPy views, or :mod:`array` slices without it).  Or
with ``{"$u64": n}`` where ``n > 0`` integers go, followed by that many
little-endian 8-byte words: written for the first top-level member of a
dict payload (sorted-key order) that is a non-empty list of ``int`` (no
``bool``) in ``[0, 2**64)`` and for a non-empty ``array('Q')`` anywhere,
decoded to an ``array('Q')`` (a list packs via ``array('L')``, faster on
wide ints); every other list is a JSON array.  A frame has one column and
a payload's content alone decides its form, so there is nothing to
negotiate.  For every payload ``encode_frame`` accepts,
``decode_frame(encode_frame(x)) == x`` except that the packed list returns
as that array of the same integers, and ``encode_frame`` of what a frame
decoded to is it again; a decoded batch also equals the ``k``-id lists it
stands for.  A payload with a column *and* a member of its own spelled
like a placeholder (a dict whose one key is ``$ranks`` or ``$u64``) would
not decode, so ``encode_frame`` refuses it.

JSON is rendered compactly with sorted keys and each column has one
layout, so equal payloads encode to byte-equal frames on any machine,
with or without NumPy — the property the protocol tests pin.

Three failure modes get typed errors (all subclasses of
:class:`~repro.exceptions.BadFrameError`), for both kinds alike:

* :class:`~repro.exceptions.TruncatedFrameError` — the buffer or stream
  ended before the declared length was satisfied (peer died mid-frame).
* :class:`~repro.exceptions.OversizedFrameError` — the header declared a
  body larger than :data:`MAX_FRAME_BYTES`.  The guard fires on the length
  prefix alone, before any body bytes are buffered.
* :class:`~repro.exceptions.BadFrameError` — everything else: a zero
  length prefix, a body that is not valid JSON, trailing bytes after a
  complete frame; and in a columnar body a header length that overruns
  the body, a header that is not JSON or names no (or a second, or a
  malformed) column, a column segment that is not exactly
  ``n*k*itemsize`` (``8*n``) bytes, a matrix of no rows wider than its
  table, or a rank outside the table.

The async helpers :func:`read_frame`/:func:`write_frame` adapt the codec
to :mod:`asyncio` streams; a clean EOF *between* frames reads as
``None`` rather than an error, which is how connections close.
"""

from __future__ import annotations

import asyncio
import json
import struct
import sys
from array import array
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._compat import get_numpy
from ..exceptions import (
    BadFrameError,
    OversizedFrameError,
    TruncatedFrameError,
)
from ..hashing.primitives import u64_words
from ..placement.base import BatchPlacement

#: Frame header: one unsigned 32-bit big-endian body length.
HEADER = struct.Struct("!I")

#: Ceiling on one frame's body, read by every guard at call time.
#: Generous for placement batches (a 100k-address ``where_are`` answer is
#: ~0.3 MB, its request 0.8 MB; the metastore's 1M-address maximum fits
#: as a u64 column) while keeping a corrupt or hostile length prefix from
#: forcing a multi-gigabyte allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: First body byte of a columnar frame; no UTF-8 text contains it.
COLUMNAR = b"\xff"

#: Sole key of the header object standing where the rank matrix, or the
#: u64 vector, goes.
RANKS_KEY, U64_KEY = "$ranks", "$u64"

#: Rank dtype code -> :mod:`array` typecode; a code's digit is its itemsize.
RANK_DTYPES = {"u1": "B", "u2": "H", "u4": "I"}


def encode_frame(payload: Any) -> bytes:
    """Serialise one payload to its wire frame.

    Args:
        payload: Any JSON-serialisable value, in which one
            :class:`~repro.placement.base.BatchPlacement` may stand for
            its rows or one ``array('Q')`` for its integers; the frame
            is then columnar, as it is for a top-level u64 list.

    Raises:
        BadFrameError: when the payload is not JSON-serialisable, or has
            a column beside a member spelled like its placeholder.
        OversizedFrameError: when the encoded body exceeds the maximum.
    """
    columns: List[bytes] = []

    def pack(value: Any) -> Dict[str, Any]:
        # json asks about whatever it cannot render; one column is ours.
        if columns:
            raise TypeError("a frame carries one column, this payload has two")
        if isinstance(value, BatchPlacement):
            meta, column = _pack_ranks(value)
        elif isinstance(value, array) and value.typecode == "Q" and value:
            meta, column = {U64_KEY: len(value)}, _little_endian(value).tobytes()
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON "
                f"serializable"
            )
        columns.append(column)
        return meta

    try:
        body = json.dumps(
            _with_u64_column(payload), default=pack, sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise BadFrameError(f"payload is not JSON-serialisable: {error}") from None
    if columns:
        # Every dict spelled like a placeholder renders as one of these
        # (a string cannot hold an unescaped quote), and one is the
        # column's own: parse the header only when it may hold two.
        if body.count(b'{"$u64":') + body.count(b'{"$ranks":') > 1:
            try:
                # Of an unpacked column, the parse reads only its type.
                _parse_header(
                    body, lambda key, _: array("Q") if key == U64_KEY else []
                )
            except BadFrameError:
                raise BadFrameError(
                    "payload holds a member spelled like the column "
                    "placeholder ($ranks or $u64); it would not decode"
                ) from None
        body = b"".join((COLUMNAR, HEADER.pack(len(body)), body, columns[0]))
    if len(body) > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame body is {len(body)} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte maximum"
        )
    return HEADER.pack(len(body)) + body


def _with_u64_column(payload: Any) -> Any:
    """``payload`` with its first top-level u64 list (sorted-key order) as
    an ``array('Q')``; a member that is one already ends the search."""
    if isinstance(payload, dict) and not {list, array}.isdisjoint(
        map(type, payload.values())
    ):  # one pass in C: the common envelope has neither
        for key, value in sorted(payload.items()):
            if type(value) is array:
                break
            types = type(value) is list and list(map(type, value))
            if types and types.count(int) == len(types):
                column = array("Q")
                try:
                    column.frombytes(memoryview(u64_words(value)).cast("B"))
                except OverflowError:
                    continue  # a member < 0 or >= 2**64: a JSON array
                return {**payload, key: column}
    return payload


def _little_endian(words: array) -> array:
    """``words`` in wire byte order: themselves on a little-endian host."""
    if sys.byteorder == "big":
        words = array(words.typecode, words)
        words.byteswap()
    return words


def _pack_ranks(batch: BatchPlacement) -> Tuple[Dict[str, Any], bytes]:
    """A batch's header object and its ``(n, k)`` row-major rank bytes."""
    count, copies, table = len(batch), batch.copies, len(batch.rank_ids)
    if copies > table and not count:  # a width no byte would pay for
        raise TypeError("a batch of no rows is wider than its rank table")
    code = "u1" if table <= 1 << 8 else "u2" if table <= 1 << 16 else "u4"
    np = get_numpy()
    if np is not None:
        matrix = np.empty((count, copies), dtype="<" + code)
        for position, column in enumerate(batch.columns):
            matrix[:, position] = column
    else:
        rows = chain.from_iterable(zip(*batch.columns))
        matrix = _little_endian(array(RANK_DTYPES[code], rows))
    meta = {"dtype": code, "rank_ids": batch.rank_ids, "shape": [count, copies]}
    return {RANKS_KEY: meta}, matrix.tobytes()


def decode_header(header: bytes) -> int:
    """Validate a frame header and return the declared body length.

    Raises:
        TruncatedFrameError: fewer than 4 header bytes.
        BadFrameError: a zero-length body (no JSON value is empty).
        OversizedFrameError: the declared length exceeds the maximum.
    """
    if len(header) < HEADER.size:
        raise TruncatedFrameError(
            f"frame header needs {HEADER.size} bytes, got {len(header)}"
        )
    (length,) = HEADER.unpack(header[: HEADER.size])
    if length == 0:
        raise BadFrameError("frame declares a zero-length body")
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame declares a {length}-byte body, above the "
            f"{MAX_FRAME_BYTES}-byte maximum"
        )
    return length


def decode_body(body: bytes) -> Any:
    """Parse one frame body of either kind.

    Raises:
        BadFrameError: when the body is not valid UTF-8 JSON, or is a
            malformed columnar body (see the module docstring).
    """
    if body[:1] == COLUMNAR:
        return _decode_columnar(body)
    return _loads(body)


def _loads(text: bytes, object_hook: Any = None) -> Any:
    try:
        return json.loads(text.decode("utf-8"), object_hook=object_hook)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise BadFrameError(f"frame body is not valid JSON: {error}") from None


def _decode_columnar(body: bytes) -> Any:
    """Parse a columnar body: the header, with the column's values put back."""
    start = len(COLUMNAR) + HEADER.size
    if len(body) < start:
        raise BadFrameError("columnar frame ends inside its header length")
    (length,) = HEADER.unpack_from(body, len(COLUMNAR))
    end = start + length
    if end > len(body):
        raise BadFrameError(
            f"columnar frame declares a {length}-byte header but only "
            f"{len(body) - start} bytes follow"
        )
    column = memoryview(body)[end:]
    return _parse_header(
        body[start:end],
        lambda key, inner: _unpack_columns[key](inner, column),
    )


def _parse_header(header: bytes, unpack: Callable[[str, Any], Any]) -> Any:
    """A columnar header's payload with its one placeholder ``{key:
    inner}`` replaced by ``unpack(key, inner)``.

    Raises:
        BadFrameError: the header is not JSON or names no column, or a
            second one.
    """
    unpacked: List[bool] = []

    def hook(value: Dict[str, Any]) -> Any:
        if len(value) != 1:
            return value
        ((key, inner),) = value.items()
        if key not in _unpack_columns or type(inner) is array:
            # Not a placeholder; or the column itself, under a payload key
            # spelled like its placeholder: a member, not a second column.
            return value
        if unpacked:
            raise BadFrameError("columnar frame names a second column")
        unpacked.append(True)
        return unpack(key, inner)

    payload = _loads(header, hook)
    if not unpacked:
        raise BadFrameError("columnar frame names no column")
    return payload


def _unpack_u64(count: Any, column: memoryview) -> array:
    """The ``count`` words of one u64 column, as an ``array('Q')``."""
    if type(count) is not int or count <= 0 or len(column) != 8 * count:
        raise BadFrameError(
            f"$u64 needs n > 0 and 8*n bytes: n = {count!r}, {len(column)} bytes"
        )
    words = array("Q")
    words.frombytes(column)
    return _little_endian(words)


def _unpack_ranks(meta: Any, matrix: memoryview) -> BatchPlacement:
    """One rank matrix as a batch whose ``k`` columns read its bytes."""
    try:
        (count, copies), code, rank_ids = (
            meta["shape"], meta["dtype"], meta["rank_ids"]
        )
        typecode = RANK_DTYPES[code]
    except (KeyError, TypeError, ValueError):
        raise BadFrameError(
            "rank matrix header needs shape [n, k], a dtype of "
            f"{sorted(RANK_DTYPES)} and rank_ids"
        ) from None
    if type(rank_ids) is not list or not set(map(type, rank_ids)) <= {str}:
        raise BadFrameError("rank_ids must be a list of strings")
    # Columns no byte paid for (n rows of no copies, or a width beyond the
    # table with no rows) would cost memory the frame ceiling never saw.
    if not (
        type(count) is type(copies) is int and count >= 0
        and (0 < copies if count else 0 <= copies <= len(rank_ids))
    ):
        raise BadFrameError(f"rank matrix shape [{count!r}, {copies!r}] is invalid")
    size = count * copies * int(code[1])
    if len(matrix) != size:
        raise BadFrameError(
            f"a [{count}, {copies}] {code} rank matrix is {size} bytes, "
            f"{len(matrix)} follow the header"
        )
    np = get_numpy()
    if np is not None:
        ranks = np.frombuffer(matrix, dtype="<" + code)
        top = ranks.max(initial=0)
        columns = list(ranks.reshape(count, copies).T)
    else:
        ranks = _little_endian(array(typecode, bytes(matrix)))
        top = max(ranks, default=0)
        columns = [ranks[position::copies] for position in range(copies)]
    if count and top >= len(rank_ids):
        raise BadFrameError(
            f"a rank is outside the {len(rank_ids)}-entry rank_ids table"
        )
    return BatchPlacement(rank_ids, columns)


#: Each placeholder key's column reader.
_unpack_columns = {RANKS_KEY: _unpack_ranks, U64_KEY: _unpack_u64}


def decode_frame(data: bytes) -> Any:
    """Decode a buffer holding exactly one frame.

    The strict inverse of :func:`encode_frame`: the buffer must contain
    one complete frame and nothing else.

    Raises:
        TruncatedFrameError: the buffer ends before the declared length.
        OversizedFrameError: the header declares an over-limit body.
        BadFrameError: zero-length body, invalid JSON, or trailing bytes.
    """
    length = decode_header(data)
    end = HEADER.size + length
    if len(data) < end:
        raise TruncatedFrameError(
            f"frame declares a {length}-byte body but only "
            f"{len(data) - HEADER.size} bytes follow the header"
        )
    if len(data) > end:
        raise BadFrameError(
            f"{len(data) - end} trailing bytes after a complete frame"
        )
    return decode_body(data[HEADER.size :])


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one frame from a stream.

    Returns:
        The decoded payload, or ``None`` on a clean EOF between frames
        (the peer closed the connection after the last complete frame).

    Raises:
        TruncatedFrameError: EOF arrived mid-frame.
        OversizedFrameError: the header declared an over-limit body.
        BadFrameError: zero-length body or invalid JSON.
    """
    header = await reader.read(HEADER.size)
    if not header:
        return None
    while len(header) < HEADER.size:
        more = await reader.read(HEADER.size - len(header))
        if not more:
            raise TruncatedFrameError(
                f"connection closed after {len(header)} header bytes"
            )
        header += more
    length = decode_header(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrameError(
            f"connection closed {len(error.partial)} bytes into a "
            f"{length}-byte body"
        ) from None
    return decode_body(body)


async def write_frame(writer: asyncio.StreamWriter, payload: Any) -> None:
    """Encode ``payload`` and flush it onto a stream."""
    writer.write(encode_frame(payload))
    await writer.drain()
