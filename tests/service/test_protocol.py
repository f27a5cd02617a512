"""Property tests pinning the length-prefixed wire codec, both frame kinds.

The contract under test, for JSON frames and (``TestColumnar*``) for
columnar frames, whose payload holds one column — a rank matrix or a
u64 vector:

* ``decode_frame(encode_frame(x)) == x`` for every JSON-representable
  payload, except that the one top-level list the encoder packs returns
  as an ``array('Q')`` of the same integers (:func:`as_decoded` states
  which); ``encode_frame`` of that result is the same frame again; and
  equal payloads encode to byte-equal frames (canonical rendering).
* Every *proper prefix* of a valid frame raises
  :class:`TruncatedFrameError` — a reader can always distinguish "need
  more bytes" from "the stream is garbage".
* A header declaring a body above ``MAX_FRAME_BYTES`` raises
  :class:`OversizedFrameError` from the header alone.
* Structural garbage (zero-length body, invalid JSON, trailing bytes)
  raises :class:`BadFrameError`.
* Whatever bytes arrive, nothing but :class:`BadFrameError` and its
  subclasses escapes ``decode_frame``/``read_frame``.
"""

import asyncio
import enum
import json
import struct
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    BadFrameError,
    OversizedFrameError,
    TruncatedFrameError,
)
from repro import _compat
from repro._compat import get_numpy
from repro.hashing import primitives
from repro.placement import create
from repro.placement.base import BatchPlacement
from repro.service import protocol
from repro.service.protocol import (
    COLUMNAR,
    HEADER,
    MAX_FRAME_BYTES,
    RANKS_KEY,
    U64_KEY,
    decode_frame,
    decode_header,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.types import bins_from_capacities

# Arbitrary JSON values: scalars (including > 2**32 integers, which the
# placement service relies on for addresses) nested under lists/dicts.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40)
)
json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=10), children, max_size=4)
    ),
    max_leaves=25,
)

#: Where CPython's 30-bit int digits and the int64 / u64 ranges end.
CPYTHON_DIGIT_EDGES = [
    0, 1, 2 ** 30 - 1, 2 ** 30, 2 ** 32, 2 ** 60, 2 ** 63 - 1, 2 ** 63,
    2 ** 64 - 1,
]

# Lists the encoder packs, the edges of the column and of CPython's int
# digits drawn often, and lists one element away from packing: each of
# those stays a JSON array.
u64_lists = st.lists(
    st.integers(min_value=0, max_value=2 ** 64 - 1)
    | st.sampled_from(CPYTHON_DIGIT_EDGES),
    min_size=1, max_size=6,
)
near_u64_lists = st.builds(
    lambda words, index, intruder: words[:index] + [intruder] + words[index:],
    u64_lists, st.integers(min_value=0, max_value=6),
    st.sampled_from([-1, 2 ** 64, True, False, 1.0, "1", None, [1]]),
)
# What servers and clients send: an object, here with such members often.
payloads = json_values | st.dictionaries(
    st.text(max_size=10), u64_lists | near_u64_lists | json_values,
    min_size=1, max_size=4,
)


def as_decoded(payload):
    """The round-trip law's right-hand side: ``payload``, with the first
    top-level member (sorted-key order) that is a non-empty list of
    ``int`` (no ``bool``) in ``[0, 2**64)`` as an ``array('Q')``."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if type(value) is list and value and all(
                type(word) is int and 0 <= word < 2 ** 64 for word in value
            ):
                return {**payload, key: array("Q", value)}
    return payload


def spelled_like_placeholder(value) -> bool:
    """Whether a dict whose one key is ``$ranks`` or ``$u64`` sits
    anywhere in ``value``."""
    if isinstance(value, dict):
        if value.keys() in ({RANKS_KEY}, {U64_KEY}):
            return True
        value = list(value.values())
    return isinstance(value, list) and any(map(spelled_like_placeholder, value))


def same_value(left, right) -> bool:
    """``==`` that also tells an ``array('Q')`` from a list and ``True``
    from ``1``: the law is about exactly what comes back."""
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            same_value(left[key], right[key]) for key in left
        )
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same_value, left, right))
    return left == right


#: The codec's two legs: with NumPy (when installed) and without it.
LEGS = ("numpy", "pure") if get_numpy() is not None else ("pure",)


@contextmanager
def on_leg(leg):
    """Run the codec with NumPy, or as if it were not installed."""
    saved = _compat.np
    _compat.np = saved if leg == "numpy" else None
    try:
        yield
    finally:
        _compat.np = saved


class TestRoundTrip:
    @given(payload=payloads)
    # A packed list under a key spelled like a placeholder stays a member.
    @example(payload={RANKS_KEY: [0]})
    @example(payload={U64_KEY: [7, 2 ** 64 - 1]})
    # A column beside a member spelled like a placeholder.
    @example(payload={"a": [1], "b": {U64_KEY: 3}})
    @example(payload={"a": [1], "b": {RANKS_KEY: {}}})
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, payload):
        """``decode_frame(encode_frame(x))`` is ``x`` (a packed list as its
        array) for every payload ``encode_frame`` accepts, and it refuses
        only a payload that has a column beside a member spelled like a
        placeholder."""
        try:
            frame = encode_frame(payload)
        except BadFrameError:
            packed = as_decoded(payload)
            assert packed is not payload
            # The member beside the column, not the column's own key.
            assert spelled_like_placeholder(
                [value for value in packed.values() if type(value) is not array]
            )
            return
        decoded = decode_frame(frame)
        assert same_value(decoded, as_decoded(payload))
        assert (frame[HEADER.size : HEADER.size + 1] == COLUMNAR) == (
            decoded != payload
        )
        assert encode_frame(decoded) == frame

    @given(payload=payloads)
    @settings(max_examples=50, deadline=None)
    def test_canonical_encoding(self, payload):
        # Equal payloads give byte-equal frames (sorted keys, fixed
        # separators) — what lets traces be compared across machines.
        assert encode_frame(payload) == encode_frame(payload)

    def test_non_serialisable_payload(self):
        with pytest.raises(BadFrameError):
            encode_frame(object())


class TestTruncation:
    @given(payload=payloads, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_proper_prefix_is_truncated(self, payload, data):
        frame = encode_frame(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(TruncatedFrameError):
            decode_frame(frame[:cut])

    def test_empty_buffer(self):
        with pytest.raises(TruncatedFrameError):
            decode_frame(b"")

    def test_truncated_error_is_a_bad_frame(self):
        # Catching the broad class catches the structural subclasses too.
        assert issubclass(TruncatedFrameError, BadFrameError)
        assert issubclass(OversizedFrameError, BadFrameError)


class TestOversizeGuard:
    def test_encode_refuses_oversized_body(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(OversizedFrameError):
            encode_frame("x" * 128)

    def test_header_guard_fires_without_body(self):
        # Only the 4 header bytes exist; the guard must fire before any
        # attempt to read the (absent, huge) body.
        header = HEADER.pack(MAX_FRAME_BYTES + 1)
        with pytest.raises(OversizedFrameError):
            decode_frame(header)

    @given(length=st.integers(min_value=1, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_header_guard_threshold(self, length):
        header = HEADER.pack(length)
        # Hypothesis refuses function-scoped fixtures; patch per example.
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
            if length > 1024:
                with pytest.raises(OversizedFrameError):
                    decode_header(header)
            else:
                assert decode_header(header) == length


class TestStructuralGarbage:
    def test_zero_length_body(self):
        with pytest.raises(BadFrameError):
            decode_frame(HEADER.pack(0))

    def test_invalid_json_body(self):
        with pytest.raises(BadFrameError):
            decode_frame(HEADER.pack(3) + b"not")

    def test_invalid_utf8_body(self):
        with pytest.raises(BadFrameError):
            decode_frame(HEADER.pack(2) + b"\xff\xfe")

    @given(payload=payloads, junk=st.binary(min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_trailing_bytes_rejected(self, payload, junk):
        with pytest.raises(BadFrameError):
            decode_frame(encode_frame(payload) + junk)


class TestStreamHelpers:
    """The asyncio adapters, driven through an in-memory StreamReader."""

    @staticmethod
    def _reader(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return reader

    def test_clean_eof_reads_as_none(self):
        async def scenario():
            return await read_frame(self._reader())

        assert asyncio.run(scenario()) is None

    def test_two_frames_back_to_back(self):
        async def scenario():
            reader = self._reader(
                encode_frame({"op": "ping", "id": 1})
                + encode_frame({"op": "ping", "id": 2})
            )
            first = await read_frame(reader)
            second = await read_frame(reader)
            third = await read_frame(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"op": "ping", "id": 1}
        assert second == {"op": "ping", "id": 2}
        assert third is None

    def test_eof_mid_header_is_truncated(self):
        async def scenario():
            await read_frame(self._reader(b"\x00\x00"))

        with pytest.raises(TruncatedFrameError):
            asyncio.run(scenario())

    def test_eof_mid_body_is_truncated(self):
        async def scenario():
            frame = encode_frame({"key": "value"})
            await read_frame(self._reader(frame[:-2]))

        with pytest.raises(TruncatedFrameError):
            asyncio.run(scenario())

    def test_oversized_header_rejected_before_body(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)

        async def scenario():
            await read_frame(self._reader(HEADER.pack(2 ** 31), eof=False))

        with pytest.raises(OversizedFrameError):
            asyncio.run(scenario())

    def test_write_frame_round_trips_over_a_socket(self):
        async def scenario():
            received = []

            async def handle(reader, writer):
                received.append(await read_frame(reader))
                await write_frame(writer, {"echo": received[-1]})
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, {"n": 2 ** 62})
            reply = await read_frame(reader)
            writer.close()
            server.close()
            await server.wait_closed()
            return received, reply

        received, reply = asyncio.run(scenario())
        assert received == [{"n": 2 ** 62}]
        assert reply == {"echo": {"n": 2 ** 62}}


# -- the columnar kind --------------------------------------------------------

#: Table sizes on both sides of each rank width (u1 <= 256 < u2 <= 65536 < u4).
TABLE_SIZES = (1, 2, 7, 255, 256, 257, 300, 65536, 65537)


@st.composite
def batches(draw):
    """A BatchPlacement with plain-list columns, and its rows."""
    size = draw(st.sampled_from(TABLE_SIZES))
    rank_ids = [f"dev-{rank}" for rank in range(size)]
    count = draw(st.integers(min_value=0, max_value=12))
    # No rows wider than the table: no byte would pay for the width.
    copies = draw(st.integers(min_value=1, max_value=4 if count else min(4, size)))
    # The top rank is drawn often: it is the one the dtype choice is about.
    ranks = st.integers(min_value=0, max_value=size - 1) | st.just(size - 1)
    columns = [
        draw(st.lists(ranks, min_size=count, max_size=count))
        for _ in range(copies)
    ]
    rows = [[rank_ids[column[row]] for column in columns] for row in range(count)]
    return BatchPlacement(rank_ids, columns), rows


def envelope(placements, extra=None):
    # ``extra`` nests: a u64 list beside ``result`` would be a second column.
    return {"id": 7, "ok": True, "result": {"placements": placements, "extra": extra}}


@st.composite
def columnar(draw):
    """A payload of either column kind: an answer envelope with a rank
    matrix, or a request with u64 addresses (as the list a caller holds,
    or as the array a decoder handed back)."""
    if draw(st.booleans()):
        return envelope(draw(batches())[0])
    words = draw(u64_lists)
    if draw(st.booleans()):
        words = array("Q", words)
    return {"op": "where_are", "id": 7, "addresses": words}


def columnar_frame(header, matrix: bytes, header_length=None) -> bytes:
    """A columnar frame assembled by hand, for mutations the encoder
    never produces."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    length = len(text) if header_length is None else header_length
    body = COLUMNAR + HEADER.pack(length) + text + matrix
    return HEADER.pack(len(body)) + body


def ranks_header(shape, dtype, rank_ids):
    return envelope({RANKS_KEY: {"shape": shape, "dtype": dtype, "rank_ids": rank_ids}})


def u64_frame(count, words: bytes) -> bytes:
    """A request whose ``addresses`` are ``{"$u64": count}`` over ``words``."""
    header = {"op": "where_are", "id": 7, "addresses": {U64_KEY: count}}
    return columnar_frame(header, words)


def decode_or_bad_frame(frame: bytes):
    """The decoded payload, or the class of the BadFrameError raised;
    any other exception propagates and fails the test."""
    try:
        return decode_frame(frame)
    except BadFrameError as error:
        return type(error)


def refused(outcome) -> bool:
    return isinstance(outcome, type) and issubclass(outcome, BadFrameError)


def read_or_bad_frame(frame: bytes):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        try:
            return await read_frame(reader)
        except BadFrameError as error:
            return type(error)

    return asyncio.run(scenario())


class TestColumnarRoundTrip:
    @given(batch_rows=batches(), extra=json_values)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_gives_the_rows(self, batch_rows, extra):
        """The decoded answer is the batch that was sent, and equals the
        rows it stands for; encoding it again gives the same frame."""
        batch, rows = batch_rows
        for leg in LEGS:
            with on_leg(leg):
                frame = encode_frame(envelope(batch, extra))
                assert frame[HEADER.size : HEADER.size + 1] == COLUMNAR
                decoded = decode_frame(frame)
                assert type(decoded["result"]["placements"]) is BatchPlacement
                assert decoded == envelope(batch, extra)
                assert decoded == envelope(rows, extra)
                assert encode_frame(decoded) == frame

    @given(batch_rows=batches())
    @settings(max_examples=50, deadline=None)
    def test_canonical_encoding(self, batch_rows):
        batch, _ = batch_rows
        frame = encode_frame(envelope(batch))
        assert encode_frame(envelope(batch)) == frame
        np = get_numpy()
        if np is not None:
            # What place_many returns with NumPy packs to the same bytes.
            arrays = [np.asarray(c, dtype=np.int64) for c in batch.columns]
            assert encode_frame(
                envelope(BatchPlacement(batch.rank_ids, arrays))
            ) == frame

    @given(batch_rows=batches())
    @settings(max_examples=50, deadline=None)
    def test_rank_width_is_the_smallest_that_indexes_the_table(self, batch_rows):
        batch, _ = batch_rows
        size = len(batch.rank_ids)
        code = "u1" if size <= 256 else "u2" if size <= 65536 else "u4"
        frame = encode_frame(envelope(batch))
        assert f'"dtype":"{code}"'.encode() in frame
        assert frame.endswith(
            b"".join(
                column[row].to_bytes(int(code[1]), "little")
                for row in range(len(batch))
                for column in batch.columns
            )
        )

    @given(words=u64_lists, extra=payloads)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_gives_the_words(self, words, extra):
        # A member spelled like a placeholder is refused (TestRoundTrip).
        assume(not spelled_like_placeholder(extra))
        typed = array("Q", words)
        frame = encode_frame({"addresses": words, "extra": extra})
        assert frame[HEADER.size : HEADER.size + 1] == COLUMNAR
        assert f'"addresses":{{"{U64_KEY}":{len(words)}}}'.encode() in frame
        assert frame.endswith(
            b"".join(word.to_bytes(8, "little") for word in words)
        )
        decoded = decode_frame(frame)
        # "addresses" sorts first and takes the column: "extra" is as sent.
        assert same_value(decoded, {"addresses": typed, "extra": extra})
        # The typed column encodes as the list did, wherever it stands.
        assert encode_frame(decoded) == frame
        assert same_value(decode_frame(encode_frame([extra, typed])), [extra, typed])

    def test_no_columns_at_all(self):
        frame = encode_frame(envelope(BatchPlacement(["a"], [])))
        assert decode_frame(frame) == envelope([])
        # No words, no column: an empty list is the JSON array it was.
        assert decode_frame(encode_frame({"addresses": []})) == {"addresses": []}

    def test_no_rows_are_no_wider_than_the_table(self):
        frame = encode_frame(envelope(BatchPlacement(["a"], [[]])))
        assert decode_frame(frame) == envelope([])
        with pytest.raises(BadFrameError):
            encode_frame(envelope(BatchPlacement(["a"], [[], []])))

    def test_one_matrix_per_frame(self):
        batch = BatchPlacement(["a"], [[0]])
        words = array("Q", [1])
        for payload in (
            [batch, batch], [words, words], [batch, words],
            {"addresses": [1], "result": batch},
        ):
            with pytest.raises(BadFrameError):
                encode_frame(payload)
        # A second list is no column: it stays the JSON array it was.
        assert same_value(
            decode_frame(encode_frame({"a": [2 ** 64], "b": [1], "c": [2]})),
            {"a": [2 ** 64], "b": words, "c": [2]},
        )

    @pytest.mark.parametrize("typecode", sorted({primitives._U64_TYPECODE, "Q"}))
    @given(words=u64_lists)
    @settings(max_examples=100, deadline=None)
    def test_column_is_the_words_at_every_digit_boundary(self, typecode, words):
        """The column is each int's eight little-endian bytes, whichever
        typecode converts the list (``"Q"`` where a C long is 4 bytes)."""
        header = f'{{"addresses":{{"{U64_KEY}":{len(words)}}}}}'.encode()
        body = COLUMNAR + HEADER.pack(len(header)) + header
        body += struct.pack(f"<{len(words)}Q", *words)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(primitives, "_U64_TYPECODE", typecode)
            for leg in LEGS:
                with on_leg(leg):
                    frame = encode_frame({"addresses": words})
                    assert frame == HEADER.pack(len(body)) + body

    def test_only_exact_ints_pack(self):
        """``array('L')`` takes each of these lists; the codec packs none:
        an ``IntEnum`` and a ``bool`` stay JSON, a NumPy scalar is refused."""
        class Colour(enum.IntEnum):
            RED = 1

        for leg in LEGS:
            with on_leg(leg):
                frame = encode_frame({"addresses": [Colour.RED, 2]})
                assert frame[HEADER.size : HEADER.size + 1] != COLUMNAR
                assert same_value(decode_frame(frame), {"addresses": [1, 2]})
                flags = {"addresses": [True, 5]}
                assert same_value(decode_frame(encode_frame(flags)), flags)
        numpy = pytest.importorskip("numpy")
        with pytest.raises(BadFrameError):
            encode_frame({"addresses": [numpy.int64(3)]})

    def test_other_arrays_are_not_columns(self):
        for other in (
            array("Q"), array("L", [1]), array("q", [1]), array("d", [1.0])
        ):
            with pytest.raises(BadFrameError):
                encode_frame({"addresses": other})

    def test_encode_refuses_oversized_body(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 128)
        batch = BatchPlacement(["a", "b"], [[0, 1] * 64])
        with pytest.raises(OversizedFrameError):
            encode_frame(envelope(batch))
        with pytest.raises(OversizedFrameError):
            encode_frame({"addresses": [1] * 16})

    def test_read_frame_decodes_both_kinds_back_to_back(self):
        batch = BatchPlacement(["a", "b"], [[0, 1], [1, 0]])
        stream = (
            encode_frame(envelope(batch))
            + encode_frame({"op": "ping"})
            + encode_frame(envelope(batch))
        )

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(stream)
            reader.feed_eof()
            return [await read_frame(reader) for _ in range(4)]

        rows = envelope([["a", "b"], ["b", "a"]])
        assert asyncio.run(scenario()) == [rows, {"op": "ping"}, rows, None]


class TestColumnarTruncation:
    @given(payload=columnar(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_proper_prefix_is_truncated(self, payload, data):
        frame = encode_frame(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        assert decode_or_bad_frame(frame[:cut]) is TruncatedFrameError
        # On a stream, no bytes at all is the clean EOF between frames.
        assert read_or_bad_frame(frame[:cut]) is (
            TruncatedFrameError if cut else None
        )

    @given(payload=columnar(), junk=st.binary(min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_trailing_bytes_rejected(self, payload, junk):
        with pytest.raises(BadFrameError):
            decode_frame(encode_frame(payload) + junk)


class TestColumnarGarbage:
    """A valid frame with one field changed: always BadFrameError."""

    RANK_IDS = ["a", "b", "c"]
    MATRIX = bytes([0, 1, 2, 2, 1, 0])  # shape [2, 3], u1

    def frame(self, shape=(2, 3), dtype="u1", rank_ids=None, matrix=None, **kw):
        return columnar_frame(
            ranks_header(
                list(shape), dtype,
                self.RANK_IDS if rank_ids is None else rank_ids,
            ),
            self.MATRIX if matrix is None else matrix,
            **kw,
        )

    def test_the_unmutated_frame_is_valid(self):
        assert decode_frame(self.frame()) == envelope(
            [["a", "b", "c"], ["c", "b", "a"]]
        )
        # Row-major: the same bytes under the transposed shape.
        assert decode_frame(self.frame(shape=(3, 2))) == envelope(
            [["a", "b"], ["c", "c"], ["b", "a"]]
        )

    @pytest.mark.parametrize("copies", [0, 3, 4, 10 ** 30])
    def test_no_rows_whatever_their_width(self, copies):
        """No rows decode to an empty batch while the table bounds their
        width; a wider matrix, which no byte pays for, is refused."""
        frame = self.frame(shape=(0, copies), matrix=b"")
        if copies <= len(self.RANK_IDS):
            assert decode_frame(frame) == envelope([])
        else:
            with pytest.raises(BadFrameError):
                decode_frame(frame)

    @pytest.mark.parametrize("length", [0, 1, 2 ** 16, 2 ** 32 - 1])
    def test_header_length_wrong(self, length):
        with pytest.raises(BadFrameError):
            decode_frame(self.frame(header_length=length))

    def test_body_ends_inside_the_header_length(self):
        for body in (COLUMNAR, COLUMNAR + b"\x00\x00"):
            with pytest.raises(BadFrameError):
                decode_frame(HEADER.pack(len(body)) + body)

    @pytest.mark.parametrize(
        "shape",
        [
            (2, 4), (3, 3), (0, 3), (2,), (2, 3, 1), (-2, -3), (2.0, 3.0),
            (True, 6), ("2", "3"), (None, None), (10 ** 30, 0), (6, 0),
        ],
    )
    def test_shape_wrong(self, shape):
        with pytest.raises(BadFrameError):
            decode_frame(self.frame(shape=shape))

    @pytest.mark.parametrize("dtype", ["u2", "u4", "u8", "i1", "", 1, None, ["u1"]])
    def test_dtype_code_wrong(self, dtype):
        with pytest.raises(BadFrameError):
            decode_frame(self.frame(dtype=dtype))

    @pytest.mark.parametrize("dtype, width", [("u1", 1), ("u2", 2), ("u4", 4)])
    def test_rank_outside_the_table(self, dtype, width):
        for rank in (3, 2 ** (8 * width) - 1):
            matrix = b"".join(
                value.to_bytes(width, "little") for value in (0, 1, 2, 2, 1, rank)
            )
            with pytest.raises(BadFrameError):
                decode_frame(self.frame(dtype=dtype, matrix=matrix))

    @pytest.mark.parametrize("matrix", [b"", MATRIX[:-1], MATRIX + b"\x00"])
    def test_segment_short_or_long(self, matrix):
        with pytest.raises(BadFrameError):
            decode_frame(self.frame(matrix=matrix))

    @pytest.mark.parametrize(
        "rank_ids", [None, "abc", [1, 2, 3], ["a", "b", None], {"a": 0}, []]
    )
    def test_rank_ids_wrong(self, rank_ids):
        header = ranks_header([2, 3], "u1", rank_ids)
        with pytest.raises(BadFrameError):
            decode_frame(columnar_frame(header, self.MATRIX))

    WORDS = b"".join(word.to_bytes(8, "little") for word in (0, 2 ** 63, 7))

    def test_the_unmutated_u64_frame_is_valid(self):
        assert decode_frame(u64_frame(3, self.WORDS)) == {
            "op": "where_are", "id": 7, "addresses": array("Q", [0, 2 ** 63, 7])
        }

    @pytest.mark.parametrize(
        "count",
        [0, -3, 2, 4, 3.0, True, "3", None, [3], {"n": 3}, 10 ** 30],
    )
    def test_u64_count_wrong(self, count):
        with pytest.raises(BadFrameError):
            decode_frame(u64_frame(count, self.WORDS))

    @pytest.mark.parametrize("words", [b"", WORDS[:-1], WORDS + b"\x00"])
    def test_u64_segment_short_or_long(self, words):
        with pytest.raises(BadFrameError):
            decode_frame(u64_frame(3, words))

    def test_u64_placeholder_in_a_json_frame_is_just_an_object(self):
        # No column follows a JSON frame, so none is made up: the handler
        # sees an object where addresses belong (refused over a socket in
        # test_blockstore_client's test_metastore_validates_addresses).
        request = {"op": "where_are", "id": 7, "addresses": {U64_KEY: 3}}
        frame = encode_frame(request)
        assert frame[HEADER.size : HEADER.size + 1] != COLUMNAR
        assert decode_frame(frame) == request

    def test_no_matrix_named(self):
        with pytest.raises(BadFrameError):
            decode_frame(columnar_frame(envelope([]), b""))

    def test_two_matrices_named(self):
        meta = {RANKS_KEY: {"shape": [2, 3], "dtype": "u1", "rank_ids": self.RANK_IDS}}
        words = {U64_KEY: 3}
        for header, column in (
            ([meta, meta], self.MATRIX),
            ([words, words], self.WORDS),
            ({"addresses": words, "result": meta}, self.WORDS),
            ({"addresses": words, "result": meta}, self.MATRIX),
        ):
            with pytest.raises(BadFrameError):
                decode_frame(columnar_frame(header, column))

    def test_missing_field(self):
        for field in ("shape", "dtype", "rank_ids"):
            meta = {"shape": [2, 3], "dtype": "u1", "rank_ids": self.RANK_IDS}
            del meta[field]
            with pytest.raises(BadFrameError):
                decode_frame(columnar_frame(envelope({RANKS_KEY: meta}), self.MATRIX))

    def test_header_is_not_json(self):
        for text in (b"not json", b"\xff\xfe", b""):
            with pytest.raises(BadFrameError):
                decode_frame(columnar_frame(text, self.MATRIX))

    @pytest.mark.parametrize("columnar", [False, True])
    def test_nesting_beyond_the_recursion_limit(self, columnar):
        text = b"[" * 100_000
        frame = (
            columnar_frame(text, b"") if columnar
            else HEADER.pack(len(text)) + text
        )
        with pytest.raises(BadFrameError):
            decode_frame(frame)


class TestColumnarFuzz:
    """Nothing but BadFrameError escapes, whatever follows the marker."""

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_after_the_marker(self, junk):
        body = COLUMNAR + junk
        frame = HEADER.pack(len(body)) + body
        assert refused(decode_or_bad_frame(frame))
        assert refused(read_or_bad_frame(frame))

    @given(
        header_length=st.integers(min_value=0, max_value=80),
        header=st.binary(max_size=40),
        matrix=st.binary(max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_header_length_over_arbitrary_bytes(
        self, header_length, header, matrix
    ):
        frame = columnar_frame(header, matrix, header_length=header_length)
        assert refused(decode_or_bad_frame(frame))

    @given(
        shape=json_values, dtype=json_values | st.sampled_from(["u1", "u2", "u4"]),
        rank_ids=json_values | st.lists(st.text(max_size=3), max_size=4),
        matrix=st.binary(max_size=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_fields_in_a_well_formed_header(
        self, shape, dtype, rank_ids, matrix
    ):
        frame = columnar_frame(ranks_header(shape, dtype, rank_ids), matrix)
        decoded = decode_or_bad_frame(frame)
        assert decoded == read_or_bad_frame(frame)
        if not refused(decoded):
            rows = decoded["result"]["placements"]
            assert all(bin_id in rank_ids for row in rows for bin_id in row)

    @given(count=json_values | st.integers(0, 4), words=st.binary(max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_count_over_arbitrary_words(self, count, words):
        frame = u64_frame(count, words)
        decoded = decode_or_bad_frame(frame)
        assert decoded == read_or_bad_frame(frame)
        if not refused(decoded):
            assert decoded["addresses"].tobytes() == words
            assert type(count) is int and 8 * count == len(words) > 0

    @given(payload=columnar(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_byte_of_a_valid_frame_changed(self, payload, data):
        frame = bytearray(encode_frame(payload))
        # Past the outer length: that prefix has its own properties above.
        position = data.draw(
            st.integers(min_value=HEADER.size, max_value=len(frame) - 1)
        )
        frame[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        decoded = decode_or_bad_frame(bytes(frame))
        assert decoded == read_or_bad_frame(bytes(frame))


@pytest.mark.parametrize("leg", LEGS)
class TestDecodedBatch:
    """A ``$ranks`` column decodes to a BatchPlacement over its bytes."""

    BINS = bins_from_capacities([500, 400, 300, 200, 150, 100, 80, 50])
    ADDRESSES = list(range(0, 3000, 7)) + [2 ** 64 - 1]

    def served(self, bins=BINS):
        """A local batch and what its frame decodes to."""
        batch = create("redundant-share", bins, copies=3).place_many(
            self.ADDRESSES
        )
        return batch, decode_frame(encode_frame({"placements": batch}))

    @pytest.mark.parametrize("size, code", [(3, "u1"), (300, "u2"), (70000, "u4")])
    def test_round_trip_is_exact_at_every_rank_width(self, leg, size, code):
        rank_ids = [f"dev-{rank}" for rank in range(size)]
        columns = [[0, size - 1, 1], [size - 1, 0, 2]]
        with on_leg(leg):
            payload = envelope(BatchPlacement(rank_ids, columns), extra=[1])
            frame = encode_frame(payload)
            assert f'"dtype":"{code}"'.encode() in frame
            decoded = decode_frame(frame)
            assert decoded == payload
            assert encode_frame(decoded) == frame
            assert decoded["result"]["placements"].tuples() == [
                ("dev-0", f"dev-{size - 1}"), (f"dev-{size - 1}", "dev-0"),
                ("dev-1", "dev-2"),
            ]

    def test_columns_read_the_frame(self, leg):
        with on_leg(leg):
            _, decoded = self.served()
            for column in decoded["placements"].columns:
                if leg == "numpy":
                    assert column.dtype == get_numpy().uint8
                    assert not column.flags.writeable
                else:
                    assert type(column) is array and column.typecode == "B"

    def test_equality(self, leg):
        rank_ids = ["a", "b", "c"]
        with on_leg(leg):
            batch = decode_frame(
                encode_frame(BatchPlacement(rank_ids, [[0, 2], [1, 0]]))
            )
            # Another batch: equal by rows, whatever the rank table.
            assert batch == BatchPlacement(["c", "b", "a"], [[2, 0], [1, 2]])
            assert batch != BatchPlacement(rank_ids, [[0, 2], [2, 0]])
            assert batch != BatchPlacement(rank_ids, [[0, 2]])
            assert batch != BatchPlacement(rank_ids, [[0], [1]])
            # The JSON value it stands for: a list of k-id lists.
            assert batch == [["a", "b"], ["c", "a"]]
            assert [["a", "b"], ["c", "a"]] == batch
            for other in (
                [["a", "b"], ["c", "b"]], [["a", "b"]], [["a", "b", "c"], ["a"]],
                [("a", "b"), ("c", "a")], ["ab", "ca"], [["a", "b"], "ca"],
                [["a", "b"], None], [], 3, "abca", None, {"a": "b"},
                (["a", "b"], ["c", "a"]),
            ):
                assert batch != other
                assert not batch == other
            empty = BatchPlacement(rank_ids, [[], []])
            assert empty == [] and empty == BatchPlacement([], [])
            assert empty != [[]]
            with pytest.raises(TypeError):
                hash(batch)

    def test_a_row_is_place(self, leg):
        strategy = create("redundant-share", self.BINS, copies=3)
        with on_leg(leg):
            _, decoded = self.served()
            placements = decoded["placements"]
            for index, address in enumerate(self.ADDRESSES):
                assert placements[index] == strategy.place(address)
            assert placements[-1] == strategy.place(self.ADDRESSES[-1])
            for index in (len(self.ADDRESSES), -len(self.ADDRESSES) - 1):
                with pytest.raises(IndexError):
                    placements[index]

    def test_counts_and_tuples_read_the_decoded_columns(self, leg):
        wide = bins_from_capacities([100 + i % 7 for i in range(300)], prefix="w")
        with on_leg(leg):
            for bins in (self.BINS, wide):
                batch, decoded = self.served(bins)
                placements = decoded["placements"]
                assert placements.counts() == batch.counts()
                assert placements.tuples() == batch.tuples()
                assert list(placements) == batch.tuples()
                assert decoded == {"placements": batch}
