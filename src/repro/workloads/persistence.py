"""Trace persistence: save and replay request traces as JSON lines.

Experiments become comparable across machines and runs when the exact
trace is an artifact.  One JSON object per line keeps files streamable and
diff-friendly::

    {"op": "write", "address": 17, "seed": 1}
    {"op": "read", "address": 17}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from .traces import Op, Request

PathLike = Union[str, Path]


def dump_trace(trace: Iterable[Request], path: PathLike) -> int:
    """Write a trace to ``path`` (JSON lines).

    Returns:
        Number of requests written.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for request in trace:
            record = {"op": request.op.value, "address": request.address}
            if request.op is Op.WRITE:
                record["seed"] = request.payload_seed
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def _is_int(value: object) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _request(record: object) -> Request:
    """The request one decoded trace line describes."""
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    op = record.get("op")
    if op not in ("read", "write"):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    address = record.get("address")
    if not _is_int(address) or address < 0:
        raise ValueError(f"address must be a non-negative integer, got {address!r}")
    seed = record.get("seed", 0)
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if op == "write":
        return Request(Op.WRITE, address, payload_seed=seed)
    return Request(Op.READ, address)


def load_trace(path: PathLike) -> Iterator[Request]:
    """Stream a trace back from ``path``.

    Every non-blank line must be a JSON object whose ``op`` is ``"read"``
    or ``"write"``, whose ``address`` is a JSON integer ``>= 0`` and whose
    ``seed``, when present, is a JSON integer.

    Raises:
        ValueError: naming ``path:line`` for any other line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                request = _request(json.loads(line))
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: malformed trace line: {error}"
                ) from None
            yield request
