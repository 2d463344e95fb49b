"""Canonical key encoding for cross-process partition placement.

Hash partitioning is only deterministic if the bytes being hashed are a
pure function of the key's *value*.  ``repr`` is not: the default
``object.__repr__`` embeds ``id()``, so two processes (a forked map
worker and the driver, say) would place the same key in different
partitions.  This module defines the canonical, process-independent
encoding both the engine's default partitioner and the GDPT
:class:`~repro.gdpt.partitioner.GroupPartitioner` hash.

Canonical key types are ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes`` and (recursively) ``tuple``; anything else raises so the
instability is caught at the first record, not as silent misplacement.
"""

from __future__ import annotations

import operator
import struct
import zlib
from typing import Any, Callable, Optional, Tuple

from repro.errors import PartitioningError

#: The halves of a ``(key, value)`` record, as C accessors.
KEY_OF, VALUE_OF = operator.itemgetter(0), operator.itemgetter(1)

#: Python types with a canonical byte encoding (tuples recurse).
CANONICAL_KEY_TYPES = (type(None), bool, int, float, str, bytes, tuple)


def canonical_key_bytes(key: Any) -> bytes:
    """Encode a key as type-tagged bytes, identically in every process.

    The tag byte keeps different types from colliding (``1`` vs
    ``"1"`` vs ``(1,)``) and tuples frame their arity so nesting is
    unambiguous.  Raises :class:`PartitioningError` for any type whose
    encoding would not be value-determined.
    """
    if key is None:
        return b"n:"
    if isinstance(key, bool):  # before int: True is an int subclass
        return b"b:1" if key else b"b:0"
    if isinstance(key, int):
        return b"i:%d" % key
    if isinstance(key, float):
        return b"f:" + struct.pack(">d", key)
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return b"y:" + bytes(key)
    if isinstance(key, tuple):
        parts = [canonical_key_bytes(item) for item in key]
        framed = b"".join(
            struct.pack(">I", len(part)) + part for part in parts
        )
        return b"t:" + struct.pack(">I", len(parts)) + framed
    raise PartitioningError(
        f"key {key!r} of type {type(key).__name__} has no canonical "
        "encoding; use None/bool/int/float/str/bytes or tuples of those "
        "so partition placement is stable across processes"
    )


def stable_hash_partition(key: Any, num_partitions: int) -> int:
    """Process-independent hash partition of a canonical key: always
    ``crc32(canonical_key_bytes(key))``, never ``hash()``.  An exact
    ``str`` (read names, contig names, words) is encoded inline."""
    if type(key) is str:
        return zlib.crc32(b"s:" + key.encode("utf-8")) % num_partitions
    return zlib.crc32(canonical_key_bytes(key)) % num_partitions


def record_key(
    sort_key: Optional[Callable[[Any], Any]],
) -> Callable[[Tuple[Any, Any]], Any]:
    """A job's ordering as a sort key over its ``(key, value)`` records —
    the one every sort and merge of them uses: the key itself without a
    ``sort_key`` (:data:`KEY_OF`), else ``sort_key`` of the key."""
    if sort_key is None:
        return KEY_OF
    return lambda record: sort_key(record[0])
