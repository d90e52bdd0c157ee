"""Canonical byte encoding shared by documents, credentials, and handshake messages.

Canonical form is UTF-8 JSON with lexicographically sorted keys, no
insignificant whitespace, and arrays kept in insertion order. Binary fields
are lowercase hex strings. Serializing the same value twice is byte-identical,
which is what self-certifying identifiers and signatures rely on.
"""

from __future__ import annotations

import json
from typing import Any


class EncodingError(ValueError):
    """Raised when bytes cannot be decoded into the expected structure."""


def canonical_bytes(value: Any) -> bytes:
    """Serialize a JSON-compatible value to its canonical byte form."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def from_canonical(raw: bytes) -> Any:
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EncodingError(f"not canonical structured text: {exc}") from exc


def from_hex(text: str, expected_len: int | None = None) -> bytes:
    if not isinstance(text, str):
        raise EncodingError(f"expected hex string, got {type(text).__name__}")
    # Canonical form is lowercase; accepting 'AB' for 'ab' would let two
    # distinct byte strings decode to the same value.
    if any(c not in "0123456789abcdef" for c in text):
        raise EncodingError(f"non-canonical hex: {text!r}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise EncodingError(f"invalid hex: {text!r}") from exc
    if expected_len is not None and len(raw) != expected_len:
        raise EncodingError(f"expected {expected_len} bytes, got {len(raw)}")
    return raw


# Bitcoin base58 alphabet: no 0/O/I/l, URL-safe.
_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {char: i for i, char in enumerate(_B58_ALPHABET)}


def base58_encode(raw: bytes) -> str:
    n = int.from_bytes(raw, "big")
    encoded = ""
    while n:
        n, rem = divmod(n, 58)
        encoded = _B58_ALPHABET[rem] + encoded
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + encoded


def is_base58(text: str) -> bool:
    return bool(text) and all(char in _B58_INDEX for char in text)
