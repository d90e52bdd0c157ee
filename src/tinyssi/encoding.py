"""Canonical byte encoding shared by documents, credentials, and handshake messages.

Canonical form is UTF-8 JSON with lexicographically sorted keys, no
insignificant whitespace, and arrays kept in insertion order. Binary fields
are lowercase hex strings. Serializing the same value twice is byte-identical,
which is what self-certifying identifiers and signatures rely on.

Records (dataclasses: documents, credentials, wallet and registry contents)
map to canonical form through their fields alone. `encode` writes each field
under its own name: bytes as lowercase hex, a type with a `from_text`
constructor (a DID) as its text, tuples and lists as arrays, nested records
as mappings. `decode` reads it back strictly: exactly the declared fields,
each of its declared type (`bool` is not `int`). A record's constructor
signals a broken invariant with a ValueError, which decoding reports as an
EncodingError. The decoder for each type is built once and cached.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Callable


class EncodingError(ValueError):
    """Raised when bytes cannot be decoded into the expected structure."""


def canonical_bytes(value: Any) -> bytes:
    """Serialize a JSON-compatible value to its canonical byte form."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def from_canonical(raw: bytes) -> Any:
    """Parse canonical bytes; over-long integers and deep nesting fail too."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise EncodingError(f"not canonical structured text: {exc}") from exc


def from_hex(text: str) -> bytes:
    if not isinstance(text, str):
        raise EncodingError(f"expected hex string, got {type(text).__name__}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise EncodingError(f"invalid hex: {text!r}") from exc
    # Canonical form is lowercase without spaces; accepting 'AB' for 'ab' would
    # let two distinct byte strings decode to the same value.
    if raw.hex() != text:
        raise EncodingError(f"non-canonical hex: {text!r}")
    return raw


# Bitcoin base58 alphabet: no 0/O/I/l, URL-safe.
_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_CHARS = frozenset(_B58_ALPHABET)


def base58_encode(raw: bytes) -> str:
    n = int.from_bytes(raw, "big")
    encoded = ""
    while n:
        n, rem = divmod(n, 58)
        encoded = _B58_ALPHABET[rem] + encoded
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + encoded


def is_base58(text: str) -> bool:
    return bool(text) and _B58_CHARS.issuperset(text)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def encode(value: Any) -> Any:
    """The canonical form of a record, or of any value a record field holds."""
    encoder = _encoder(type(value))
    return value if encoder is None else encoder(value)


@functools.cache
def _encoder(tp: Any) -> Callable[[Any], Any] | None:
    """How a value declared as `tp` is written; None when it is its own canonical form."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        return encode
    if origin in (tuple, list):
        item = _encoder(args[0]) if args else encode
        return list if item is None else lambda items: [item(v) for v in items]
    if origin is dict:
        item = _encoder(args[1]) if args else encode
        return dict if item is None else lambda mapping: {k: item(v) for k, v in mapping.items()}
    if tp is bytes:
        return bytes.hex
    if hasattr(tp, "from_text"):
        return str
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        plan = [(f.name, _encoder(hints[f.name])) for f in dataclasses.fields(tp)]
        return lambda record: {
            name: getattr(record, name) if write is None else write(getattr(record, name))
            for name, write in plan
        }
    if tp in (str, int, float, bool, type(None)):
        return None
    raise TypeError(f"no canonical form for {tp!r}")


def decode(tp: Any, value: Any) -> Any:
    """Read a canonical value back as type `tp`; raises EncodingError."""
    return _decoder(tp)(value)


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    """How a canonical value is read back as `tp`; a bad value raises EncodingError."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        return _union_decoder(tp, [_decoder(arg) for arg in args])
    if origin in (tuple, list):
        item = _decoder(args[0])
        return lambda value: origin(item(v) for v in _exactly(list, value))
    if origin is dict:
        item = _decoder(args[1])
        return lambda value: {key: item(v) for key, v in _exactly(dict, value).items()}
    if tp is bytes:
        # Looked up per call, so a rebinding of from_hex (a tracer) sees every decode.
        return lambda value: from_hex(value)
    if tp is Any:
        return lambda value: value
    if tp is float:
        return lambda value: float(value if type(value) is int else _exactly(float, value))
    if tp in (str, int, bool, type(None)):
        return functools.partial(_exactly, tp)
    if hasattr(tp, "from_text"):
        return lambda value: _construct(tp.from_text, _exactly(str, value))
    if dataclasses.is_dataclass(tp):
        return _record_decoder(tp)
    raise TypeError(f"no canonical form for {tp!r}")


def _exactly(tp: type, value: Any) -> Any:
    if type(value) is not tp:
        raise EncodingError(f"expected {tp.__name__}, got {type(value).__name__}")
    return value


def _construct(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call a constructor; the ValueError of a broken invariant is an EncodingError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise EncodingError(str(exc)) from exc


def _union_decoder(tp: Any, options: list[Callable[[Any], Any]]) -> Callable[[Any], Any]:
    def decode_union(value: Any) -> Any:
        errors = []
        for option in options:
            try:
                return option(value)
            except EncodingError as exc:
                errors.append(str(exc))
        raise EncodingError(f"not a {tp}: " + " / ".join(errors))

    return decode_union


def _record_decoder(tp: type) -> Callable[[Any], Any]:
    hints = typing.get_type_hints(tp)
    readers = [(f.name, _decoder(hints[f.name])) for f in dataclasses.fields(tp)]
    names = frozenset(name for name, _ in readers)

    def decode_record(value: Any) -> Any:
        if type(value) is not dict:
            raise EncodingError(f"{tp.__name__} must be a mapping, got {type(value).__name__}")
        if value.keys() != names:
            problems = [f"unknown field {n!r}" for n in sorted(value.keys() - names)]
            problems += [f"missing field {n!r}" for n in sorted(names - value.keys())]
            raise EncodingError(f"{tp.__name__}: {', '.join(problems)}")
        kwargs = {}
        for name, read in readers:
            try:
                kwargs[name] = read(value[name])
            except EncodingError as exc:
                raise EncodingError(f"{name}: {exc}") from exc
        return _construct(tp, **kwargs)

    return decode_record


class Record:
    """Base of a dataclass record: its canonical mapping and bytes come from its fields.

    `decode_error` is the exception a malformed mapping or byte string raises.
    """

    decode_error: type[ValueError] = EncodingError

    def to_mapping(self) -> dict[str, Any]:
        return encode(self)

    def to_bytes(self) -> bytes:
        return canonical_bytes(encode(self))

    @classmethod
    def from_mapping(cls, mapping: Any) -> Any:
        try:
            return decode(cls, mapping)
        except EncodingError as exc:
            raise cls.decode_error(str(exc)) from exc

    @classmethod
    def from_bytes(cls, raw: bytes) -> Any:
        try:
            mapping = from_canonical(raw)
        except EncodingError as exc:
            raise cls.decode_error(str(exc)) from exc
        return cls.from_mapping(mapping)
