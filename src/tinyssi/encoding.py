"""The two byte forms of every record: canonical JSON, and the compact wire form.

Canonical form is UTF-8 JSON with lexicographically sorted keys, no
insignificant whitespace, and arrays kept in insertion order. Binary fields
are lowercase hex strings. Serializing the same value twice is byte-identical,
which is what self-certifying identifiers and signatures rely on: canonical
JSON is the form that is signed, hashed and stored.

Wire form is deterministic CBOR (RFC 8949 section 4.2), the form handshake
messages travel in, limited to the items their records hold: unsigned and
negative integers, byte strings, text, arrays, and false, true and null. A
record is an array of its fields in declared order, with no names, and a
record of one field travels as that field; bytes travel raw as a byte
string. A value that declares a `WireForm`, by its type's `WIRE` (a DID, a
document's key, a verdict) or as `Annotated[str, form]` (a DID claim value,
a default-shaped key id, an issued credential id), travels as its `write`;
a reader refuses a wire value that `write(read(value))` does not give back,
so each value has one form. Integers and lengths take the shortest head.
`from_cbor` accepts exactly these bytes and refuses the rest of CBOR: maps,
tags, floats and every other simple value, indefinite lengths, trailing bytes
and invalid UTF-8; `item_end` finds where one such item ends within longer
bytes, as a CBOR sequence (RFC 8742) is read. `cbor_bytes` likewise refuses
a dict or a float, so a record with such a field (a scenario file's) has no
wire form.

Records (dataclasses: documents, credentials, wallet and registry contents,
handshake messages) map to both forms through their fields alone, by one plan
per type and form, built once from `typing.get_type_hints` and cached.
`encode` writes the canonical form, each field under its own name: bytes as
lowercase hex, a type with a `from_text` constructor (a DID) as its text,
tuples and lists as arrays, nested records as mappings. `pack` writes the
wire form. `decode` and `unpack` read them back strictly: exactly the
declared fields, each of its declared type (`bool` is not `int`). A record's
constructor signals a broken invariant with a ValueError, which decoding
reports as an EncodingError. A wire decode gives the identical record, so its
canonical bytes, and every digest and signature over them, do not change.
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
_B58_VALUES = {char: value for value, char in enumerate(_B58_ALPHABET)}


def base58_encode(raw: bytes) -> str:
    n = int.from_bytes(raw, "big")
    encoded = ""
    while n:
        n, rem = divmod(n, 58)
        encoded = _B58_ALPHABET[rem] + encoded
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + encoded


def base58_decode(text: str) -> bytes:
    """The bytes that base58_encode wrote as `text`; text must be base58."""
    n = 0
    for char in text:
        n = n * 58 + _B58_VALUES[char]
    pad = len(text) - len(text.lstrip("1"))
    return bytes(pad) + n.to_bytes((n.bit_length() + 7) // 8, "big")


def is_base58(text: str) -> bool:
    return bool(text) and _B58_VALUES.keys() >= set(text)


# ---------------------------------------------------------------------------
# Deterministic CBOR (RFC 8949 section 4.2)
# ---------------------------------------------------------------------------

_UINT, _NEGINT, _BYTES, _TEXT, _ARRAY, _MAP, _TAG, _SIMPLE = range(8)
_FALSE, _TRUE, _NULL = 20, 21, 22
# The least argument each head size (additional information 24..27) may carry.
_HEAD_MIN = {24: 24, 25: 1 << 8, 26: 1 << 16, 27: 1 << 32}


def cbor_bytes(value: Any) -> bytes:
    """The deterministic CBOR of a value made of None, bool, int, bytes, str and
    lists (or tuples)."""
    out = bytearray()
    _write(out, value)
    return bytes(out)


def _head(out: bytearray, major: int, n: int) -> None:
    """The shortest head of a major type and its argument n."""
    if n < 24:
        out.append(major << 5 | n)
        return
    for info in _HEAD_MIN:
        size = 1 << (info - 24)
        if n >> (8 * size) == 0:
            out.append(major << 5 | info)
            out += n.to_bytes(size, "big")
            return
    raise EncodingError(f"integer {n} does not fit a CBOR head")


def _write(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is bytes:
        _head(out, _BYTES, len(value))
        out += value
    elif kind is str:
        raw = value.encode("utf-8")
        _head(out, _TEXT, len(raw))
        out += raw
    elif kind is int:
        if value >= 0:
            _head(out, _UINT, value)
        else:
            _head(out, _NEGINT, -1 - value)
    elif kind is list or kind is tuple:
        _head(out, _ARRAY, len(value))
        for item in value:
            _write(out, item)
    elif value is None:
        out.append(_SIMPLE << 5 | _NULL)
    elif kind is bool:
        out.append(_SIMPLE << 5 | (_TRUE if value else _FALSE))
    else:
        raise EncodingError(f"{kind.__name__} is not part of the wire form")


def from_cbor(raw: bytes) -> Any:
    """Parse exactly one deterministic CBOR item; anything else is an EncodingError."""
    raw = bytes(raw)
    value, end = _read_top(raw, 0)
    if end != len(raw):
        raise EncodingError(f"{len(raw) - end} trailing bytes after the CBOR item")
    return value


def item_end(raw: bytes, at: int = 0) -> int:
    """Where the deterministic CBOR item that starts at `at` ends; anything
    else there is an EncodingError."""
    return _read_top(raw, at)[1]


def _read_top(raw: bytes, at: int) -> tuple[Any, int]:
    """_read_item, with nesting too deep for the stack an EncodingError."""
    try:
        return _read_item(raw, at)
    except RecursionError as exc:
        raise EncodingError("CBOR nested too deeply") from exc


def _take(raw: bytes, at: int, n: int) -> int:
    """Where n bytes from `at` end; they must all be there."""
    end = at + n
    if end > len(raw):
        raise EncodingError("truncated CBOR")
    return end


def _read_item(raw: bytes, at: int) -> tuple[Any, int]:
    """The item at `at` and where it ends."""
    _take(raw, at, 1)
    initial = raw[at]
    major, info, at = initial >> 5, initial & 0x1F, at + 1
    if major == _SIMPLE:
        if info in (_FALSE, _TRUE, _NULL):
            return (False, True, None)[info - _FALSE], at
        raise EncodingError(f"CBOR float or simple 0x{initial:02x} is not part of the wire form")
    if info < 24:
        n = info
    elif info in _HEAD_MIN:
        end = _take(raw, at, 1 << (info - 24))
        n, at = int.from_bytes(raw[at:end], "big"), end
        if n < _HEAD_MIN[info]:
            raise EncodingError(f"non-shortest CBOR head for {n}")
    else:
        raise EncodingError(f"indefinite length or reserved CBOR head 0x{initial:02x}")
    if major == _UINT:
        return n, at
    if major == _NEGINT:
        return -1 - n, at
    if major in (_BYTES, _TEXT):
        end = _take(raw, at, n)
        if major == _BYTES:
            return raw[at:end], end
        try:
            return raw[at:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-8 in CBOR text: {exc}") from exc
    if major == _ARRAY:
        items = []
        for _ in range(n):
            item, at = _read_item(raw, at)
            items.append(item)
        return items, at
    raise EncodingError("CBOR maps and tags are not part of the wire form")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class WireForm(typing.NamedTuple):
    """A value's wire form: `write` gives a value of the declared type `form`, `read` undoes it."""

    form: Any
    write: Callable[[Any], Any]
    read: Callable[[Any], Any]

    @staticmethod
    def of(tp: Any) -> WireForm | None:
        """The form a value declared as `tp` travels in: its field's, else its type's."""
        if typing.get_origin(tp) is typing.Annotated:
            return tp.__metadata__[0]
        return getattr(tp, "WIRE", None)

    def value_of(self, wire_value: Any) -> Any:
        """The value a wire value names, refused unless `write` gives it back."""
        value = _construct(self.read, wire_value)
        if _construct(self.write, value) != wire_value:
            raise EncodingError(f"{value!r} has another wire form than {wire_value!r}")
        return value


def text_as_bytes(build: Callable[[bytes], str], raw_of: Callable[[str], bytes]) -> WireForm:
    """The form of text that `build(raw)` makes, which travels as `raw`: `raw_of`
    finds it (or raises a ValueError). Any other text travels as itself."""

    def write(text: str) -> bytes | str:
        try:
            raw = raw_of(text)
        except ValueError:
            return text
        return raw if build(raw) == text else text

    return WireForm(bytes | str, write, lambda w: build(w) if type(w) is bytes else w)


def hex_id(size: int, build: Callable[[bytes], str]) -> WireForm:
    """The form of an id that `build` makes from `size` bytes, their hex last."""
    return text_as_bytes(build, lambda text: bytes.fromhex(text[-2 * size :]))


def encode(value: Any) -> Any:
    """The canonical form of a record, or of any value a record field holds."""
    return _laid_out(value, False)


def pack(value: Any) -> bytes:
    """The wire bytes of a record, or of any value a record field holds."""
    return cbor_bytes(_laid_out(value, True))


def _laid_out(value: Any, wire: bool) -> Any:
    layout = _encoder(type(value), wire)
    return value if layout is None else layout(value)


@functools.cache
def _encoder(tp: Any, wire: bool) -> Callable[[Any], Any] | None:
    """How a value declared as `tp` is laid out in canonical (or, if `wire`, wire)
    form; None when it is its own layout."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    # A value whose type is known only at run time is laid out by that type.
    by_value = functools.partial(_laid_out, wire=wire)
    if origin in (types.UnionType, typing.Union):
        return by_value
    if wire and (form := WireForm.of(tp)):
        return lambda value: _laid_out(_construct(form.write, value), True)
    if origin in (tuple, list):
        item = _encoder(args[0], wire) if args else by_value
        return list if item is None else lambda items: [item(v) for v in items]
    if origin is dict:
        item = _encoder(args[1], wire) if args else by_value
        return dict if item is None else lambda mapping: {k: item(v) for k, v in mapping.items()}
    if tp is bytes:
        return None if wire else bytes.hex
    if not wire and hasattr(tp, "from_text"):
        return str
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp, include_extras=wire)
        plan = [(f.name, _encoder(hints[f.name], wire)) for f in dataclasses.fields(tp)]

        def field_values(record: Any) -> list[Any]:
            return [
                getattr(record, name) if write is None else write(getattr(record, name))
                for name, write in plan
            ]

        if wire:
            if len(plan) == 1:
                return lambda record: field_values(record)[0]
            return field_values
        names = [name for name, _ in plan]
        return lambda record: dict(zip(names, field_values(record)))
    if tp in (str, int, float, bool, type(None)):
        return None
    raise TypeError(f"no canonical form for {tp!r}")


def decode(tp: Any, value: Any) -> Any:
    """Read a canonical value back as type `tp`; raises EncodingError."""
    return _decoder(tp, False)(value)


def unpack(tp: Any, raw: bytes) -> Any:
    """Read wire bytes back as type `tp`; raises EncodingError."""
    return _decoder(tp, True)(from_cbor(raw))


@functools.cache
def _decoder(tp: Any, wire: bool) -> Callable[[Any], Any]:
    """How a canonical (or, if `wire`, a parsed wire) value is read back as `tp`;
    a bad value raises EncodingError."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        return _union_decoder(tp, [_decoder(arg, wire) for arg in args])
    if wire and (form := WireForm.of(tp)):
        read = _decoder(form.form, True)
        return lambda value: form.value_of(read(value))
    if origin in (tuple, list):
        item = _decoder(args[0], wire)
        return lambda value: origin(item(v) for v in _exactly(list, value))
    if origin is dict:
        item = _decoder(args[1], wire)
        return lambda value: {key: item(v) for key, v in _exactly(dict, value).items()}
    if tp is bytes and not wire:
        # Looked up per call, so a rebinding of from_hex (a tracer) sees every decode.
        return lambda value: from_hex(value)
    if tp is Any:
        return lambda value: value
    if tp is float and not wire:
        return lambda value: float(value if type(value) is int else _exactly(float, value))
    if tp in (bytes, str, int, float, bool, type(None)):
        return functools.partial(_exactly, tp)
    if not wire and hasattr(tp, "from_text"):
        return lambda value: _construct(tp.from_text, _exactly(str, value))
    if dataclasses.is_dataclass(tp):
        return _record_decoder(tp, wire)
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


def _record_decoder(tp: type, wire: bool) -> Callable[[Any], Any]:
    hints = typing.get_type_hints(tp, include_extras=wire)
    readers = [(f.name, _decoder(hints[f.name], wire)) for f in dataclasses.fields(tp)]
    names = frozenset(name for name, _ in readers)

    def field_values(value: Any) -> list[Any]:
        """The record's field values in declared order: an array (the value
        itself for a record of one field), or a mapping by name."""
        if wire:
            if len(readers) == 1:
                return [value]
            if type(value) is not list:
                raise EncodingError(f"{tp.__name__} must be an array, got {type(value).__name__}")
            if len(value) != len(readers):
                raise EncodingError(f"{tp.__name__} has {len(readers)} fields, got {len(value)}")
            return value
        if type(value) is not dict:
            raise EncodingError(f"{tp.__name__} must be a mapping, got {type(value).__name__}")
        if value.keys() != names:
            problems = [f"unknown field {n!r}" for n in sorted(value.keys() - names)]
            problems += [f"missing field {n!r}" for n in sorted(names - value.keys())]
            raise EncodingError(f"{tp.__name__}: {', '.join(problems)}")
        return [value[name] for name, _ in readers]

    def decode_record(value: Any) -> Any:
        kwargs = {}
        for (name, read), field_value in zip(readers, field_values(value)):
            try:
                kwargs[name] = read(field_value)
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
