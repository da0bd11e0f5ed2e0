"""SOIF: the byte-counted attribute-value encoding STARTS examples use.

The paper encodes STARTS content in Harvest's SOIF "just to illustrate
how our content could be delivered" — the protocol allows other
encodings, but SOIF is the one the specification's examples are written
in, so it is the reproduction's wire format.  A SOIF object looks like:

.. code-block:: text

    @SQuery{
    Version{10}: STARTS 1.0
    FilterExpression{48}: ((author "Ullman") and
    (title stem "databases"))
    }

``{48}`` is the *byte* length of the value (UTF-8), "to facilitate
parsing": values may span lines and contain any characters, and the
reader consumes exactly the declared number of bytes.  Attribute order
is significant and names may repeat (the content-summary object repeats
``Field``/``Language``/``TermDocFreq`` sections), so the object model
is an ordered list of (name, value) pairs with dict-style helpers.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from repro.starts.errors import SoifSyntaxError

__all__ = ["SoifObject", "parse_soif", "parse_soif_stream"]


def attribute_line(name: str, value: str) -> str:
    """One ``name{bytes}: value`` line — the only place a byte count is
    computed.  An ASCII value's length is its byte count; only other
    values are encoded to be counted."""
    nbytes = len(value) if value.isascii() else len(value.encode("utf-8"))
    return f"{name}{{{nbytes}}}: {value}"


class SoifObject:
    """An ordered multi-map with a template type (e.g. ``SQuery``)."""

    def __init__(
        self,
        template: str,
        attributes: Iterable[tuple[str, str]] = (),
    ) -> None:
        self.template = template
        self._pairs: list[tuple[str, str]] = list(attributes)

    # -- building -------------------------------------------------------

    def add(self, name: str, value: str) -> "SoifObject":
        """Append an attribute; returns self for chaining."""
        self._pairs.append((name, value))
        return self

    # -- reading ----------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """First value for ``name`` (case-insensitive), or ``default``."""
        wanted = name.lower()
        for key, value in self._pairs:
            if key.lower() == wanted:
                return value
        return default

    def __getitem__(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def pairs(self) -> list[tuple[str, str]]:
        """The (name, value) pairs in wire order."""
        return list(self._pairs)

    def names(self) -> list[str]:
        return [name for name, _ in self._pairs]

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SoifObject):
            return NotImplemented
        return self.template == other.template and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"SoifObject({self.template!r}, {len(self._pairs)} attributes)"

    # -- serialization -------------------------------------------------------

    def dump(self) -> str:
        """Render to SOIF text with correct byte counts."""
        lines = [f"@{self.template}{{"]
        lines.extend(attribute_line(name, value) for name, value in self._pairs)
        lines.append("}")
        return "\n".join(lines) + "\n"


#: ASCII whitespace, exactly the bytes ``bytes.isspace()`` accepts.
#: Every quantifier below is possessive, so garbage fails in one scan.
_WHITESPACE = rb"[ \t\n\r\x0b\x0c]*+"
_skip_whitespace = re.compile(_WHITESPACE).match
_object_start = re.compile(rb"@([^{]*+)\{").match
#: Past any whitespace: the ``}`` that closes an object (group 1), or
#: one attribute header ``name{count}:`` (groups 2 and 3) with the one
#: space that conventionally follows the colon — accepted when absent,
#: for robustness.
_next_attribute = re.compile(
    _WHITESPACE + rb"(?:(\})|([^{]*+)\{([^}]*+)\}:\ ?)"
).match

#: One attribute of a walked object: ``(name, value_start, value_end)``.
Span = tuple[str, int, int]


def _read_object(data: bytes, pos: int, names: dict) -> tuple[str, list[Span], int]:
    """Walk the object whose ``@`` should sit at ``pos`` of ``data``,
    which is valid UTF-8 as a whole (:func:`_read_stream` checks).

    Returns its template, its attributes' spans and the offset of the
    next non-whitespace byte.  Byte counts refer to UTF-8 bytes, so the
    walk is over ``bytes``.  Every framing rule is enforced here and no
    value is decoded: a value's ends fall between characters, so
    ``data[value_start:value_end]`` decodes for whoever wants it,
    whenever.  ``names`` memoizes raw name bytes -> name for the
    caller's one stream, whose objects repeat the same few names.
    """
    opening = _object_start(data, pos)
    if opening is None:
        raise SoifSyntaxError(f"no '@template{{' opens a SOIF object at offset {pos}")
    template = opening[1].strip().decode()
    if not template:
        raise SoifSyntaxError("empty SOIF template name")
    spans: list[Span] = []
    add = spans.append
    pos, end = opening.end(), len(data)
    while True:
        header = _next_attribute(data, pos)
        if header is None:
            raise SoifSyntaxError(
                f"SOIF object @{template} has neither a 'name{{count}}:' "
                f"header nor its closing '}}' at offset {pos}"
            )
        raw_name, raw_count = header.group(2, 3)
        if raw_name is None:
            return template, spans, _skip_whitespace(data, header.end()).end()
        name = names.get(raw_name)
        if name is None:
            name = names[raw_name] = raw_name.strip().decode()
        try:
            # Not ASCII digits alone: as text, where ``int`` takes any Unicode digit.
            count = int(raw_count if raw_count.isdigit() else raw_count.decode())
        except ValueError:
            raise SoifSyntaxError(
                f"bad byte count {raw_count!r} for attribute {name!r}"
            ) from None
        pos = header.end()
        value_end = pos + count
        # After its last value an object still needs its closing brace.
        if count < 0 or value_end >= end:
            raise SoifSyntaxError(
                f"byte count {count} of attribute {name!r} does not fit the input"
            )
        if data[value_end] & 0xC0 == 0x80:
            raise SoifSyntaxError(
                f"byte count of attribute {name!r} ends inside a character"
            )
        add((name, pos, value_end))
        pos = value_end


def _read_stream(text: str | bytes) -> tuple[bytes, list[tuple[int, str, list[Span]]]]:
    """The UTF-8 bytes of a stream, checked once as a whole, and per
    object in it the offset of its ``@``, its template and its spans."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as error:
        before = data[max(0, error.start - 40) : error.start]
        raise SoifSyntaxError(
            f"non-UTF-8 bytes in SOIF input at offset {error.start}, after {before!r}"
        ) from None
    objects = []
    names: dict[bytes, str] = {}
    pos = _skip_whitespace(data).end()
    while pos < len(data):
        template, spans, after = _read_object(data, pos, names)
        objects.append((pos, template, spans))
        pos = after
    return data, objects


def parse_soif_stream(text: str | bytes) -> list[SoifObject]:
    """Parse a stream of SOIF objects (e.g. SQResults + SQRDocuments)."""
    data, objects = _read_stream(text)
    return [
        SoifObject(template, [(name, data[a:b].decode()) for name, a, b in spans])
        for _, template, spans in objects
    ]


def parse_soif(text: str | bytes) -> SoifObject:
    """Parse exactly one SOIF object.

    Raises:
        SoifSyntaxError: on malformed input or anything but whitespace
            around the object.
    """
    objects = parse_soif_stream(text)
    if len(objects) != 1:
        raise SoifSyntaxError(f"expected one SOIF object, found {len(objects)}")
    return objects[0]
