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

__all__ = ["SoifObject", "dump_soif", "parse_soif", "parse_soif_stream"]


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

    def get_all(self, name: str) -> list[str]:
        """All values for ``name``, in order."""
        wanted = name.lower()
        return [value for key, value in self._pairs if key.lower() == wanted]

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


def dump_soif(objects: Iterable[SoifObject]) -> str:
    """Serialize several SOIF objects as one stream."""
    return "\n".join(obj.dump() for obj in objects)


#: ASCII whitespace, exactly the bytes ``bytes.isspace()`` accepts.
_skip_whitespace = re.compile(rb"[ \t\n\r\x0b\x0c]*").match


def _read_object(data: bytes, pos: int) -> tuple[SoifObject, int]:
    """Read the object whose ``@`` should sit at ``pos``.

    Returns it with the offset of the next non-whitespace byte.  Byte
    counts refer to UTF-8 bytes, so the walk is over ``bytes``; each
    template, name and value is decoded on its own.
    """
    end = len(data)
    find = data.find
    template = name = None
    try:
        if pos >= end or data[pos] != 0x40:  # "@"
            raise SoifSyntaxError("SOIF object must start with '@'")
        brace = find(b"{", pos)
        if brace < 0:
            raise SoifSyntaxError("missing b'{' in SOIF input")
        template = data[pos + 1 : brace].strip().decode("utf-8")
        if not template:
            raise SoifSyntaxError("empty SOIF template name")
        pairs: list[tuple[str, str]] = []
        pos = brace + 1
        while True:
            pos = _skip_whitespace(data, pos).end()
            if pos >= end:
                raise SoifSyntaxError(f"unterminated SOIF object @{template}")
            if data[pos] == 0x7D:  # "}"
                pos = _skip_whitespace(data, pos + 1).end()
                return SoifObject(template, pairs), pos
            brace = find(b"{", pos)
            if brace < 0:
                raise SoifSyntaxError("missing b'{' in SOIF input")
            name = data[pos:brace].strip().decode("utf-8")
            pos = find(b"}", brace)
            if pos < 0:
                raise SoifSyntaxError("missing b'}' in SOIF input")
            count_text = data[brace + 1 : pos].strip().decode("utf-8")
            try:
                count = int(count_text)
            except ValueError:
                raise SoifSyntaxError(
                    f"bad byte count {count_text!r} for attribute {name!r}"
                ) from None
            if count < 0:
                raise SoifSyntaxError(f"negative byte count for attribute {name!r}")
            pos += 1
            if pos >= end or data[pos] != 0x3A:  # ":"
                raise SoifSyntaxError(f"expected ':' after {name}{{{count}}}")
            # Exactly one space conventionally follows the colon; accept
            # its absence for robustness.
            pos += 2 if data[pos + 1 : pos + 2] == b" " else 1
            value_end = pos + count
            if value_end > end:
                raise SoifSyntaxError("truncated SOIF value")
            pairs.append((name, data[pos:value_end].decode("utf-8")))
            pos = value_end
    except UnicodeDecodeError:
        raise SoifSyntaxError(
            f"non-UTF-8 bytes in SOIF object @{template} at or after attribute {name!r}"
        ) from None


def _as_bytes(text: str | bytes) -> bytes:
    return text.encode("utf-8") if isinstance(text, str) else text


def parse_soif(text: str | bytes) -> SoifObject:
    """Parse exactly one SOIF object.

    Raises:
        SoifSyntaxError: on malformed input or trailing non-whitespace.
    """
    data = _as_bytes(text)
    obj, pos = _read_object(data, _skip_whitespace(data).end())
    if pos < len(data):
        raise SoifSyntaxError("trailing data after SOIF object")
    return obj


def parse_soif_stream(text: str | bytes) -> list[SoifObject]:
    """Parse a stream of SOIF objects (e.g. SQResults + SQRDocuments)."""
    data = _as_bytes(text)
    objects: list[SoifObject] = []
    pos = _skip_whitespace(data).end()
    while pos < len(data):
        obj, pos = _read_object(data, pos)
        objects.append(obj)
    return objects
