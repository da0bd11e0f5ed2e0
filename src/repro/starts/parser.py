"""Recursive-descent parser for STARTS filter and ranking expressions.

Grammar (Section 4.1.1, reconstructed from the specification prose and
the paper's Examples 1–7):

.. code-block:: text

    expr     := term
              | "list" "(" expr* ")"                      (ranking only)
              | "(" expr (OP expr)+ ")"                   OP: and|or|and-not
              | "(" term PROX term ")"                    PROX: prox[d,T|F]
              | "(" term-body ")"
    term-body := [field] modifier* lstring [weight]
    field    := WORD | "[" set WORD "]"
    modifier := WORD | "{" set WORD "}"                   (known modifier names)
    lstring  := STRING | "[" langtag STRING "]"
    weight   := NUMBER in (0, 1]
    STRING   := '"' chars '"' | "``" chars "''"        (backslash escapes)

A bare WORD in term position is a field if it is not a known modifier
name; ``(stem "databases")`` therefore reads as the ``stem`` modifier
applied to an ``Any``-field term, while ``(title "databases")`` reads
as a field.  The second STRING form is the paper's typeset quotes, so
its examples parse verbatim.  It opens only where a token starts, so
two backquotes or two apostrophes inside a ``"…"`` string are text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, SProx, STerm
from repro.starts.attributes import BASIC1, FieldRef, ModifierRef
from repro.starts.errors import QuerySyntaxError
from repro.starts.lstring import LString
from repro.text.langtags import parse_language_tag

__all__ = ["parse_expression"]

_TOKEN_RE = re.compile(
    r"""
    (?P<string>"(?:[^"\\]|\\.)*"           # quoted string
      | ``(?:[^'\\]|\\.|'(?!'))*'')        # the paper's ``typeset'' quotes
  | (?P<prox>prox\[\s*\d+\s*,\s*[TFtf]\s*\])
  | (?P<punct>[()\[\]{}])
  | (?P<word>(?:[^\s()\[\]{}"`]++|`(?!`))+)
    """,
    re.VERBOSE,
)

_OPERATORS = frozenset(("and", "or", "and-not"))

_MODIFIER_WORDS = frozenset(BASIC1.modifiers)

_NUMBER_RE = re.compile(r"^(?:\d+\.?\d*|\.\d+)$")

_PROX_RE = re.compile(r"prox\[\s*(\d+)\s*,\s*([TFtf])\s*\]")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "string" | "prox" | "punct" | "word"
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    length = len(text)
    while position < length:
        if text[position].isspace():
            position += 1
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QuerySyntaxError(f"cannot tokenize {text[position:]!r}", position)
        kind = str(match.lastgroup)
        tokens.append(_Token(kind, match.group(0), position))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ------------------------------------------------

    def _peek(self, offset: int = 0) -> _Token | None:
        index = self._pos + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of expression")
        self._pos += 1
        return token

    def _expect(self, value: str) -> _Token:
        token = self._next()
        if token.value != value:
            raise QuerySyntaxError(
                f"expected {value!r}, found {token.value!r}", token.position
            )
        return token

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    # -- grammar ----------------------------------------------------------

    def parse_expression(self) -> SNode:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError("empty expression")
        if token.kind == "word" and token.value.lower() == "list":
            following = self._peek(1)
            if following is not None and following.value == "(":
                return self._parse_list()
        if token.value == "(":
            return self._parse_group()
        # Bare l-string (possibly language-qualified) with implicit Any.
        return STerm(self._parse_lstring())

    def _parse_list(self) -> SList:
        self._next()  # "list"
        self._expect("(")
        children: list[SNode] = []
        while True:
            token = self._peek()
            if token is None:
                raise QuerySyntaxError("unterminated list(...)")
            if token.value == ")":
                self._next()
                return SList(tuple(children))
            children.append(self.parse_expression())

    def _parse_group(self) -> SNode:
        open_token = self._expect("(")
        if self._group_is_compound():
            node = self._parse_compound(open_token)
        else:
            node = self._parse_term_body()
            self._expect(")")
        return node

    def _group_is_compound(self) -> bool:
        """Look ahead (after a consumed '(') for a depth-1 operator."""
        depth = 1
        offset = 0
        while True:
            token = self._peek(offset)
            if token is None:
                return False
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth == 1:
                if token.kind == "prox":
                    return True
                if token.kind == "word" and token.value.lower() in _OPERATORS:
                    return True
            offset += 1

    def _parse_compound(self, open_token: _Token) -> SNode:
        result = self.parse_expression()
        saw_operator = False
        while True:
            token = self._peek()
            if token is None:
                raise QuerySyntaxError("unterminated expression", open_token.position)
            if token.value == ")":
                self._next()
                if not saw_operator:
                    raise QuerySyntaxError(
                        "parenthesized group without operator", open_token.position
                    )
                return result
            saw_operator = True
            if token.kind == "prox":
                self._next()
                match = _PROX_RE.fullmatch(token.value)
                assert match is not None
                distance = int(match.group(1))
                ordered = match.group(2).upper() == "T"
                right = self.parse_expression()
                result = SProx(
                    _require_term(result, token),
                    _require_term(right, token),
                    distance,
                    ordered,
                )
                continue
            operator = token.value.lower()
            if operator not in _OPERATORS:
                raise QuerySyntaxError(
                    f"expected an operator, found {token.value!r}", token.position
                )
            self._next()
            right = self.parse_expression()
            result = _combine(operator, result, right)

    def _parse_term_body(self) -> STerm:
        field: FieldRef | None = None
        modifiers: list[ModifierRef] = []

        while True:
            token = self._peek()
            if token is None:
                raise QuerySyntaxError("unterminated term")
            if token.kind == "string":
                break
            if token.value == "[":
                if self._bracket_is_lstring():
                    break
                field = self._parse_bracketed_field(allow_existing=field)
                continue
            if token.value == "{":
                modifiers.append(self._parse_braced_modifier())
                continue
            if token.kind == "word":
                word = token.value
                if word.lower() in _MODIFIER_WORDS:
                    self._next()
                    modifiers.append(ModifierRef(word.lower()))
                else:
                    if field is not None:
                        raise QuerySyntaxError(
                            f"term has two fields: {field.name!r} and {word!r}",
                            token.position,
                        )
                    if modifiers:
                        raise QuerySyntaxError(
                            f"field {word!r} must precede modifiers", token.position
                        )
                    self._next()
                    field = FieldRef.parse(word)
                continue
            raise QuerySyntaxError(
                f"unexpected token in term: {token.value!r}", token.position
            )

        lstring = self._parse_lstring()
        weight = self._parse_optional_weight()
        return STerm(lstring, field, tuple(modifiers), weight)

    def _bracket_is_lstring(self) -> bool:
        """At '[': is this ``[lang "str"]`` (vs ``[set field]``)?"""
        second = self._peek(2)
        return second is not None and second.kind == "string"

    def _parse_bracketed_field(self, allow_existing: FieldRef | None) -> FieldRef:
        open_token = self._expect("[")
        if allow_existing is not None:
            raise QuerySyntaxError("term has two fields", open_token.position)
        set_token = self._next()
        name_token = self._next()
        if set_token.kind != "word" or name_token.kind != "word":
            raise QuerySyntaxError(
                "field reference needs set and name", open_token.position
            )
        self._expect("]")
        return FieldRef.parse(f"[{set_token.value} {name_token.value}]")

    def _parse_braced_modifier(self) -> ModifierRef:
        open_token = self._expect("{")
        set_token = self._next()
        name_token = self._next()
        if set_token.kind != "word" or name_token.kind != "word":
            raise QuerySyntaxError(
                "modifier reference needs set and name", open_token.position
            )
        self._expect("}")
        return ModifierRef(name_token.value.lower(), set_token.value.lower())

    def _parse_lstring(self) -> LString:
        token = self._next()
        if token.kind == "string":
            return LString(_unescape(token.value))
        if token.value == "[":
            tag_token = self._next()
            string_token = self._next()
            if tag_token.kind != "word" or string_token.kind != "string":
                raise QuerySyntaxError(
                    "language-qualified string needs a tag and a string",
                    token.position,
                )
            self._expect("]")
            return LString(
                _unescape(string_token.value), parse_language_tag(tag_token.value)
            )
        raise QuerySyntaxError(
            f"expected a string, found {token.value!r}", token.position
        )

    def _parse_optional_weight(self) -> float:
        token = self._peek()
        if token is not None and token.kind == "word" and _NUMBER_RE.match(token.value):
            self._next()
            return float(token.value)
        return 1.0


def _unescape(quoted: str) -> str:
    body = quoted[2:-2] if quoted.startswith("``") else quoted[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _require_term(node: SNode, token: _Token) -> STerm:
    if not isinstance(node, STerm):
        raise QuerySyntaxError("prox operands must be atomic terms", token.position)
    return node


def _combine(operator: str, left: SNode, right: SNode) -> SNode:
    """Left-associative folding; same-operator chains stay n-ary."""
    if operator == "and":
        if isinstance(left, SAnd):
            return SAnd(left.children + (right,))
        return SAnd((left, right))
    if operator == "or":
        if isinstance(left, SOr):
            return SOr(left.children + (right,))
        return SOr((left, right))
    return SAndNot(left, right)


def parse_expression(text: str) -> SNode | None:
    """Parse a filter or ranking expression; empty text yields None.

    Raises:
        QuerySyntaxError: on malformed input or trailing tokens.
    """
    text = text.strip()
    if not text:
        return None
    parser = _Parser(_tokenize(text))
    node = parser.parse_expression()
    if not parser.at_end():
        leftover = parser._peek()
        assert leftover is not None
        raise QuerySyntaxError(
            f"trailing input after expression: {leftover.value!r}", leftover.position
        )
    return node
