"""Native vendor query syntaxes — the §3.1 query-language problem.

"A query asking for documents with the words 'distributed' and
'systems' might be expressed as ``distributed and systems`` in one
source, and as ``+distributed +systems`` in another."  This module
implements three native syntax families found in mid-90s engines, each
with a parser (native text → STARTS AST) and a generator (STARTS AST →
native text):

* :class:`InfixSyntax` — ``distributed AND systems``, ``title:word``,
  parentheses (Verity/Fulcrum style);
* :class:`PlusMinusSyntax` — ``+distributed +systems -legacy``
  (Infoseek/AltaVista style: ``+`` required, ``-`` excluded, bare
  words optional);
* :class:`SemicolonSyntax` — ``distributed;systems`` for AND and
  ``distributed,systems`` for OR (Glimpse style).

They serve the ``Free-form-text`` field (§4.1.1), which lets an
informed metasearcher send native queries straight through: a source
parses the text with its own syntax (``source/execution.py``), and
``generate`` writes a STARTS query in that syntax.
"""

from __future__ import annotations

import re

from repro.starts.ast import SAnd, SAndNot, SList, SNode, SOr, SProx, STerm
from repro.starts.attributes import FieldRef
from repro.starts.errors import QuerySyntaxError
from repro.starts.lstring import LString

__all__ = [
    "NativeSyntax",
    "InfixSyntax",
    "PlusMinusSyntax",
    "SemicolonSyntax",
    "NATIVE_SYNTAXES",
]


class NativeSyntax:
    """Interface of a native syntax: parse and generate."""

    syntax_id = "base"

    def parse(self, text: str) -> SNode:
        """Native text → STARTS AST.

        Raises:
            QuerySyntaxError: on malformed native input.
        """
        raise NotImplementedError

    def generate(self, node: SNode) -> str:
        """STARTS AST → native text (best effort; modifiers are lost,
        which is precisely the degradation E3 measures)."""
        raise NotImplementedError


_WORD_RE = re.compile(r'"[^"]*"|[^\s():;,]+')


def _term(word: str, field: str | None = None) -> STerm:
    word = word.strip('"')
    field_ref = FieldRef(field) if field else None
    return STerm(LString(word), field_ref)


class InfixSyntax(NativeSyntax):
    """``a AND b OR c``, ``title:word``, parentheses; left-associative."""

    syntax_id = "infix"

    _TOKEN_RE = re.compile(r'\(|\)|"[^"]*"|[^\s()]+')

    def parse(self, text: str) -> SNode:
        tokens = self._TOKEN_RE.findall(text)
        if not tokens:
            raise QuerySyntaxError("empty native query")
        node, rest = self._parse_sequence(tokens, 0)
        if rest != len(tokens):
            raise QuerySyntaxError(f"trailing native input: {tokens[rest:]}")
        return node

    def _parse_sequence(self, tokens: list[str], pos: int) -> tuple[SNode, int]:
        node, pos = self._parse_atom(tokens, pos)
        while pos < len(tokens) and tokens[pos] != ")":
            operator = tokens[pos].lower()
            if operator in ("and", "or", "not"):
                pos += 1
                right, pos = self._parse_atom(tokens, pos)
            else:
                # Implicit AND between adjacent atoms.
                operator = "and"
                right, pos = self._parse_atom(tokens, pos)
            if operator == "and":
                node = SAnd((node, right)) if not isinstance(node, SAnd) else SAnd(
                    node.children + (right,)
                )
            elif operator == "or":
                node = SOr((node, right)) if not isinstance(node, SOr) else SOr(
                    node.children + (right,)
                )
            else:
                node = SAndNot(node, right)
        return node, pos

    def _parse_atom(self, tokens: list[str], pos: int) -> tuple[SNode, int]:
        if pos >= len(tokens):
            raise QuerySyntaxError("native query ended unexpectedly")
        token = tokens[pos]
        if token == "(":
            node, pos = self._parse_sequence(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise QuerySyntaxError("unbalanced parentheses in native query")
            return node, pos + 1
        if token == ")":
            raise QuerySyntaxError("unexpected ')' in native query")
        pos += 1
        if ":" in token and not token.startswith('"'):
            field, _, word = token.partition(":")
            return _term(word, field), pos
        return _term(token), pos

    def generate(self, node: SNode) -> str:
        return self._generate(node)

    def _generate(self, node: SNode) -> str:
        if isinstance(node, STerm):
            word = node.lstring.text
            if " " in word:
                word = f'"{word}"'
            if node.field is not None and node.field.name != "any":
                return f"{node.field.name}:{word}"
            return word
        if isinstance(node, SAnd):
            return "(" + " AND ".join(self._generate(c) for c in node.children) + ")"
        if isinstance(node, SOr):
            return "(" + " OR ".join(self._generate(c) for c in node.children) + ")"
        if isinstance(node, SAndNot):
            return f"({self._generate(node.positive)} NOT {self._generate(node.negative)})"
        if isinstance(node, SProx):
            # No native prox: degrade to AND.
            return f"({self._generate(node.left)} AND {self._generate(node.right)})"
        if isinstance(node, SList):
            return "(" + " OR ".join(self._generate(c) for c in node.children) + ")"
        raise TypeError(f"cannot generate native query for {type(node).__name__}")


class PlusMinusSyntax(NativeSyntax):
    """``+required bare -excluded`` — flat, no nesting.

    Parse result: AND of ``+`` terms, OR-extended with bare terms,
    AND-NOT for ``-`` terms.  With only bare terms the result is an OR.
    """

    syntax_id = "plusminus"

    def parse(self, text: str) -> SNode:
        required: list[STerm] = []
        optional: list[STerm] = []
        excluded: list[STerm] = []
        for raw in _WORD_RE.findall(text):
            if raw.startswith("+"):
                required.append(_term(raw[1:]))
            elif raw.startswith("-"):
                excluded.append(_term(raw[1:]))
            else:
                optional.append(_term(raw))
        if not (required or optional):
            raise QuerySyntaxError("native query has no positive component")

        positive: SNode
        if required:
            positive = required[0] if len(required) == 1 else SAnd(tuple(required))
            if optional:
                # Optional words broaden the result: positive OR optional.
                extras = optional[0] if len(optional) == 1 else SOr(tuple(optional))
                positive = SOr((positive, extras))
        else:
            positive = optional[0] if len(optional) == 1 else SOr(tuple(optional))

        if not excluded:
            return positive
        negative = excluded[0] if len(excluded) == 1 else SOr(tuple(excluded))
        return SAndNot(positive, negative)

    def generate(self, node: SNode) -> str:
        required: list[str] = []
        excluded: list[str] = []
        self._collect(node, required, excluded, negated=False)
        parts = [f"+{word}" for word in required]
        parts.extend(f"-{word}" for word in excluded)
        return " ".join(parts)

    def _collect(
        self, node: SNode, required: list[str], excluded: list[str], negated: bool
    ) -> None:
        target = excluded if negated else required
        if isinstance(node, STerm):
            target.append(node.lstring.text)
        elif isinstance(node, (SAnd, SOr, SList)):
            for child in node.children:
                self._collect(child, required, excluded, negated)
        elif isinstance(node, SAndNot):
            self._collect(node.positive, required, excluded, negated)
            self._collect(node.negative, required, excluded, not negated)
        elif isinstance(node, SProx):
            self._collect(node.left, required, excluded, negated)
            self._collect(node.right, required, excluded, negated)
        else:
            raise TypeError(f"cannot flatten {type(node).__name__}")


class SemicolonSyntax(NativeSyntax):
    """Glimpse-style: ``a;b`` means AND, ``a,b`` means OR; no nesting.

    Semicolons bind looser than commas: ``a,b;c`` is ``(a OR b) AND c``.
    """

    syntax_id = "semicolon"

    def parse(self, text: str) -> SNode:
        text = text.strip()
        if not text:
            raise QuerySyntaxError("empty native query")
        and_groups = [piece.strip() for piece in text.split(";") if piece.strip()]
        if not and_groups:
            raise QuerySyntaxError("empty native query")
        parsed_groups: list[SNode] = []
        for group in and_groups:
            words = [piece.strip() for piece in group.split(",") if piece.strip()]
            terms = [_term(word) for word in words]
            if not terms:
                raise QuerySyntaxError(f"empty OR group in {text!r}")
            parsed_groups.append(terms[0] if len(terms) == 1 else SOr(tuple(terms)))
        if len(parsed_groups) == 1:
            return parsed_groups[0]
        return SAnd(tuple(parsed_groups))

    def generate(self, node: SNode) -> str:
        if isinstance(node, STerm):
            return node.lstring.text
        if isinstance(node, SAnd):
            return ";".join(self.generate(child) for child in node.children)
        if isinstance(node, (SOr, SList)):
            return ",".join(self.generate(child) for child in node.children)
        if isinstance(node, SAndNot):
            # Glimpse has no negation: the positive side survives.
            return self.generate(node.positive)
        if isinstance(node, SProx):
            return f"{self.generate(node.left)};{self.generate(node.right)}"
        raise TypeError(f"cannot generate native query for {type(node).__name__}")


NATIVE_SYNTAXES: dict[str, NativeSyntax] = {
    syntax.syntax_id: syntax
    for syntax in (InfixSyntax(), PlusMinusSyntax(), SemicolonSyntax())
}
