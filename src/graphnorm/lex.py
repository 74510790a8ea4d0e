"""Shared tokenizer for Turtle data, rule text, and descriptions.

One compiled pattern, run once through ``re.findall``, splits the text
into token strings; the list ends with ``''`` at the end of the input.
Each match skips whitespace and comments, then takes one token, or a
single character that starts no token, so every character is accounted
for and the scan is linear. A run of words joined by dots, such as
``a.a.a``, is matched whole and split afterwards, so that no alternative
scans it again from each of its words. The parsers decide a token's kind
from its first character (``kind``) and which tokens are legal where.
The ``?name``, ``_:label`` and ``@tag`` tokens take their name patterns
from ``graphnorm.terms``, which checks ``Variable``, ``BlankNode`` and
``Literal`` names against the same strings, so a name the lexer takes
whole is one the term types accept. ``Reader`` reads ``@prefix``
directives, expands prefixed names and reads literals for all three
parsers, so a literal a description states is one data could state.

Tokens carry no positions. ``tokenize`` makes every lexical check before
any parser runs: characters that start no token, words other than ``a``,
and the escapes in string literals, which it decodes in place. A lexical
error is therefore reported before any syntax error, at the first
offending place in the text. When an error is raised, ``Reader.error``
finds the offset of the token by running the same pattern again with
``finditer``, and turns it into a 1-based line and column.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError
from .terms import IRI, XSD_DECIMAL, XSD_INTEGER, Literal, _BLANK_LABEL, _LANG_TAG, _VARIABLE_NAME

# Token kinds that group many spellings; every other token (punctuation,
# "a", "=>", "@prefix", '' at the end) is its own kind.
IRIREF = "iriref"
PNAME = "pname"
BLANK = "blank"
STRING = "string"
INTEGER = "integer"
DECIMAL = "decimal"
VAR = "var"

# _IRI_BODY and _STRING_HEAD are parts of _TOKEN that the error path also
# matches alone. re's cache compiles them there on first use, as it does
# _ESCAPE, so that importing stays cheap.
# The body of an IRI reference ends at the first character not allowed in
# it, and that character ('>', a newline, or a forbidden one) decides
# between the token and an error.
_IRI_BODY = r'[^>\n<" {}|^`\\]*'
# A string literal up to its closing quote: escapes take any character but
# a newline, so a quote or backslash after a backslash does not end it.
_STRING_HEAD = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*'

_TOKEN = re.compile(
    # Whitespace, then comments, each running to the end of its line and
    # followed by more whitespace. No two parts can match the same
    # characters, so there is one way to skip any run.
    r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
    "("
    + "|".join([
        # Most tokens are prefixed names, so that alternative comes first,
        # after the two for '_:', which it would otherwise take as a name
        # with the prefix '_'. The order changes no token: no alternative
        # these three have moved ahead of can match where one of them
        # does. A name starts with a letter, '_' or ':', and of those
        # alternatives only the dotted run starts so; it ends where the
        # name characters end, before a character other than ':', where a
        # prefixed name needs the ':'.
        "_:" + _BLANK_LABEL,
        "_:",  # no label: an error, not an empty prefix
        # a prefixed name ends before any trailing dots
        r"(?:[A-Za-z_][A-Za-z0-9_.\-]*)?:(?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?",
        "<=>",
        "<" + _IRI_BODY + ">",
        _STRING_HEAD + '"',
        "@" + _LANG_TAG,
        r"\^\^",
        "=>",
        r"\?" + _VARIABLE_NAME,
        # "4." is the integer 4 followed by a statement dot
        r"[+-]?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)",
        r"[.;,{}\[\]]",
        # Words joined by dots with no ':' after them: matched whole, or the
        # prefixed name above would rescan the run at each of its words.
        # tokenize splits the run into the tokens it is made of (_RUN_PART).
        r"[A-Za-z_][A-Za-z0-9_\-]*\.[0-9.\-]*[A-Za-z_][A-Za-z0-9_.\-]*(?![A-Za-z0-9_.\-:])",
        r"[A-Za-z_][A-Za-z0-9_\-]*",
        # a character that starts no token, or the end of the input
        r"(?s:.)",
        r"\Z",
    ])
    + ")"
)
# The tokens of a dotted run, as the alternatives of _TOKEN give them there.
_RUN_PART = r"[A-Za-z_][A-Za-z0-9_\-]*|-?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)|[.\-]"
_ESCAPE = r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|([\s\S]?))"

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}
_KINDS = {"<": IRIREF, '"': STRING, "?": VAR, **dict.fromkeys("+-0123456789", INTEGER)}
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# Characters that are a whole token by themselves ('a' and ':' as names).
_ALONE = frozenset(".;,{}[]0123456789:a")
_ALONE_ERRORS = {
    "@": "expected a name after '@'",
    "^": "unexpected '^'",
    "=": "unexpected '='",
    "?": "expected a variable name after '?'",
}


def kind(tok: str) -> str:
    """The kind of a checked token, from its first character: one of the
    kinds above, or the token itself."""
    c = tok[:1]
    if c in _WORD_START or c == ":":
        return tok if tok == "a" else BLANK if tok.startswith("_:") else PNAME
    k = _KINDS.get(c)
    if k is INTEGER or (c == "." and tok != "."):
        return DECIMAL if "." in tok else INTEGER
    return tok if k is None or tok == "<=>" else k


def value(tok: str) -> str:
    """What error messages quote: the token without its delimiters."""
    c = tok[:1]
    if c == '"' or (c == "<" and tok != "<=>"):
        return tok[1:-1]
    if c in ("?", "@"):
        return tok[1:]
    return tok[2:] if tok.startswith("_:") else tok


def _unescape(body: str) -> tuple[str, tuple[str, int] | None]:
    """Decode a string body: (decoded, None), or ('', (message, offset))
    for its first bad escape."""
    parts: list[str] = []
    last = 0
    for m in re.finditer(_ESCAPE, body):
        hexpart = m.group(1) or m.group(2)
        esc = m.group(0)[1:2]
        if hexpart:
            code = int(hexpart, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                return "", (f"\\{esc}{hexpart} is not a Unicode scalar value", m.start())
            char = chr(code)
        elif esc in _ESCAPES:
            char = _ESCAPES[esc]
        elif not esc:
            return "", ("unterminated escape sequence", m.start())
        elif esc in "uU":
            return "", (f"invalid \\{esc} escape", m.start())
        else:
            return "", (f"unknown escape sequence {m.group(0)!r}", m.start())
        parts.append(body[last : m.start()])
        parts.append(char)
        last = m.end()
    parts.append(body[last:])
    return "".join(parts), None


def _lexical_error(text: str, tok: str, off: int) -> tuple[str, int]:
    """The message and offset of the error in the bad token at ``off``."""
    c = tok[0]
    if tok == "_:":
        return "expected a blank node label after '_:'", off
    if c in _WORD_START:
        return f"unexpected token {tok!r}", off
    if c == "<":
        end = re.compile(_IRI_BODY).match(text, off + 1).end()
        if end >= len(text) or text[end] == "\n":
            return "unterminated IRI reference", off
        return f"forbidden character {text[end]!r} in IRI reference", end
    if c == '"':
        # A bad escape comes first; then a literal without its closing
        # quote ends at a newline, at the end of the text, or at a
        # backslash before either.
        end = re.compile(_STRING_HEAD).match(text, off).end()
        problem = _unescape(text[off + 1 : end])[1]
        if problem:
            return problem[0], off + 1 + problem[1]
        if end >= len(text) or text[end] == "\n":
            return "unterminated string literal", off
        return _unescape(text[end : end + 2])[1][0], end
    return _ALONE_ERRORS.get(c, f"unexpected character {c!r}"), off


def tokenize(text: str, source: str | None = None) -> list[str]:
    """Split text into checked tokens, ending with ''.

    String tokens come back with their escapes decoded, still between
    quotes. Raises ParseError at the first lexical error in the text.
    """
    return _checked(text, _TOKEN.findall(text), source)


def _is_run(tok: str) -> bool:
    return tok[:1] in _WORD_START and "." in tok and ":" not in tok


def _checked(text: str, tokens: list[str], source: str | None) -> list[str]:
    decoded: dict[str, str] = {}
    # Distinct tokens in the order they first occur: the first bad one is
    # the first bad token in the text.
    for tok in dict.fromkeys(tokens):
        c = tok[:1]
        if c == '"' and len(tok) > 1:
            if "\\" not in tok:
                continue
            body, problem = _unescape(tok[1:-1])
            decoded[tok] = f'"{body}"'
            bad = problem is not None
        elif c in _WORD_START:
            if _is_run(tok):
                # A dotted run: check the tokens it is made of instead.
                return _checked(text, [part for t in tokens for part in (
                    re.findall(_RUN_PART, t) if _is_run(t) else (t,))], source)
            bad = (":" not in tok and tok != "a") or tok == "_:"
        else:
            bad = len(tok) == 1 and c not in _ALONE
        if bad:
            message, at = _lexical_error(text, tok, _offset(text, tokens.index(tok)))
            raise ParseError(message, *_position(text, at), source)
    if decoded:
        tokens = [decoded.get(tok, tok) for tok in tokens]
    return tokens


def _offset(text: str, k: int) -> int:
    """Where token k starts: the pattern is run again up to it."""
    return next(islice(_starts(text), k, None))


def _starts(text: str):
    """The offset of each token, counting each token of a dotted run."""
    for m in _TOKEN.finditer(text):
        tok, start = m.group(1), m.start(1)
        if _is_run(tok):
            yield from (start + part.start() for part in re.finditer(_RUN_PART, tok))
        else:
            yield start


def _position(text: str, off: int) -> tuple[int, int]:
    """The 1-based line and column of an offset."""
    line_start = text.rfind("\n", 0, off) + 1
    return text.count("\n", 0, off) + 1, off - line_start + 1


class Reader:
    """A tokenized text, for parsers that index its tokens, with the
    prefixes its ``@prefix`` directives have declared so far."""

    def __init__(self, text: str, source: str | None):
        self.text = text
        self.source = source
        self.toks = tokenize(text, source)
        self.prefixes: dict[str, str] = {}

    def position(self, k: int) -> tuple[int, int]:
        """The 1-based line and column of token k."""
        return _position(self.text, _offset(self.text, k))

    def error(self, message: str, k: int) -> ParseError:
        """A ParseError at the position of token k."""
        return ParseError(message, *self.position(k), self.source)

    def want(self, k: int, want: str, what: str) -> str:
        """Token k, which must be of kind ``want``."""
        tok = self.toks[k]
        if kind(tok) != want:
            raise self.error(f"expected {what}, got {value(tok)!r}", k)
        return tok

    def _directive(self, i: int) -> int:
        """Declare the prefix of the directive at token i (a repeated
        prefix rebinds); the index after the directive."""
        tok = self.toks[i]
        if tok != "@prefix":
            raise self.error(f"unsupported directive '{tok}'", i)
        prefix, _, local = self.want(i + 1, PNAME, "a prefix name ending in ':'").partition(":")
        if local:
            raise self.error("prefix declarations take a bare 'name:' form", i + 1)
        iri = self.want(i + 2, IRIREF, "an IRI")
        self.want(i + 3, ".", "'.'")
        self.prefixes[prefix] = iri[1:-1]
        return i + 4

    def _iri_text(self, i: int) -> str:
        """The IRI that the IRI reference or prefixed name at token i writes."""
        tok = self.toks[i]
        if tok[0] == "<":
            return tok[1:-1]
        prefix, _, local = tok.partition(":")
        if prefix not in self.prefixes:
            raise self.error(f"undeclared prefix '{prefix}:'", i)
        return self.prefixes[prefix] + local

    def _iri(self, i: int) -> IRI:
        """The absolute IRI at token i, refused where it is written."""
        try:
            return IRI(self._iri_text(i))
        except ValueError as exc:
            raise self.error(str(exc), i) from None

    def _literal(self, i: int) -> tuple[Literal, int]:
        """The literal starting at token i and the index after it."""
        toks = self.toks
        tok = toks[i]
        k = kind(tok)
        if k != STRING:
            return Literal(tok, datatype=XSD_DECIMAL if k == DECIMAL else XSD_INTEGER), i + 1
        nxt = toks[i + 1]
        datatype = language = None
        end = i + 1
        if nxt[:1] == "@":
            language = nxt[1:]
            end = i + 2
        elif nxt == "^^":
            if kind(toks[i + 2]) not in (IRIREF, PNAME):
                raise self.error("expected a datatype IRI after '^^'", i + 2)
            datatype = self._iri(i + 2).value
            end = i + 3
        try:
            return Literal(tok[1:-1], datatype=datatype, language=language), end
        except ValueError as exc:
            raise self.error(str(exc), i) from None
