"""Shared tokenizer for Turtle data, rule text, and descriptions.

One scanner serves all three grammars; the parsers decide which tokens are
legal where. Positions are 1-based (line, column) and attach to every token
so errors can point at the input.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

IRIREF = "iriref"
PNAME = "pname"
BLANK = "blank"
STRING = "string"
DTMARK = "dtmark"
INTEGER = "integer"
DECIMAL = "decimal"
VAR = "var"
DOT = "dot"
SEMI = "semi"
COMMA = "comma"
LBRACE = "lbrace"
RBRACE = "rbrace"
LBRACKET = "lbracket"
RBRACKET = "rbracket"
IMPLIES = "implies"
IFF = "iff"
AT = "at"
KW_A = "a"
EOF = "eof"


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_PNAME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.\-]*")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)")
_LANG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
_BLANK_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")
# The body of an IRI reference: it ends at the first character that is not
# allowed in it, and that character ('>', a newline, or a forbidden one)
# decides between the token and an error.
_IRI_BODY_RE = re.compile(r'[^>\n<" {}|^`\\]*')

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}
_SINGLE = {";": SEMI, ",": COMMA, "{": LBRACE, "}": RBRACE, "[": LBRACKET, "]": RBRACKET}


def tokenize(text: str, source: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0

    def err(message: str, pos: int) -> ParseError:
        return ParseError(message, line, pos - line_start + 1, source)

    def emit(kind: str, value: str, pos: int) -> None:
        tokens.append(Token(kind, value, line, pos - line_start + 1))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c == "<":
            if text.startswith("<=>", i):
                emit(IFF, "<=>", start)
                i += 3
                continue
            i = _IRI_BODY_RE.match(text, i + 1).end()
            if i < n and text[i] == ">":
                emit(IRIREF, text[start + 1 : i], start)
                i += 1
                continue
            if i >= n or text[i] == "\n":
                raise err("unterminated IRI reference", start)
            raise err(f"forbidden character {text[i]!r} in IRI reference", i)
        if c == "=":
            if text.startswith("=>", i):
                emit(IMPLIES, "=>", start)
                i += 2
                continue
            raise err("unexpected '='", start)
        if c == '"':
            i += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise err("unterminated string literal", start)
                ch = text[i]
                if ch == '"':
                    i += 1
                    break
                if ch == "\\":
                    if i + 1 >= n:
                        raise err("unterminated escape sequence", i)
                    esc = text[i + 1]
                    if esc in _ESCAPES:
                        parts.append(_ESCAPES[esc])
                        i += 2
                    elif esc in "uU":
                        width = 4 if esc == "u" else 8
                        hexpart = text[i + 2 : i + 2 + width]
                        if len(hexpart) != width or not _HEX_RE.fullmatch(hexpart):
                            raise err(f"invalid \\{esc} escape", i)
                        code = int(hexpart, 16)
                        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                            raise err(f"\\{esc}{hexpart} is not a Unicode scalar value", i)
                        parts.append(chr(code))
                        i += 2 + width
                    else:
                        raise err(f"unknown escape sequence \\{esc}", i)
                else:
                    parts.append(ch)
                    i += 1
            emit(STRING, "".join(parts), start)
            continue
        if c == "@":
            m = _LANG_RE.match(text, i + 1)
            if not m:
                raise err("expected a name after '@'", start)
            emit(AT, m.group(0), start)
            i = m.end()
            continue
        if c == "^":
            if text.startswith("^^", i):
                emit(DTMARK, "^^", start)
                i += 2
                continue
            raise err("unexpected '^'", start)
        if c == "?":
            m = _WORD_RE.match(text, i + 1)
            if not m:
                raise err("expected a variable name after '?'", start)
            emit(VAR, m.group(0), start)
            i = m.end()
            continue
        if c == "_" and text.startswith("_:", i):
            m = _BLANK_RE.match(text, i + 2)
            if not m:
                raise err("expected a blank node label after '_:'", start)
            emit(BLANK, m.group(0), start)
            i = m.end()
            continue
        if c in "+-.0123456789":
            # "4." is the integer 4 followed by a statement dot; a sign
            # that starts no number falls through to "unexpected character"
            m = _NUMBER_RE.match(text, i)
            if m:
                value = m.group(0)
                emit(DECIMAL if "." in value else INTEGER, value, start)
                i = m.end()
                continue
            if c == ".":
                emit(DOT, ".", start)
                i += 1
                continue
        if c in _SINGLE:
            emit(_SINGLE[c], c, start)
            i += 1
            continue
        m = _PNAME_RE.match(text, i)
        if m and ":" in m.group(0):
            value = m.group(0)
            while value.endswith("."):
                value = value[:-1]
            emit(PNAME, value, start)
            i = start + len(value)
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group(0)
            if word == "a":
                emit(KW_A, "a", start)
                i = m.end()
                continue
            raise err(f"unexpected token {word!r}", start)
        raise err(f"unexpected character {c!r}", start)

    tokens.append(Token(EOF, "", line, n - line_start + 1))
    return tokens
