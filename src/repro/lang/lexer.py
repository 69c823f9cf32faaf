"""Hand-written lexer for the kernel language.

Produces a flat list of :class:`Token` objects with line/column positions.
Supports C-style ``//`` line comments and ``/* ... */`` block comments.
"""

from __future__ import annotations

from .errors import LexError

KEYWORDS = {
    "int",
    "float",
    "vec3",
    "mat3",
    "void",
    "if",
    "else",
    "while",
    "for",
    "return",
}

# Multi-character operators must be matched before their prefixes.
# "->" exists solely for the cache operators the splitter emits
# (``cache->slotN``), so emitted loaders/readers are themselves valid
# source.
TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "->")
ONE_CHAR_OPS = "+-*/%<>=!(){},;?:."

# Digits and identifier characters are ASCII only, as in C (Section 5).
# ``str.isdigit``/``isalpha`` also accept superscripts and the digits and
# letters of other scripts: ``2²`` would reach ``int()`` and fail there,
# and Arabic-Indic ``١٢`` would lex as the int 12.  Any other character
# is a :class:`LexError` with its position.
DIGITS = frozenset("0123456789")
IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CHARS = IDENT_START | DIGITS


class Token(object):
    """One lexical token.

    ``kind`` is one of ``"int"``, ``"float"``, ``"ident"``, ``"keyword"``,
    ``"op"``, or ``"eof"``.  ``value`` holds the literal value for number
    tokens and the spelling otherwise.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, line=%d)" % (self.kind, self.value, self.line)


def tokenize(source):
    """Convert ``source`` into a list of tokens ending with an EOF token."""
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg):
        raise LexError(msg, line, col)

    while i < n:
        ch = source[i]

        # Whitespace.
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # Comments.
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                error("unterminated block comment")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue

        # Numbers. A leading digit or a dot followed by a digit.
        if ch in DIGITS or (ch == "." and i + 1 < n and source[i + 1] in DIGITS):
            start = i
            seen_dot = False
            seen_exp = False
            while i < n:
                c = source[i]
                if c in DIGITS:
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i > start:
                    # Exponent must be followed by digits (optionally signed).
                    j = i + 1
                    if j < n and source[j] in "+-":
                        j += 1
                    if j < n and source[j] in DIGITS:
                        seen_exp = True
                        i = j
                    else:
                        break
                else:
                    break
            text = source[start:i]
            if seen_dot or seen_exp:
                tokens.append(Token("float", float(text), line, col))
            else:
                tokens.append(Token("int", int(text), line, col))
            col += i - start
            continue

        # Identifiers / keywords.
        if ch in IDENT_START:
            start = i
            while i < n and source[i] in IDENT_CHARS:
                i += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue

        # Operators and punctuation.
        two = source[i : i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR_OPS:
            tokens.append(Token("op", ch, line, col))
            i += 1
            col += 1
            continue

        error("unexpected character %r" % ch)

    tokens.append(Token("eof", None, line, col))
    return tokens
