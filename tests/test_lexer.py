"""Unit tests for the lexer."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifier(self):
        toks = tokenize("alpha")
        assert toks[0].kind == "ident"
        assert toks[0].value == "alpha"

    def test_identifier_with_underscore_and_digits(self):
        assert values("_x1 y_2") == ["_x1", "y_2"]

    def test_keywords_recognized(self):
        toks = tokenize("if else while for return int float vec3 void")
        assert all(t.kind == "keyword" for t in toks[:-1])

    def test_keyword_prefix_is_identifier(self):
        toks = tokenize("iffy formal returned")
        assert all(t.kind == "ident" for t in toks[:-1])

    def test_int_literal(self):
        tok = tokenize("42")[0]
        assert tok.kind == "int"
        assert tok.value == 42

    def test_float_literal(self):
        tok = tokenize("3.5")[0]
        assert tok.kind == "float"
        assert tok.value == 3.5

    def test_float_leading_dot(self):
        tok = tokenize(".25")[0]
        assert tok.kind == "float"
        assert tok.value == 0.25

    def test_float_trailing_dot(self):
        tok = tokenize("7.")[0]
        assert tok.kind == "float"
        assert tok.value == 7.0

    def test_float_exponent(self):
        tok = tokenize("1e3")[0]
        assert tok.kind == "float"
        assert tok.value == 1000.0

    def test_float_negative_exponent(self):
        tok = tokenize("2.5e-2")[0]
        assert tok.kind == "float"
        assert tok.value == 0.025

    def test_number_then_member_access(self):
        # '1.e' could greedily eat; ensure '2 . x' style postfix survives
        toks = tokenize("v.x")
        assert [t.value for t in toks[:-1]] == ["v", ".", "x"]


class TestOperators:
    def test_two_char_operators(self):
        src = "== != <= >= && ||"
        toks = tokenize(src)
        assert [t.value for t in toks[:-1]] == ["==", "!=", "<=", ">=", "&&", "||"]

    def test_compound_assignment_operators(self):
        toks = tokenize("+= -= *= /=")
        assert [t.value for t in toks[:-1]] == ["+=", "-=", "*=", "/="]

    def test_single_char_operators(self):
        src = "+ - * / % < > = ! ( ) { } , ; ? : ."
        toks = tokenize(src)
        assert [t.value for t in toks[:-1]] == src.split()

    def test_adjacent_operators_split_correctly(self):
        toks = tokenize("a<=b")
        assert [t.value for t in toks[:-1]] == ["a", "<=", "b"]

    def test_minus_not_merged_into_literal(self):
        # The lexer emits '-' and '3'; negation is a parser concern.
        toks = tokenize("-3")
        assert toks[0].value == "-"
        assert toks[1].value == 3


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert values("a // comment here\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* ignore all this */ b") == ["a", "b"]

    def test_multiline_block_comment_tracks_lines(self):
        toks = tokenize("/* one\ntwo\nthree */ x")
        assert toks[0].value == "x"
        assert toks[0].line == 3

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1
        assert toks[1].col == 4


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("ok\n  @")
        assert exc_info.value.line == 2

    def test_at_sign_rejected(self):
        with pytest.raises(LexError):
            tokenize("x @ y")


class TestAsciiOnly:
    """Digits and identifier characters are ASCII only, as in C: any
    other character is a LexError at its own position."""

    def test_superscript_after_number_is_lex_error(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("float f(float x) { return x * 2²; }")
        assert (exc_info.value.line, exc_info.value.col) == (1, 32)
        assert "²" in exc_info.value.message

    def test_other_script_digits_are_not_a_number(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("x = ١٢;")
        assert (exc_info.value.line, exc_info.value.col) == (1, 5)

    def test_fullwidth_digit_is_lex_error(self):
        with pytest.raises(LexError):
            tokenize("x = １;")

    def test_non_ascii_letter_ends_identifier(self):
        with pytest.raises(LexError) as exc_info:
            tokenize("café")
        assert exc_info.value.col == 4

    def test_non_ascii_letter_cannot_start_identifier(self):
        with pytest.raises(LexError):
            tokenize("ß = 1;")

    def test_ascii_exponent_still_lexes(self):
        assert values("2e3 1.5E-2 7") == [2000.0, 0.015, 7]
