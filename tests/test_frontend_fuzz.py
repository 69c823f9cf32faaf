"""Fuzzing the front end with mutated shader and library sources.

The contract: ``parse_program`` followed by ``check_program`` either
succeeds or raises a :class:`SourceError` subclass (``LexError``,
``ParseError``, ``KernelTypeError``), never anything else.  Mutations
insert, delete and replace characters, non-ASCII ones included.  Every
shrunk counterexample is kept below as a named regression case.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang.errors import SourceError
from repro.lang.link import Library
from repro.lang.parser import parse_program
from repro.lang.pretty import format_program
from repro.lang.typecheck import check_program
from repro.shaders.library import LIBRARY_SOURCE
from repro.shaders.sources import SHADERS

LIBRARY = Library(LIBRARY_SOURCE)

#: Characters inserted or substituted: ASCII the language uses, and
#: characters ``str.isdigit``/``isalpha`` accept that C does not
#: (superscripts, other scripts' digits and letters, fullwidth forms), a
#: no-break space and NUL.  Half the draws are non-ASCII.
ASCII = "(){};,.+-*/%<>=!?:&|_ \n\t0123456789eExyzfiv"
NON_ASCII = "\u00b2\u0661\u0662\u00e9\u00df\uff11\u00a0\u2160\x00\u00bd"

mutation = st.tuples(
    st.sampled_from(("insert", "delete", "replace", "glue")),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.one_of(st.sampled_from(ASCII), st.sampled_from(NON_ASCII)),
)
edits = st.lists(mutation, min_size=1, max_size=4)
shaders = st.sampled_from(sorted(SHADERS))


def mutate(source, edits):
    """Apply ``edits``; ``where`` in [0, 1] picks the position.  A
    ``glue`` edit inserts right after a letter or digit, where a
    character can extend a number or a name."""
    for kind, where, char in edits:
        if kind == "glue":
            ends = [k + 1 for k, c in enumerate(source) if c.isalnum()]
            if not ends:
                continue
            pos = ends[min(int(where * len(ends)), len(ends) - 1)]
            source = source[:pos] + char + source[pos:]
            continue
        pos = min(int(where * len(source)), len(source))
        if kind == "insert":
            source = source[:pos] + char + source[pos:]
        elif kind == "delete":
            source = source[:pos] + source[pos + 1:]
        else:
            source = source[:pos] + char + source[pos + 1:]
    return source


def front_end(source):
    """The checked program of ``source``, or the typed error that
    rejected it; anything else propagates and fails the test."""
    try:
        program = parse_program(source)
        check_program(program)
    except SourceError as exc:
        return exc
    return program


FUZZ = settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(shaders, edits)
def test_mutated_library_raises_only_source_errors(index, changes):
    front_end(mutate(LIBRARY_SOURCE, changes) + "\n" + SHADERS[index].source)


@FUZZ
@given(shaders, edits)
def test_mutated_shader_links_as_the_joined_source_parses(index, changes):
    """A mutated shader source either links to the program the joined
    text parses to, or fails the same way: same error type, line,
    column and message."""
    source = mutate(SHADERS[index].source, changes)
    joined = front_end(LIBRARY_SOURCE + "\n" + source)
    try:
        linked = LIBRARY.link(source)
    except SourceError as exc:
        assert isinstance(joined, SourceError)
        assert (type(exc), exc.line, exc.col, str(exc)) == (
            type(joined), joined.line, joined.col, str(joined)
        )
        return
    assert not isinstance(joined, SourceError), joined
    assert format_program(linked) == format_program(joined)


#: Shrunk counterexamples, one per defect found.
REGRESSIONS = {
    # ``str.isdigit`` took the superscript as a digit and ``int('2²')``
    # raised a bare ValueError from the lexer.
    "superscript_digit": "float f(float x) { return x * 2²; }",
    # Arabic-Indic digits lexed as the int 12.
    "arabic_indic_digits": "int f() { int x = ١٢; return x; }",
    # A non-ASCII letter continued an identifier.
    "latin1_identifier": "float f(float café) { return café; }",
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_regression_is_a_source_error(name):
    assert isinstance(front_end(REGRESSIONS[name]), SourceError)
