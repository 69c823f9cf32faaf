"""Shader programs installed once per process and shared by sessions.

``repro.shaders.install.PROGRAMS`` parses and checks the library once,
links each shader's own source against it once, and every
``RenderSession`` of that shader takes the same checked ``Program``.
These tests pin that the shared program equals a fresh parse of the
joined source, that nothing a session does writes its nodes, that the
cache is safe to fill from many threads, and that a hand-built program
or a clone is still checked.
"""

import struct
import threading

import pytest

from repro.core.specializer import DataSpecializer
from repro.lang import ast_nodes as A
from repro.lang import parser as lang_parser
from repro.lang import typecheck
from repro.lang.errors import KernelTypeError, SourceError
from repro.lang.link import Library
from repro.lang.parser import parse_program
from repro.lang.pretty import format_program
from repro.lang.typecheck import check_program
from repro.shaders import render
from repro.shaders.install import PROGRAMS, ProgramCache
from repro.shaders.library import LIBRARY_SOURCE
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS, shader_program_source


def snapshot(program):
    """Everything a pass could write: text, and per node in preorder its
    type, id, line and type annotation."""
    return format_program(program), [
        (type(node).__name__, node.nid, node.line, getattr(node, "ty", None))
        for node in A.walk(program)
    ]


def _bits(image):
    return b"".join(struct.pack("<3d", *row) for row in image.colors)


@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty install cache in place of the process-wide one."""
    cache = ProgramCache(LIBRARY_SOURCE)
    monkeypatch.setattr(render, "PROGRAMS", cache)
    return cache


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """Every source the parser tokenizes from now on."""
    calls = []
    real = lang_parser.tokenize

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(lang_parser, "tokenize", counting)
    return calls


class TestSharing:
    def test_two_sessions_share_one_program(self):
        first = RenderSession(3, width=2, height=2)
        second = RenderSession(3, width=2, height=2)
        assert first.program is second.program
        assert first.program is PROGRAMS.program(SHADERS[3])[0]

    @pytest.mark.parametrize("index", sorted(SHADERS))
    def test_linked_program_equals_fresh_parse(self, index):
        info = SHADERS[index]
        fresh = parse_program(shader_program_source(info))
        check_program(fresh)
        assert snapshot(PROGRAMS.program(info)[0]) == snapshot(fresh)

    def test_second_session_does_not_tokenize(self, tokenize_calls):
        RenderSession(4, width=2, height=2)
        del tokenize_calls[:]
        RenderSession(4, width=2, height=2)
        assert tokenize_calls == []
        # The counter sees the install path: a fresh cache tokenizes
        # the library and the shader's own source, once each.
        ProgramCache(LIBRARY_SOURCE).program(SHADERS[4])
        assert len(tokenize_calls) == 2

    def test_parse_span_says_whether_the_program_was_cached(self, fresh_cache):
        def cached_attr():
            session = RenderSession(2, width=2, height=2, obs=True)
            (span,) = [s for s in session.obs.tracer.spans
                       if s.name == "frontend.parse"]
            return span.attrs["cached"]

        assert cached_attr() is False
        assert cached_attr() is True


class TestNeverWritten:
    def test_every_partition_and_path_leaves_programs_unchanged(self):
        """Specialize and draw every partition of every shader, scalar
        and batch, plus a dispatch drag and reference renders: no pass
        writes a node of the shared programs."""
        before = {i: snapshot(PROGRAMS.program(SHADERS[i])[0]) for i in SHADERS}
        for index, info in sorted(SHADERS.items()):
            for backend in ("scalar", "batch"):
                session = RenderSession(
                    index, width=2, height=2, backend=backend
                )
                for param in info.control_params:
                    edit = session.begin_edit(param)
                    edit.frame(session.controls)
                    moved = session.controls_with(
                        **{param: session.controls[param] + 0.25}
                    )
                    edit.frame(moved)
                    session.render_reference(
                        moved, specialization=edit.specialization
                    )
                session.close()
        session = RenderSession(9, width=2, height=2)
        edit = session.begin_edit("brickw", dispatch=True)
        assert edit.table is not None
        edit.frame(session.controls)
        edit.frame(session.controls_with(brickw=0.3))
        session.close()
        after = {i: snapshot(PROGRAMS.program(SHADERS[i])[0]) for i in SHADERS}
        assert after == before

    def test_published_program_is_not_walked_again(self, monkeypatch):
        program = PROGRAMS.program(SHADERS[5])[0]
        walked = []
        real = typecheck._FunctionChecker.check

        def counting(checker):
            walked.append(checker.fn.name)
            return real(checker)

        monkeypatch.setattr(typecheck._FunctionChecker, "check", counting)
        DataSpecializer(program)
        infos = check_program(program)
        assert walked == []
        assert sorted(infos) == sorted(program.function_names())
        # A clone is a new program: checked in full, like any other.
        check_program(A.clone(program))
        assert sorted(walked) == sorted(program.function_names())

    def test_edited_clone_of_a_published_program_is_checked(self):
        clone = A.clone(PROGRAMS.program(SHADERS[1])[0])
        ref = next(n for n in A.walk(clone.functions[-1])
                   if isinstance(n, A.VarRef))
        ref.name = "no_such_variable"
        with pytest.raises(KernelTypeError, match="no_such_variable"):
            DataSpecializer(clone)

    def test_source_string_is_checked(self):
        with pytest.raises(KernelTypeError, match="undeclared"):
            DataSpecializer("float f(float x) { return y; }")


class TestThreads:
    def test_concurrent_sessions_get_one_program(self, fresh_cache):
        """Eight threads build sessions of one shader on an empty cache
        at once: one program is linked and every frame is identical."""
        count = 8
        barrier = threading.Barrier(count)
        results = [None] * count
        errors = []

        def build(slot):
            try:
                barrier.wait()
                session = RenderSession(3, width=4, height=4)
                image = session.begin_edit("veinfreq").frame(session.controls)
                results[slot] = (session.program, _bits(image), image.total_cost)
                session.close()
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        programs = {id(program) for program, _, _ in results}
        assert len(programs) == 1
        assert results[0][0] is fresh_cache.program(SHADERS[3])[0]
        assert len({(bits, cost) for _, bits, cost in results}) == 1


LINK_ERRORS = {
    "lex": "float f(float x) {\n  return x * 2²;\n}\n",
    "parse": "float f(float x) {\n  float y = x\n  return y;\n}\n",
    "unterminated": "float f(float x) {\n  return x;\n",
    "type": "float f(float x) {\n  return x + undefined_name;\n}\n",
    "duplicate_library_function": "float sqr(float x) { return x; }\n",
    "shadows_builtin": "float sin(float x) { return x; }\n",
}


class TestLinkErrors:
    @pytest.mark.parametrize("name", sorted(LINK_ERRORS))
    def test_error_matches_the_joined_source(self, name):
        source = LINK_ERRORS[name]
        with pytest.raises(SourceError) as joined:
            check_program(parse_program(LIBRARY_SOURCE + "\n" + source))
        with pytest.raises(SourceError) as linked:
            Library(LIBRARY_SOURCE).link(source)
        got, want = linked.value, joined.value
        assert (type(got), got.line, got.col, str(got)) == (
            type(want), want.line, want.col, str(want)
        )
        if name != "duplicate_library_function":
            assert got.line > LIBRARY_SOURCE.count("\n") + 1

    def test_empty_source_links_the_library_alone(self):
        library = parse_program(LIBRARY_SOURCE)
        check_program(library)
        assert snapshot(Library(LIBRARY_SOURCE).link("")) == snapshot(library)
