"""Unit tests for the user-function inliner."""

import pytest

from repro.lang import ast_nodes as A
from repro.lang.errors import SpecializationError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.runtime.interp import Interpreter
from repro.transform.inline import Inliner, inline_program_function


def inline(src, fn_name):
    program = parse_program(src)
    check_program(program)
    fn = inline_program_function(program, fn_name)
    # The result must be self-contained and type-correct.
    check_program(A.Program([fn]))
    return program, fn


def assert_semantics_preserved(src, fn_name, arg_sets):
    program, inlined = inline(src, fn_name)
    original = Interpreter(program)
    flat = Interpreter()
    for args in arg_sets:
        assert flat.run(inlined, list(args)) == original.run(fn_name, list(args))


class TestBasicInlining:
    def test_simple_call_removed(self):
        _, fn = inline(
            "float sq(float x) { return x * x; }"
            "float f(float a) { return sq(a) + 1.0; }",
            "f",
        )
        assert A.called_names(fn) == set()

    def test_semantics_preserved(self):
        assert_semantics_preserved(
            "float sq(float x) { return x * x; }"
            "float f(float a) { return sq(a + 1.0) * sq(a); }",
            "f",
            [(2.0,), (-1.5,), (0.0,)],
        )

    def test_nested_calls(self):
        assert_semantics_preserved(
            "float sq(float x) { return x * x; }"
            "float quad(float x) { return sq(sq(x)); }"
            "float f(float a) { return quad(a); }",
            "f",
            [(2.0,), (3.0,)],
        )

    def test_callee_with_locals_and_control_flow(self):
        assert_semantics_preserved(
            "float clamp01(float x) {"
            "  float r = x;"
            "  if (x < 0.0) { r = 0.0; }"
            "  if (x > 1.0) { r = 1.0; }"
            "  return r; }"
            "float f(float a) { return clamp01(a) + clamp01(a * 2.0); }",
            "f",
            [(0.5,), (-1.0,), (3.0,)],
        )

    def test_callee_with_loop(self):
        assert_semantics_preserved(
            "int tri(int n) {"
            "  int s = 0; int i = 0;"
            "  while (i < n) { s = s + i; i = i + 1; }"
            "  return s; }"
            "int f(int a) { return tri(a) + tri(a + 1); }",
            "f",
            [(0,), (5,)],
        )

    def test_void_callee_as_statement(self):
        program, fn = inline(
            "void log2(float x) { emit(x); emit(x * 2.0); }"
            "float f(float a) { log2(a); return a; }",
            "f",
        )
        from repro.runtime.builtins import EMIT_SINK

        EMIT_SINK.clear()
        Interpreter().run(fn, [3.0])
        assert EMIT_SINK.values == [3.0, 6.0]
        EMIT_SINK.clear()

    def test_arguments_evaluated_via_temporaries(self):
        # Each parameter becomes a declaration, so an argument expression
        # is evaluated exactly once.
        program, fn = inline(
            "float twice(float x) { return x + x; }"
            "float f(float a) { return twice(sqrt(a)); }",
            "f",
        )
        sqrt_calls = [
            n for n in A.walk(fn.body)
            if isinstance(n, A.Call) and n.name == "sqrt"
        ]
        assert len(sqrt_calls) == 1

    def test_name_collision_avoided(self):
        assert_semantics_preserved(
            "float helper(float x) { float t = x * 2.0; return t; }"
            "float f(float t) { return helper(t) + t; }",
            "f",
            [(2.0,), (5.0,)],
        )


class TestCallPositions:
    def test_call_in_if_predicate(self):
        assert_semantics_preserved(
            "int pos(int x) { return x > 0; }"
            "int f(int a) { if (pos(a)) { return 1; } return 0; }",
            "f",
            [(1,), (-1,)],
        )

    def test_call_in_while_predicate_reevaluated(self):
        # The predicate must be re-inlined into the loop body, or the loop
        # would never terminate / terminate immediately.
        assert_semantics_preserved(
            "int under(int x, int n) { return x < n; }"
            "int f(int n) {"
            "  int i = 0;"
            "  while (under(i, n)) { i = i + 1; }"
            "  return i; }",
            "f",
            [(0,), (5,)],
        )

    def test_call_in_return(self):
        assert_semantics_preserved(
            "int inc(int x) { return x + 1; }"
            "int f(int a) { return inc(inc(a)); }",
            "f",
            [(5,)],
        )

    def test_library_chains(self):
        # Library functions calling library functions (gain calls bias in
        # the shader library).
        from repro.shaders.library import LIBRARY_SOURCE

        src = LIBRARY_SOURCE + (
            "float f(float g, float x) { return gain(g, x); }"
        )
        assert_semantics_preserved(src, "f", [(0.3, 0.4), (0.7, 0.9)])


class TestRejections:
    def test_recursion_rejected(self):
        program = parse_program(
            "int f(int a) { return g(a); }"
            "int g(int a) { return f(a); }"
        )
        with pytest.raises(SpecializationError):
            Inliner(program).inline_function("f")

    def test_self_recursion_rejected(self):
        program = parse_program("int f(int a) { return f(a); }")
        with pytest.raises(SpecializationError):
            Inliner(program).inline_function("f")

    def test_early_return_in_callee_rejected(self):
        program = parse_program(
            "int g(int a) { if (a) { return 1; } return 0; }"
            "int f(int a) { return g(a); }"
        )
        with pytest.raises(SpecializationError):
            Inliner(program).inline_function("f")

    def test_unknown_callee_rejected(self):
        program = parse_program("int f(int a) { return mystery(a); }")
        with pytest.raises(SpecializationError):
            Inliner(program).inline_function("f")

    def test_arity_mismatch_rejected(self):
        program = parse_program(
            "int g(int a, int b) { return a + b; }"
            "int f(int a) { return g(a); }"
        )
        with pytest.raises(SpecializationError):
            Inliner(program).inline_function("f")


#: Prints a digest of every partition's original, loader and reader
#: source (the names the inliner picks show up in all three).
_SOURCES_DIGEST = """
import hashlib
from repro.shaders.render import RenderSession
from repro.shaders.sources import SHADERS

digest = hashlib.sha256()
for index, info in sorted(SHADERS.items()):
    session = RenderSession(index, width=2, height=2)
    for param in info.control_params:
        spec = session.specialize(param)
        for text in (spec.original_source, spec.loader_source,
                     spec.reader_source):
            digest.update(text.encode())
    session.close()
print(digest.hexdigest())
"""


class TestNamingIsDeterministic:
    def test_renames_follow_declaration_order(self):
        _, fn = inline(
            "float g(float zeta, float alpha) {"
            "  float yy = zeta * alpha; float bb = yy + 1.0; return bb; }"
            "float f(float a) { return g(a, 2.0); }",
            "f",
        )
        declared = [n.name for n in A.walk(fn) if isinstance(n, A.VarDecl)]
        assert declared[:4] == [
            "__in0_zeta", "__in1_alpha", "__in2_yy", "__in3_bb"
        ]

    def test_sources_do_not_depend_on_the_hash_seed(self):
        """Every shader partition's emitted sources are the same under
        two string-hash seeds."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _SOURCES_DIGEST],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
