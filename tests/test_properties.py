"""Property-based tests (hypothesis) over randomly generated programs.

The central theorem of data specialization — for any fragment, partition,
and inputs, running the reader against a cache built by the loader on any
inputs agreeing on the fixed part reproduces the original's result — is
checked here on randomly generated integer programs with declarations,
assignments, conditionals, bounded loops, ternaries, and comparisons.

Integer programs keep every execution path exact (no rounding), so even
the associative rewriting must preserve results bit-for-bit.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.caching import validate_labels
from repro.core.specializer import DataSpecializer, SpecializerOptions
from repro.lang.parser import parse_program
from repro.runtime.compiler import compile_function

PARAMS = ["p0", "p1", "p2", "p3"]


# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------


@st.composite
def gen_expr(draw, names, depth):
    """A random int-valued expression over ``names``."""
    if depth <= 0 or draw(st.booleans()):
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return str(draw(st.integers(-5, 5)))
    kind = draw(st.sampled_from(["bin", "bin", "cmp", "cond", "neg"]))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "+"]))
        left = draw(gen_expr(names, depth - 1))
        right = draw(gen_expr(names, depth - 1))
        return "(%s %s %s)" % (left, op, right)
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", "==", "!="]))
        left = draw(gen_expr(names, depth - 1))
        right = draw(gen_expr(names, depth - 1))
        return "(%s %s %s)" % (left, op, right)
    if kind == "cond":
        pred = draw(gen_expr(names, depth - 1))
        a = draw(gen_expr(names, depth - 1))
        b = draw(gen_expr(names, depth - 1))
        return "(%s != 0 ? %s : %s)" % (pred, a, b)
    return "(-%s)" % draw(gen_expr(names, depth - 1))


@st.composite
def gen_stmts(draw, state, depth, indent):
    """A random statement list; ``state`` maps kind -> list of names."""
    lines = []
    count = draw(st.integers(1, 3))
    pad = "    " * indent
    for _ in range(count):
        kinds = ["assign", "if"]
        if depth > 0:
            kinds.append("while")
        if indent > 1:
            # Early returns inside branches/loops: these exercise the
            # early-return control-dependence treatment (a soundness bug
            # the CFG cross-check originally caught).
            kinds.append("return")
        kind = draw(st.sampled_from(kinds))
        if kind == "return":
            names = state["params"] + state["locals"]
            lines.append("%sreturn %s;" % (pad, draw(gen_expr(names, 1))))
            continue
        names = state["params"] + state["locals"]
        mutable = state["locals"]
        if kind == "assign" and mutable:
            target = draw(st.sampled_from(mutable))
            lines.append(
                "%s%s = %s;" % (pad, target, draw(gen_expr(names, 2)))
            )
        elif kind == "if":
            pred = draw(gen_expr(names, 1))
            body = draw(gen_stmts(state, depth - 1, indent + 1))
            lines.append("%sif (%s != 0) {" % (pad, pred))
            lines.extend(body)
            if draw(st.booleans()):
                lines.append("%s} else {" % pad)
                lines.extend(draw(gen_stmts(state, depth - 1, indent + 1)))
            lines.append("%s}" % pad)
        elif kind == "while":
            counter = "li%d" % state["counter"]
            state["counter"] += 1
            bound = draw(st.integers(0, 3))
            body = draw(gen_stmts(state, depth - 1, indent + 1))
            lines.append("%sint %s = 0;" % (pad, counter))
            lines.append("%swhile (%s < %d) {" % (pad, counter, bound))
            lines.extend(body)
            lines.append("%s    %s = %s + 1;" % (pad, counter, counter))
            lines.append("%s}" % pad)
        else:
            lines.append("%s;".replace("%s", "") or "")
    return [line for line in lines if line]


@st.composite
def gen_program(draw):
    """A random single-function integer program over PARAMS."""
    state = {"params": list(PARAMS), "locals": [], "counter": 0}
    decls = []
    for i in range(draw(st.integers(1, 3))):
        name = "v%d" % i
        decls.append(
            "    int %s = %s;" % (name, draw(gen_expr(state["params"], 2)))
        )
        state["locals"].append(name)
    body = draw(gen_stmts(state, 2, 1))
    names = state["params"] + state["locals"]
    ret = "    return %s;" % draw(gen_expr(names, 2))
    src = "int f(%s) {\n%s\n%s\n%s\n}" % (
        ", ".join("int %s" % p for p in PARAMS),
        "\n".join(decls),
        "\n".join(body),
        ret,
    )
    return src


varying_sets = st.sets(st.sampled_from(PARAMS), min_size=0, max_size=4)
arg_lists = st.lists(st.integers(-8, 8), min_size=4, max_size=4)


def make_variant(base, varying, delta):
    """Change only the varying positions of ``base``."""
    variant = list(base)
    for i, name in enumerate(PARAMS):
        if name in varying:
            variant[i] = variant[i] + delta[i]
    return variant


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_specialization_soundness(src, varying, base, delta):
    """reader(loader(base).cache, variant) == original(variant)."""
    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    expected_base, _ = spec.run_original(base)
    loader_result, cache, _ = spec.run_loader(base)
    assert loader_result == expected_base
    for scale in (1, -2):
        variant = make_variant(base, varying, [d * scale for d in delta])
        expected, _ = spec.run_original(variant)
        got, _ = spec.run_reader(cache, variant)
        assert got == expected, (src, varying, base, variant)


@settings(max_examples=40, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_soundness_without_ssa_or_reassoc(src, varying, base, delta):
    options = SpecializerOptions(ssa=False, reassoc=False)
    spec = DataSpecializer(parse_program(src), options).specialize("f", varying)
    _, cache, _ = spec.run_loader(base)
    variant = make_variant(base, varying, delta)
    expected, _ = spec.run_original(variant)
    got, _ = spec.run_reader(cache, variant)
    assert got == expected, (src, varying, base, variant)


@settings(max_examples=40, deadline=None)
@given(gen_program(), varying_sets)
def test_labels_always_consistent(src, varying):
    """The final labeling satisfies every Figure 3 constraint."""
    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    assert validate_labels(spec.caching) == []


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, st.sampled_from([0, 4, 8]), arg_lists, arg_lists)
def test_limiter_bound_and_soundness(src, varying, bound, base, delta):
    """Bounded caches respect the bound, stay consistent, stay correct."""
    spec = DataSpecializer(parse_program(src)).specialize(
        "f", varying, cache_bound=bound
    )
    assert spec.cache_size_bytes <= bound
    assert validate_labels(spec.caching) == []
    _, cache, _ = spec.run_loader(base)
    variant = make_variant(base, varying, delta)
    expected, _ = spec.run_original(variant)
    got, _ = spec.run_reader(cache, variant)
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_compiled_matches_interpreted(src, varying, base, delta):
    """The Python-compiled loader/reader agree with the interpreter."""
    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    cache_c = spec.new_cache()
    compiled_result = spec.compiled_loader(*base, cache_c)
    interp_result, cache_i, _ = spec.run_loader(base)
    assert compiled_result == interp_result
    assert cache_c == cache_i
    variant = make_variant(base, varying, delta)
    assert spec.compiled_reader(*variant, cache_i) == spec.run_reader(
        cache_i, variant
    )[0]


@settings(max_examples=30, deadline=None)
@given(gen_program(), arg_lists)
def test_compiler_interpreter_parity_on_originals(src, args):
    """Independent of specialization: both backends agree on programs."""
    program = parse_program(src)
    from repro.lang.typecheck import check_program
    from repro.runtime.interp import Interpreter

    check_program(program)
    compiled = compile_function(program.function("f"), program)
    interpreted = Interpreter(program).run("f", list(args))
    assert compiled(*args) == interpreted


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, arg_lists)
def test_loader_cost_close_to_original(src, varying, base):
    """§3.3/§5.2 shape: the loader is the original plus cheap stores, so
    its overhead is bounded by the store cost per slot."""
    from repro.lang.ops import CACHE_WRITE_COST

    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    _, cost_orig = spec.run_original(base)
    _, _, cost_load = spec.run_loader(base)
    max_fills = cost_orig + len(spec.layout) * (CACHE_WRITE_COST + 1)
    # Loops may fill an invariant slot once per iteration; allow a lax
    # multiple of the per-slot bound, but never quadratic blowup.
    assert cost_load <= max_fills + cost_orig


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_monotone_restart_equals_reseed(src, varying, base, delta):
    """Forcing every cached term dynamic (bound 0) must equal specializing
    with caching effectively disabled: both readers compute the original
    results from scratch."""
    spec0 = DataSpecializer(parse_program(src)).specialize(
        "f", varying, cache_bound=0
    )
    assert len(spec0.layout) == 0
    variant = make_variant(base, varying, delta)
    _, cache, _ = spec0.run_loader(base)
    expected, _ = spec0.run_original(variant)
    got, _ = spec0.run_reader(cache, variant)
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_code_specialization_residual_correct(src, varying, base, delta):
    """The code-specialization baseline: the residual program agrees with
    the original on every argument list matching the fixed values."""
    from repro.baseline.pe import specialize_code
    from repro.lang.typecheck import check_program
    from repro.runtime.interp import Interpreter

    program = parse_program(src)
    check_program(program)
    fixed = {
        name: value
        for name, value in zip(PARAMS, base)
        if name not in varying
    }
    result = specialize_code(program, "f", fixed)
    plain = Interpreter(program)
    residual = Interpreter()
    for scale in (0, 1, -3):
        variant = make_variant(base, varying, [d * scale for d in delta])
        assert residual.run(result.residual, variant) == plain.run("f", variant)


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, arg_lists)
def test_code_specialization_residual_never_larger(src, varying, base):
    """Partial evaluation only removes or folds code (modulo pinning and
    unrolling, which our generator's tiny loops keep bounded)."""
    from repro.baseline.pe import specialize_code
    from repro.lang import ast_nodes as A
    from repro.lang.typecheck import check_program

    program = parse_program(src)
    check_program(program)
    fixed = dict(zip(PARAMS, base))  # everything fixed
    result = specialize_code(program, "f", fixed)
    # With all inputs fixed, the residual collapses to (at most) a few
    # returns of constants.
    returns = [n for n in A.walk(result.residual) if isinstance(n, A.Return)]
    assert returns
    original = program.function("f")
    assert A.count_nodes(result.residual) <= A.count_nodes(original) + 8


@settings(max_examples=25, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_persistence_roundtrip(src, varying, base, delta):
    """Saving and reloading a specialization preserves behavior exactly."""
    import tempfile

    from repro.core.persist import load_specialization, save_specialization

    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    with tempfile.TemporaryDirectory() as directory:
        save_specialization(spec, directory)
        reloaded = load_specialization(directory)
    result_a, cache_a, cost_a = spec.run_loader(base)
    result_b, cache_b, cost_b = reloaded.run_loader(base)
    assert (result_a, cache_a, cost_a) == (result_b, cache_b, cost_b)
    variant = make_variant(base, varying, delta)
    assert spec.run_reader(cache_a, variant) == reloaded.run_reader(
        cache_b, variant
    )


@settings(max_examples=25, deadline=None)
@given(gen_program(), varying_sets, arg_lists, arg_lists)
def test_dispatch_tables_sound(src, varying, base, delta):
    """Wherever dispatch candidates exist, the selected variant agrees
    with the original on every matching context."""
    from repro.runtime.interp import Interpreter
    from repro.transform.dispatch import build_dispatch_table

    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    table = build_dispatch_table(spec)
    if table is None:
        return
    interp = Interpreter()
    cache = table.layout.new_instance()
    interp.run(table.loader, base, cache=cache)
    variant_fn = table.select(cache)
    for scale in (0, 1, -2):
        args = make_variant(base, varying, [d * scale for d in delta])
        expected, _ = spec.run_original(args)
        got = interp.run(variant_fn, args, cache=cache)
        assert got == expected, (src, varying, args)


@settings(max_examples=40, deadline=None)
@given(gen_program())
def test_pretty_print_roundtrip_idempotent(src):
    """parse → print → parse → print is a fixpoint, and both programs
    type check (printer emits valid, stable source)."""
    from repro.lang.pretty import format_program
    from repro.lang.typecheck import check_program

    program = parse_program(src)
    check_program(program)
    text1 = format_program(program)
    program2 = parse_program(text1)
    check_program(program2)
    text2 = format_program(program2)
    assert text1 == text2


@settings(max_examples=30, deadline=None)
@given(gen_program(), varying_sets, arg_lists)
def test_interpreter_compiler_cost_free_agreement(src, varying, base):
    """The loader's cache contents never depend on the execution backend."""
    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    cache_compiled = spec.new_cache()
    spec.compiled_loader(*base, cache_compiled)
    _, cache_interp, _ = spec.run_loader(base)
    assert cache_compiled == cache_interp


@settings(max_examples=40, deadline=None)
@given(gen_program(), varying_sets)
def test_delta_map_equals_one_analysis_per_parameter(src, varying):
    """The one-walk delta map equals one dependence analysis per
    parameter."""
    from repro.transform.split import loader_param_slots

    from .helpers import per_parameter_slots

    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    params = spec.loader.param_names()
    assert loader_param_slots(spec.loader, spec.layout, params) == (
        per_parameter_slots(spec.loader, params)
    )


# ---------------------------------------------------------------------------
# Batch kernels against the interpreter
# ---------------------------------------------------------------------------

#: Why the vectorizer may reject a generated program (early returns
#: inside loops); anything else is a bug.
BATCH_FALLBACK_REASONS = frozenset(["return inside a loop"])

lane_args = st.lists(arg_lists, min_size=1, max_size=6)


def _columns(rows):
    import numpy as np

    return [np.asarray(column, dtype=np.int64) for column in zip(*rows)]


def _batch_kernel(fn):
    from repro.runtime.batch import BatchKernel

    kernel = BatchKernel(fn)
    if not kernel.vectorized:
        assert kernel.fallback_reason in BATCH_FALLBACK_REASONS
    return kernel


def _assert_lanes(kernel, rows, expected, cache=None):
    """``kernel`` over ``rows`` gives the interpreter's per-lane
    ``(value, cost)`` pairs exactly."""
    from repro.runtime.batch import value_rows

    values, costs = kernel.run_lanes(_columns(rows), len(rows), cache=cache)
    got = value_rows(values, len(rows))
    assert got == [value for value, _ in expected]
    assert [int(cost) for cost in costs] == [cost for _, cost in expected]


def _assert_caches(batch_cache, caches):
    for lane, cache in enumerate(caches):
        assert list(batch_cache.row(lane)[k] for k in range(len(cache))) \
            == cache


@settings(max_examples=40, deadline=None)
@given(gen_program(), varying_sets, lane_args, arg_lists)
def test_batch_kernels_match_the_interpreter(src, varying, rows, delta):
    """Original, loader, reader and one delta kernel: per-lane values
    and costs equal the interpreter's, vectorized or not."""
    from repro.runtime.batch import HAVE_NUMPY
    from repro.runtime.interp import CostMeter, Interpreter

    if not HAVE_NUMPY:
        return
    spec = DataSpecializer(parse_program(src)).specialize("f", varying)
    n = len(rows)
    _assert_lanes(
        _batch_kernel(spec.original), rows,
        [spec.run_original(row) for row in rows],
    )
    loaded = [spec.run_loader(row) for row in rows]
    batch_cache = spec.new_batch_cache(n)
    _assert_lanes(
        _batch_kernel(spec.loader), rows,
        [(value, cost) for value, _, cost in loaded], cache=batch_cache,
    )
    caches = [cache for _, cache, _ in loaded]
    _assert_caches(batch_cache, caches)
    moved = [make_variant(row, varying, delta) for row in rows]
    _assert_lanes(
        _batch_kernel(spec.reader), moved,
        [spec.run_reader(cache, row) for cache, row in zip(caches, moved)],
        cache=batch_cache,
    )
    invariant = [name for name in spec.invariant_params()
                 if spec.dirty_slots([name])]
    if not invariant:
        return
    dirty = spec.dirty_slots(invariant[:1])
    delta_fn = spec.delta_loader(dirty)
    edited = [make_variant(row, invariant[:1], delta) for row in rows]
    refilled = []
    for row, cache in zip(edited, caches):
        meter = CostMeter()
        value = Interpreter().run(delta_fn, row, cache=cache, meter=meter)
        refilled.append((value, meter.total))
    _assert_lanes(
        _batch_kernel(delta_fn), edited, refilled, cache=batch_cache
    )
    _assert_caches(batch_cache, caches)


def _runaway(src):
    """``src`` with a loop that never ends ahead of its statements."""
    head, body = src.split("\n", 1)
    return "%s\n    int spin = 0;\n    while (p0 == p0) {\n" \
        "        spin = spin + 1;\n    }\n%s" % (head, body)


@settings(max_examples=20, deadline=None)
@given(gen_program(), varying_sets, lane_args)
def test_batch_runaway_loop_raises_eval_error(src, varying, rows):
    """A runaway loop stops with the same typed error on every kernel:
    the batch loop budget when vectorized, the interpreter's step budget
    on the per-row fallback."""
    import pytest

    from repro.lang.errors import EvalError
    from repro.runtime import compiler
    from repro.runtime.batch import HAVE_NUMPY, BatchKernel

    if not HAVE_NUMPY:
        return
    spec = DataSpecializer(parse_program(_runaway(src))).specialize(
        "f", varying
    )
    cap = compiler._MAX_BATCH_LOOP_ITERATIONS
    compiler._MAX_BATCH_LOOP_ITERATIONS = 16
    try:
        for fn in (spec.original, spec.loader):
            kernel = BatchKernel(fn, max_steps=2000)
            if kernel.vectorized:
                message = "batch loop iteration budget exceeded"
            else:
                assert kernel.fallback_reason in BATCH_FALLBACK_REASONS
                message = "interpreter step budget exceeded"
            cache = spec.new_batch_cache(len(rows))
            with pytest.raises(EvalError, match=message):
                kernel.run_lanes(_columns(rows), len(rows), cache=cache)
    finally:
        compiler._MAX_BATCH_LOOP_ITERATIONS = cap
