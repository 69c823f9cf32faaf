"""AST → Python compiler.

The paper's prototype emits C that MSVC compiles; our equivalent "object
code" is generated Python.  The compiler translates a type-checked kernel
function into a Python function of the same parameters (plus a trailing
``__cache`` argument used by loaders and readers), suitable for wall-clock
benchmarking with pytest-benchmark.

:func:`compile_batch_function` builds the batch backend's whole-frame
kernels.  They are not generated text: each is a list of Python closures
over NumPy array operations, built straight from the AST, so a kernel
costs no ``compile()`` call (paper Section 5 leaves only the data vector
to run time; a loader or reader is ready as soon as it is built).

Requirements: the function must have been type checked (expression ``ty``
annotations drive operator selection — C truncating division for ints,
vector helpers for vec3).
"""

from __future__ import annotations

import operator

from ..lang import ast_nodes as A
from ..lang.errors import EvalError
from ..lang.ops import (
    CACHE_READ_COST,
    CACHE_WRITE_COST,
    MEMBER_COST,
    VAR_REF_COST,
    binop_cost,
    unop_cost,
)
from ..lang.types import INT, MAT3, VEC3
from . import values as V
from .builtins import REGISTRY
from .interp import _int_div, _int_mod
from .vecops import (
    HAVE_NUMPY,
    VEC_BUILTINS,
    VECTORIZABLE,
    BatchCompileError,
    _bidiv,
    _bimod,
    _bvdiv,
    _bvscale,
    _czero,
    _full_mask,
    _land,
    _lnot,
    _lor,
    _mand,
    _mnot,
    _mor,
    _mwhere,
    _ne0,
    _np,
    _sel,
    _selv,
)


def _mangle(name):
    return "v_" + name


def _fn_name(name):
    return "k_" + name


def _store(cache, slot, value):
    cache[slot] = value
    return value


class _Emitter(object):
    def __init__(self):
        self.lines = []
        self.depth = 0

    def line(self, text):
        self.lines.append("    " * self.depth + text)

    def source(self):
        return "\n".join(self.lines) + "\n"


class _Compiler(object):
    def __init__(self, emitter):
        self.out = emitter
        self.used_builtins = set()
        self.used_functions = set()

    # -- function -----------------------------------------------------------

    def compile_function(self, fn):
        params = [_mangle(p.name) for p in fn.params]
        params.append("__cache=None")
        self.out.line("def %s(%s):" % (_fn_name(fn.name), ", ".join(params)))
        self.out.depth += 1
        if fn.body.stmts:
            self.block(fn.body)
        else:
            self.out.line("pass")
        self.out.line("return None")
        self.out.depth -= 1
        self.out.line("")

    # -- statements ------------------------------------------------------------

    def block(self, block):
        if not block.stmts:
            self.out.line("pass")
            return
        for stmt in block.stmts:
            self.stmt(stmt)

    def stmt(self, stmt):
        kind = type(stmt)
        if kind is A.Assign:
            self.out.line("%s = %s" % (_mangle(stmt.name), self.expr(stmt.expr)))
        elif kind is A.VarDecl:
            if stmt.init is not None:
                self.out.line("%s = %s" % (_mangle(stmt.name), self.expr(stmt.init)))
        elif kind is A.If:
            self.out.line("if %s != 0:" % self.expr(stmt.pred))
            self.out.depth += 1
            self.block(stmt.then)
            self.out.depth -= 1
            if stmt.else_ is not None:
                self.out.line("else:")
                self.out.depth += 1
                self.block(stmt.else_)
                self.out.depth -= 1
        elif kind is A.While:
            self.out.line("while %s != 0:" % self.expr(stmt.pred))
            self.out.depth += 1
            self.block(stmt.body)
            self.out.depth -= 1
        elif kind is A.Return:
            if stmt.expr is None:
                self.out.line("return None")
            else:
                self.out.line("return %s" % self.expr(stmt.expr))
        elif kind is A.Block:
            self.block(stmt)
        elif kind is A.ExprStmt:
            self.out.line(self.expr(stmt.expr))
        else:
            raise EvalError("cannot compile statement %r" % kind.__name__)

    # -- expressions -------------------------------------------------------------

    def expr(self, expr):
        kind = type(expr)
        if kind is A.IntLit:
            return repr(expr.value)
        if kind is A.FloatLit:
            return repr(expr.value)
        if kind is A.VarRef:
            return _mangle(expr.name)
        if kind is A.BinOp:
            return self.binop(expr)
        if kind is A.UnaryOp:
            operand = self.expr(expr.operand)
            if expr.op == "-":
                if expr.operand.ty is VEC3:
                    return "_vneg(%s)" % operand
                return "(-%s)" % operand
            if expr.op == "!":
                return "(0 if %s != 0 else 1)" % operand
            raise EvalError("cannot compile unary %r" % expr.op)
        if kind is A.Call:
            args = ", ".join(self.expr(arg) for arg in expr.args)
            if expr.name in REGISTRY:
                self.used_builtins.add(expr.name)
                return "_b_%s(%s)" % (expr.name, args)
            self.used_functions.add(expr.name)
            return "%s(%s)" % (_fn_name(expr.name), args)
        if kind is A.Member:
            index = "xyz".index(expr.field)
            return "%s[%d]" % (self.expr(expr.base), index)
        if kind is A.Cond:
            return "(%s if %s != 0 else %s)" % (
                self.expr(expr.then),
                self.expr(expr.pred),
                self.expr(expr.else_),
            )
        if kind is A.CacheRead:
            return "__cache[%d]" % expr.slot
        if kind is A.CacheStore:
            return "_store(__cache, %d, %s)" % (expr.slot, self.expr(expr.value))
        raise EvalError("cannot compile expression %r" % kind.__name__)

    def binop(self, expr):
        op = expr.op
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        lty = expr.left.ty
        rty = expr.right.ty

        if op == "&&":
            return "(1 if %s != 0 and %s != 0 else 0)" % (left, right)
        if op == "||":
            return "(1 if %s != 0 or %s != 0 else 0)" % (left, right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return "(1 if %s %s %s else 0)" % (left, op, right)

        if lty is VEC3 or rty is VEC3:
            if op == "+":
                return "_vadd(%s, %s)" % (left, right)
            if op == "-":
                return "_vsub(%s, %s)" % (left, right)
            if op == "*":
                if lty is VEC3 and rty is not VEC3:
                    return "_vscale(%s, %s)" % (left, right)
                return "_vscale(%s, %s)" % (right, left)
            if op == "/":
                return "_vdiv(%s, %s)" % (left, right)
            raise EvalError("cannot compile vec3 %s" % op)

        if op == "/" and lty is INT and rty is INT:
            return "_idiv(%s, %s)" % (left, right)
        if op == "%":
            return "_imod(%s, %s)" % (left, right)
        return "(%s %s %s)" % (left, op, right)


def _base_namespace():
    namespace = {
        "_vadd": V.vadd,
        "_vsub": V.vsub,
        "_vneg": V.vneg,
        "_vscale": V.vscale,
        "_vdiv": V.vdiv,
        "_idiv": _int_div,
        "_imod": _int_mod,
        "_store": _store,
    }
    for name, builtin in REGISTRY.items():
        namespace["_b_" + name] = builtin.fn
    return namespace


def compile_function(fn, program=None):
    """Compile ``fn`` into a Python callable.

    ``program`` supplies callee definitions for user-function calls (the
    callees are compiled into the same namespace).  The returned callable
    takes the kernel parameters positionally plus an optional ``__cache``
    list.
    """
    emitter = _Emitter()
    compiler = _Compiler(emitter)

    pending = [fn]
    compiled = set()
    while pending:
        current = pending.pop()
        if current.name in compiled:
            continue
        compiled.add(current.name)
        compiler.compile_function(current)
        for callee in sorted(compiler.used_functions):
            if callee in compiled:
                continue
            if program is None:
                raise EvalError(
                    "cannot compile call to %r without a program" % callee
                )
            pending.append(program.function(callee))

    namespace = _base_namespace()
    exec(compile(emitter.source(), "<kernel:%s>" % fn.name, "exec"), namespace)
    return namespace[_fn_name(fn.name)]


def compile_source(fn, program=None):
    """Return the generated Python source text (debugging, docs, tests)."""
    emitter = _Emitter()
    compiler = _Compiler(emitter)
    compiler.compile_function(fn)
    if program is not None:
        for callee in sorted(compiler.used_functions):
            compiler.compile_function(program.function(callee))
    return emitter.source()


# ---------------------------------------------------------------------------
# Vectorized (batch) kernels
# ---------------------------------------------------------------------------
#
# The scalar compiler above produces one-pixel kernels; batch kernels
# take a whole pixel-argument array per parameter and a struct-of-arrays
# ``__cache`` (one contiguous array per CacheSlot).  Control-flow
# divergence is linearized with masks: both arms of an ``if`` evaluate
# full-width and assignments select lanewise; ``while`` loops iterate
# until no lane's predicate holds.
#
# Alongside each value the kernel accumulates a per-lane cost array that
# replicates the metering interpreter's charges exactly (variable refs,
# operators by static type, builtin costs, cache traffic, and the
# branch-dependent parts via masked charges), so a batch run reports the
# same CostMeter total as n scalar runs.
#
# A batch kernel is built directly as a list of closures, one per
# array operation, with no source text and no call to ``compile()``:
# every value lives in one slot of a per-call environment list, and
# each closure reads its operand slots inline and writes its result
# slot.  Constants sit in the environment template, so an operand is
# always a slot and no closure exists per leaf.


#: Environment slots every kernel reserves ahead of its parameters.
_COST, _N, _CACHE, _PARAMS = 0, 1, 2, 3

_MAX_BATCH_LOOP_ITERATIONS = 2_000_000

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _comparison(compare):
    def run(a, b):
        return _sel(compare(a, b), 1, 0)

    return run


_COMPARE = {
    "==": _comparison(operator.eq),
    "!=": _comparison(operator.ne),
    "<": _comparison(operator.lt),
    "<=": _comparison(operator.le),
    ">": _comparison(operator.gt),
    ">=": _comparison(operator.ge),
}


def _vscale_right(s, v):
    """``scalar * vec3``: the vector operand goes first to the helper."""
    return _bvscale(v, s)


def _call_step(out, fn, args):
    """``env[out] = fn(*env[args])`` as one closure."""
    if len(args) == 1:
        (a,) = args

        def step(env):
            env[out] = fn(env[a])
    elif len(args) == 2:
        a, b = args

        def step(env):
            env[out] = fn(env[a], env[b])
    elif len(args) == 3:
        a, b, c = args

        def step(env):
            env[out] = fn(env[a], env[b], env[c])
    elif len(args) == 4:
        a, b, c, d = args

        def step(env):
            env[out] = fn(env[a], env[b], env[c], env[d])
    else:
        args = tuple(args)

        def step(env):
            env[out] = fn(*[env[a] for a in args])
    return step


def _copy_step(out, source):
    def step(env):
        env[out] = env[source]

    return step


def _charge_step(amount, active):
    """Add a constant or lane-dependent ``amount`` (an int, or a closure
    over the environment) to the cost column, on ``active`` lanes only
    when a mask slot is given."""
    if callable(amount):
        if active is None:
            def step(env):
                env[_COST] = env[_COST] + amount(env)
        else:
            def step(env):
                env[_COST] = env[_COST] + _mwhere(env[active], amount(env))
    elif active is None:
        def step(env):
            env[_COST] = env[_COST] + amount
    else:
        def step(env):
            env[_COST] = env[_COST] + _mwhere(env[active], amount)
    return step


def _store_step(slot, value, mask):
    if mask is None:
        def step(env):
            env[_CACHE].store(slot, env[value], None)
    else:
        def step(env):
            env[_CACHE].store(slot, env[value], env[mask])
    return step


def _loop_step(loop_mask, pred_steps, pred, body_mask, body_steps, cap):
    """One ``while``: iterate until no lane's predicate holds."""

    def step(env):
        iterations = 0
        while 1:
            iterations += 1
            if iterations > cap:
                raise EvalError(
                    "batch loop iteration budget exceeded (runaway loop?)"
                )
            for sub in pred_steps:
                sub(env)
            env[body_mask] = _mand(env[loop_mask], _ne0(env[pred]))
            if not _np.any(env[body_mask]):
                break
            for sub in body_steps:
                sub(env)
            env[loop_mask] = env[body_mask]

    return step


def _cost_value(cost):
    """A cost (an int or a closure over the environment) as a closure."""
    if callable(cost):
        return cost
    return lambda env: cost


def _select_cost(mask, then_cost, else_cost):
    """Lane cost ``then_cost`` where ``mask`` holds, else ``else_cost``."""
    if not (callable(then_cost) or callable(else_cost)):
        return lambda env: _sel(env[mask], then_cost, else_cost)
    then_cost = _cost_value(then_cost)
    else_cost = _cost_value(else_cost)
    return lambda env: _sel(env[mask], then_cost(env), else_cost(env))


def _taken_cost(mask, negate, cost):
    """Lane cost ``cost`` on the lanes where ``mask`` (or its inverse)
    holds."""
    cost = _cost_value(cost)
    if negate:
        return lambda env: _mwhere(_mnot(env[mask]), cost(env))
    return lambda env: _mwhere(env[mask], cost(env))


def _sum_cost(const, terms):
    def total(env):
        value = const
        for term in terms:
            value = value + term(env)
        return value

    return total


class _CostFrame(object):
    """Captured cost of a sub-expression (const part + masked terms)."""

    __slots__ = ("const", "terms")

    def __init__(self):
        self.const = 0
        self.terms = []

    def total(self):
        """Combined cost: an int when constant, else a closure."""
        if not self.terms:
            return self.const
        return _sum_cost(self.const, tuple(self.terms))


def _has_store(node):
    return any(isinstance(sub, A.CacheStore) for sub in A.walk(node))


def _contains_return(node):
    return any(isinstance(sub, A.Return) for sub in A.walk(node))


class _BatchCompiler(object):
    """Builds one function's batch kernel as a list of closures over
    environment slots (see the section comment above)."""

    def __init__(self):
        #: The environment template: constants at their slots.
        self.template = [None] * _PARAMS
        self._consts = {}
        #: Variable name -> the slot holding its current value.
        self.vars = {}
        #: Variable names known to be bound (full-width) so far.
        self.defined = set()
        #: Closures of the statement position being compiled.
        self.steps = []
        #: Active lane mask slot for the current statement position, or
        #: None when all lanes are live.
        self.active = None
        #: Pending constant cost for the current (mask, position) region.
        self.pending = 0
        #: Capture stack for expression-level divergence (Cond, &&, ||).
        self.frames = []
        self.ret_slot = None
        self.done_slot = None
        #: Result slot of an unmasked top-level return.
        self.final = None
        self._ret_epoch = 0
        #: Number of ``while`` loops around the statement position.
        self.loop_depth = 0
        #: Whether a return ended the current block, and the variable
        #: bindings as that return left them.
        self.dead = False
        self._bound_at_return = None

    # -- slots and steps ----------------------------------------------------

    def new_slot(self):
        self.template.append(None)
        return len(self.template) - 1

    def const(self, value):
        key = (type(value), repr(value))
        slot = self._consts.get(key)
        if slot is None:
            slot = self._consts[key] = self.new_slot()
            self.template[slot] = value
        return slot

    def var(self, name):
        slot = self.vars.get(name)
        if slot is None:
            slot = self.vars[name] = self.new_slot()
        return slot

    def emit(self, fn, *args):
        """Append ``tmp = fn(*args)`` over operand slots; returns tmp."""
        out = self.new_slot()
        self.steps.append(_call_step(out, fn, args))
        return out

    def copy(self, source):
        out = self.new_slot()
        self.steps.append(_copy_step(out, source))
        return out

    def charge(self, amount):
        if not amount:
            return
        if self.frames:
            self.frames[-1].const += amount
        else:
            self.pending += amount

    def charge_lane(self, term):
        """Charge a lane-dependent cost closure (already internally
        masked for its own divergence)."""
        if self.frames:
            self.frames[-1].terms.append(term)
        else:
            self.steps.append(_charge_step(term, self.active))

    def flush(self):
        """Emit the pending constant cost under the current active mask."""
        if not self.pending:
            return
        self.steps.append(_charge_step(self.pending, self.active))
        self.pending = 0

    def _push(self):
        self.frames.append(_CostFrame())

    def _pop(self):
        return self.frames.pop()

    def _combine_mask(self, outer, mask, negate=False):
        """A slot holding ``mask`` (inverted when ``negate``) restricted
        to ``outer``."""
        if negate:
            mask = self.emit(_mnot, mask)
        if outer is None:
            return mask
        return self.emit(_mand, outer, mask)

    @staticmethod
    def _select_fn(ty):
        return _selv if (ty is VEC3 or ty is MAT3) else _sel

    # -- function -----------------------------------------------------------

    def build(self, fn):
        """The kernel callable of ``fn``: ``kernel(*params, __cache=None,
        __n=None)`` returns ``(values, lane_costs)``."""
        names = fn.param_names()
        for name in names:
            self.var(name)
        self.defined.update(names)
        steps = self.steps
        self.block(fn.body.stmts)
        if self.final is not None:
            result = self.final
        elif self.ret_slot is not None:
            result = self.ret_slot
        else:
            result = self.const(None)
        return _make_kernel(
            fn.name, len(names), self.template, tuple(steps), result
        )

    # -- statements ---------------------------------------------------------

    def block(self, stmts):
        """Compile one block under the current mask.  A return ends the
        block for every lane it runs on: the statements after it are
        compiled (so the fallback decision sees them) into steps that
        are dropped, as they never run, and the variables they bind are
        unbound again."""
        live, dead = self.steps, self.dead
        for stmt in stmts:
            self.stmt(stmt)
        self.flush()
        if self.dead and not dead:
            self.vars, self.defined = self._bound_at_return
        self.steps, self.dead = live, dead

    def stmt(self, stmt):
        kind = type(stmt)
        if kind is A.Assign:
            self.assign(stmt.name, stmt.expr)
        elif kind is A.VarDecl:
            if stmt.init is not None:
                self.assign(stmt.name, stmt.init)
        elif kind is A.If:
            self.if_stmt(stmt)
        elif kind is A.While:
            self.while_stmt(stmt)
        elif kind is A.Return:
            self.return_stmt(stmt)
        elif kind is A.Block:
            for sub in stmt.stmts:
                self.stmt(sub)
        elif kind is A.ExprStmt:
            self.expr(stmt.expr, self.active)
        else:
            raise BatchCompileError(
                "cannot batch-compile statement %r" % kind.__name__
            )

    def assign(self, name, expr):
        """Outside loops a variable names whichever slot holds its
        current value: an assignment rebinds it, so a plain one costs no
        step.  Inside a loop each variable keeps one slot, written in
        place, because the loop's steps run again."""
        value = self.expr(expr, self.active)
        self.charge(VAR_REF_COST)
        if self.active is not None and name in self.defined:
            current = self.vars[name]
            target = current if self.loop_depth else self.new_slot()
            self.steps.append(_call_step(
                target, self._select_fn(expr.ty), (self.active, value, current)
            ))
            self.vars[name] = target
        elif self.loop_depth:
            self.steps.append(_copy_step(self.var(name), value))
        else:
            self.vars[name] = value
        self.defined.add(name)

    def if_stmt(self, stmt):
        pred = self.expr(stmt.pred, self.active)
        self.flush()
        epoch = self._ret_epoch
        outer = self.active
        mask = self.emit(_ne0, pred)
        then_mask = mask if outer is None else self.emit(_mand, outer, mask)
        self.active = then_mask
        self.block(stmt.then.stmts)
        if stmt.else_ is not None:
            inverse = self.emit(_mnot, mask)
            else_mask = inverse if outer is None else self.emit(
                _mand, outer, inverse
            )
            self.active = else_mask
            self.block(stmt.else_.stmts)
        self.active = outer
        if self._ret_epoch != epoch:
            # A masked return fired inside an arm: lanes that returned
            # must be excluded from everything downstream.
            self.active = self._combine_mask(outer, self.done_slot, True)

    def while_stmt(self, stmt):
        if _contains_return(stmt):
            raise BatchCompileError("return inside a loop")
        self.flush()
        if not self.loop_depth:
            # Give every variable the loop writes a slot of its own.
            for name in sorted(A.assigned_var_names(stmt) & self.defined):
                self.vars[name] = self.copy(self.vars[name])
        self.loop_depth += 1
        outer = self.active
        if outer is not None:
            loop_mask = self.copy(outer)
        else:
            loop_mask = self.emit(_full_mask, _N)
        enclosing = self.steps
        self.steps = pred_steps = []
        self.active = loop_mask
        pred = self.expr(stmt.pred, loop_mask)
        self.flush()
        body_mask = self.new_slot()
        self.steps = body_steps = []
        self.active = body_mask
        for sub in stmt.body.stmts:
            self.stmt(sub)
        self.flush()
        self.steps = enclosing
        self.steps.append(_loop_step(
            loop_mask, tuple(pred_steps), pred, body_mask, tuple(body_steps),
            _MAX_BATCH_LOOP_ITERATIONS,
        ))
        self.active = outer
        self.loop_depth -= 1

    def return_stmt(self, stmt):
        if stmt.expr is None:
            raise BatchCompileError("cannot batch-compile a void return")
        value = self.expr(stmt.expr, self.active)
        self.flush()
        if self.active is None and self.done_slot is None:
            if self.final is None:
                self.final = value
            self._end_block()
            return
        select = self._select_fn(stmt.expr.ty)
        if self.done_slot is None:
            self.ret_slot = self.new_slot()
            self.done_slot = self.new_slot()
            # An int zero keeps an int result int64 (a float one would
            # round it past 2**53).
            zero = self.const(0 if stmt.expr.ty is INT else 0.0)
            self.steps.append(_call_step(
                self.ret_slot, select, (self.active, value, zero)
            ))
            self.steps.append(_copy_step(self.done_slot, self.active))
        else:
            self.steps.append(_call_step(
                self.ret_slot, select, (self.active, value, self.ret_slot)
            ))
            self.steps.append(_call_step(
                self.done_slot, _mor, (self.done_slot, self.active)
            ))
        self._ret_epoch += 1
        self._end_block()

    def _end_block(self):
        if not self.dead:
            self.dead = True
            self._bound_at_return = (dict(self.vars), set(self.defined))
        self.steps = []

    # -- expressions --------------------------------------------------------

    def expr(self, expr, emask):
        """Emit full-width evaluation of ``expr``; returns the slot that
        holds its value (a constant, variable or temp).

        ``emask`` is the mask under which the scalar path would evaluate
        this expression; it gates cache stores (the only side effect a
        vectorizable expression can have)."""
        kind = type(expr)
        if kind is A.IntLit or kind is A.FloatLit:
            return self.const(expr.value)
        if kind is A.VarRef:
            if expr.name not in self.defined:
                raise BatchCompileError(
                    "variable %r is read before it is assigned" % expr.name
                )
            self.charge(VAR_REF_COST)
            return self.vars[expr.name]
        if kind is A.BinOp:
            return self.binop(expr, emask)
        if kind is A.UnaryOp:
            operand = self.expr(expr.operand, emask)
            self.charge(unop_cost(expr.op, expr.operand.ty is VEC3))
            if expr.op == "-":
                return self.emit(operator.neg, operand)
            if expr.op == "!":
                return self.emit(_lnot, operand)
            raise BatchCompileError("cannot batch-compile unary %r" % expr.op)
        if kind is A.Call:
            return self.call(expr, emask)
        if kind is A.Member:
            base = self.expr(expr.base, emask)
            self.charge(MEMBER_COST)
            component = operator.itemgetter((Ellipsis, "xyz".index(expr.field)))
            return self.emit(component, base)
        if kind is A.Cond:
            return self.cond(expr, emask)
        if kind is A.CacheRead:
            self.charge(CACHE_READ_COST)
            return self.emit(operator.methodcaller("load", expr.slot), _CACHE)
        if kind is A.CacheStore:
            value = self.expr(expr.value, emask)
            self.charge(CACHE_WRITE_COST)
            self.steps.append(_store_step(expr.slot, value, emask))
            return value
        raise BatchCompileError(
            "cannot batch-compile expression %r" % kind.__name__
        )

    def call(self, expr, emask):
        args = [self.expr(arg, emask) for arg in expr.args]
        builtin = REGISTRY.get(expr.name)
        if builtin is None:
            raise BatchCompileError(
                "cannot batch-compile call to user function %r" % expr.name
            )
        if expr.name not in VECTORIZABLE:
            raise BatchCompileError(
                "builtin %r has side effects" % expr.name
            )
        self.charge(builtin.cost)
        return self.emit(VEC_BUILTINS[expr.name], _N, *args)

    def cond(self, expr, emask):
        pred = self.expr(expr.pred, emask)
        self.charge(1)
        mask = self.emit(_ne0, pred)
        then_emask = emask
        if _has_store(expr.then):
            then_emask = self._combine_mask(emask, mask)
        self._push()
        then_value = self.expr(expr.then, then_emask)
        then_cost = self._pop().total()
        else_emask = emask
        if _has_store(expr.else_):
            else_emask = self._combine_mask(emask, mask, True)
        self._push()
        else_value = self.expr(expr.else_, else_emask)
        else_cost = self._pop().total()
        if isinstance(then_cost, int) and isinstance(else_cost, int) \
                and then_cost == else_cost:
            self.charge(then_cost)
        else:
            self.charge_lane(_select_cost(mask, then_cost, else_cost))
        return self.emit(
            self._select_fn(expr.ty), mask, then_value, else_value
        )

    def binop(self, expr, emask):
        op = expr.op
        if op == "&&" or op == "||":
            return self.logical(expr, emask)

        left = self.expr(expr.left, emask)
        right = self.expr(expr.right, emask)
        lty = expr.left.ty
        rty = expr.right.ty

        if op in _COMPARE:
            self.charge(binop_cost(op))
            return self.emit(_COMPARE[op], left, right)

        vector = lty is VEC3 or rty is VEC3
        self.charge(binop_cost(op, vector))
        if vector:
            if op == "+" or op == "-":
                return self.emit(_ARITH[op], left, right)
            if op == "*":
                if lty is VEC3 and rty is not VEC3:
                    return self.emit(_bvscale, left, right)
                return self.emit(_vscale_right, left, right)
            if op == "/":
                return self.emit(_bvdiv, left, right)
            raise BatchCompileError("cannot batch-compile vec3 %s" % op)

        if op == "/" and lty is INT and rty is INT:
            return self.emit(_bidiv, left, right)
        if op == "%":
            return self.emit(_bimod, left, right)
        return self.emit(_ARITH[op], left, right)

    def logical(self, expr, emask):
        op = expr.op
        left = self.expr(expr.left, emask)
        self.charge(binop_cost(op))
        mask = self.emit(_ne0, left)
        # The scalar path evaluates the right operand lazily: its cost
        # (and any cache store inside it) applies only on the lanes where
        # the left operand did not already decide the result.
        negate = op == "||"
        right_emask = emask
        if _has_store(expr.right):
            right_emask = self._combine_mask(emask, mask, negate)
        self._push()
        right = self.expr(expr.right, right_emask)
        right_cost = self._pop().total()
        if right_cost:
            self.charge_lane(_taken_cost(mask, negate, right_cost))
        return self.emit(_land if op == "&&" else _lor, mask, right)


def _make_kernel(name, arity, template, steps, result):
    def kernel(*args, __cache=None, __n=None):
        if len(args) != arity:
            raise TypeError(
                "batch kernel %s takes %d arguments (%d given)"
                % (name, arity, len(args))
            )
        env = template.copy()
        env[_N] = __n
        env[_CACHE] = __cache
        env[_PARAMS:_PARAMS + arity] = args
        env[_COST] = _czero(__n)
        for step in steps:
            step(env)
        return env[result], env[_COST]

    kernel.__name__ = kernel.__qualname__ = "kb_" + name
    return kernel


def compile_batch_function(fn):
    """Build ``fn``'s batch kernel callable.

    The kernel takes one array (or uniform scalar) per parameter plus
    ``__cache`` (a struct-of-arrays cache, for loaders/readers) and
    ``__n`` (the lane count), and returns ``(values, lane_costs)``.

    Raises :class:`BatchCompileError` when NumPy is missing or the
    function contains a construct the vectorized mode cannot express
    (impure builtins, void or in-loop returns, user-function calls, a
    variable read before it is assigned).
    """
    if not HAVE_NUMPY:
        raise BatchCompileError("NumPy is unavailable")
    return _BatchCompiler().build(fn)
