"""Type checker for the kernel language.

Checks a whole :class:`Program` and annotates every expression node with
its type (the ``ty`` attribute).  Returns a :class:`TypeInfo` per function
recording variable types, which later passes (splitting, compilation) use
to size cache slots and re-emit declarations.

Language rules enforced here, beyond ordinary C-style typing:

* A variable name may be declared at most once per function (no shadowing).
  The specialization analyses identify variables by name, as the paper's
  source-level prototype effectively does; unique names keep reaching
  definitions and the SSA-style normalization simple and honest.
* Conditions (``if``/``while``/ternary predicates, logical operands) have
  type ``int``; comparisons produce ``int``, as in C.
* ``int`` promotes implicitly to ``float``; nothing ever narrows
  implicitly.
* ``void`` calls appear only as expression statements.
"""

from __future__ import annotations

import threading
import weakref

from . import ast_nodes as A
from .errors import TypeError_
from .types import FLOAT, INT, VEC3, VOID, assignable, is_numeric, unify_arith


class TypeInfo(object):
    """Per-function results of type checking."""

    def __init__(self, function):
        self.function = function
        #: name -> Type for every parameter and local variable.
        self.var_types = {}
        #: name -> True when the name is a parameter.
        self.is_param = {}

    def type_of(self, name):
        return self.var_types[name]


def _err(message, node):
    raise TypeError_(message, getattr(node, "line", None))


class _FunctionChecker(object):
    def __init__(self, function, user_sigs, builtins):
        self.fn = function
        self.user_sigs = user_sigs
        self.builtins = builtins
        self.info = TypeInfo(function)

    # -- entry ---------------------------------------------------------------

    def check(self):
        for param in self.fn.params:
            if param.name in self.info.var_types:
                _err("duplicate parameter %r" % param.name, param)
            self.info.var_types[param.name] = param.ty
            self.info.is_param[param.name] = True
        self.check_block(self.fn.body)
        if self.fn.ret_type is not VOID and not self._definitely_returns(self.fn.body):
            _err(
                "function %r may fall off the end without returning" % self.fn.name,
                self.fn,
            )
        return self.info

    # -- statements ------------------------------------------------------------

    def check_block(self, block):
        for stmt in block.stmts:
            self.check_stmt(stmt)

    def check_stmt(self, stmt):
        if isinstance(stmt, A.Block):
            self.check_block(stmt)
        elif isinstance(stmt, A.VarDecl):
            self.check_decl(stmt)
        elif isinstance(stmt, A.Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, A.If):
            self.check_cond_expr(stmt.pred)
            self.check_block(stmt.then)
            if stmt.else_ is not None:
                self.check_block(stmt.else_)
        elif isinstance(stmt, A.While):
            self.check_cond_expr(stmt.pred)
            self.check_block(stmt.body)
        elif isinstance(stmt, A.Return):
            self.check_return(stmt)
        elif isinstance(stmt, A.ExprStmt):
            if not isinstance(stmt.expr, A.Call):
                _err("expression statements must be calls", stmt)
            self.check_expr(stmt.expr, allow_void=True)
        else:
            _err("unknown statement %r" % type(stmt).__name__, stmt)

    def check_decl(self, stmt):
        if stmt.name in self.info.var_types:
            _err(
                "redeclaration of %r (one declaration per name per function)"
                % stmt.name,
                stmt,
            )
        if stmt.ty is VOID:
            _err("variable %r may not have type void" % stmt.name, stmt)
        self.info.var_types[stmt.name] = stmt.ty
        self.info.is_param[stmt.name] = False
        if stmt.init is not None:
            init_ty = self.check_expr(stmt.init)
            if not assignable(stmt.ty, init_ty):
                _err(
                    "cannot initialize %s %r from %s"
                    % (stmt.ty, stmt.name, init_ty),
                    stmt,
                )

    def check_assign(self, stmt):
        if stmt.name not in self.info.var_types:
            _err("assignment to undeclared variable %r" % stmt.name, stmt)
        target_ty = self.info.var_types[stmt.name]
        value_ty = self.check_expr(stmt.expr)
        if not assignable(target_ty, value_ty):
            _err(
                "cannot assign %s to %s %r" % (value_ty, target_ty, stmt.name),
                stmt,
            )

    def check_return(self, stmt):
        if self.fn.ret_type is VOID:
            if stmt.expr is not None:
                _err("void function returns a value", stmt)
            return
        if stmt.expr is None:
            _err("non-void function %r returns nothing" % self.fn.name, stmt)
        value_ty = self.check_expr(stmt.expr)
        if not assignable(self.fn.ret_type, value_ty):
            _err(
                "cannot return %s from function returning %s"
                % (value_ty, self.fn.ret_type),
                stmt,
            )

    def check_cond_expr(self, expr):
        ty = self.check_expr(expr)
        if ty is not INT:
            _err("condition must have type int, found %s" % ty, expr)

    def _definitely_returns(self, stmt):
        if isinstance(stmt, A.Return):
            return True
        if isinstance(stmt, A.Block):
            return any(self._definitely_returns(s) for s in stmt.stmts)
        if isinstance(stmt, A.If):
            return (
                stmt.else_ is not None
                and self._definitely_returns(stmt.then)
                and self._definitely_returns(stmt.else_)
            )
        return False

    # -- expressions -------------------------------------------------------------

    def check_expr(self, expr, allow_void=False):
        ty = self._expr_type(expr, allow_void)
        expr.ty = ty
        return ty

    def _expr_type(self, expr, allow_void):
        if isinstance(expr, A.IntLit):
            return INT
        if isinstance(expr, A.FloatLit):
            return FLOAT
        if isinstance(expr, A.VarRef):
            if expr.name not in self.info.var_types:
                _err("reference to undeclared variable %r" % expr.name, expr)
            return self.info.var_types[expr.name]
        if isinstance(expr, A.BinOp):
            return self._binop_type(expr)
        if isinstance(expr, A.UnaryOp):
            return self._unop_type(expr)
        if isinstance(expr, A.Call):
            return self._call_type(expr, allow_void)
        if isinstance(expr, A.Member):
            base_ty = self.check_expr(expr.base)
            if base_ty is not VEC3:
                _err("component selection on non-vec3 value (%s)" % base_ty, expr)
            return FLOAT
        if isinstance(expr, A.Cond):
            self.check_cond_expr(expr.pred)
            then_ty = self.check_expr(expr.then)
            else_ty = self.check_expr(expr.else_)
            if then_ty is else_ty:
                return then_ty
            unified = unify_arith(then_ty, else_ty)
            if unified is None:
                _err(
                    "ternary arms have incompatible types %s and %s"
                    % (then_ty, else_ty),
                    expr,
                )
            return unified
        if isinstance(expr, A.CacheRead):
            if expr.ty is None:
                _err("cache read without a recorded type", expr)
            return expr.ty
        if isinstance(expr, A.CacheStore):
            return self.check_expr(expr.value)
        _err("unknown expression %r" % type(expr).__name__, expr)

    def _binop_type(self, expr):
        left = self.check_expr(expr.left)
        right = self.check_expr(expr.right)
        op = expr.op
        if op in ("&&", "||"):
            if left is not INT or right is not INT:
                _err("logical %s requires int operands" % op, expr)
            return INT
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if not (is_numeric(left) and is_numeric(right)):
                _err("comparison %s requires scalar operands" % op, expr)
            return INT
        if op == "%":
            if left is not INT or right is not INT:
                _err("%% requires int operands", expr)
            return INT
        # Arithmetic: + - * /
        if left is VEC3 or right is VEC3:
            if op in ("+", "-") and left is VEC3 and right is VEC3:
                return VEC3
            if op == "*" and left is VEC3 and is_numeric(right):
                return VEC3
            if op == "*" and right is VEC3 and is_numeric(left):
                return VEC3
            if op == "/" and left is VEC3 and is_numeric(right):
                return VEC3
            _err(
                "invalid vec3 arithmetic: %s %s %s" % (left, op, right),
                expr,
            )
        unified = unify_arith(left, right)
        if unified is None:
            _err("invalid operands to %s: %s and %s" % (op, left, right), expr)
        return unified

    def _unop_type(self, expr):
        operand = self.check_expr(expr.operand)
        if expr.op == "-":
            if operand is VEC3 or is_numeric(operand):
                return operand
            _err("unary - requires a numeric or vec3 operand", expr)
        if expr.op == "!":
            if operand is not INT:
                _err("! requires an int operand", expr)
            return INT
        _err("unknown unary operator %r" % expr.op, expr)

    def _call_type(self, expr, allow_void):
        sig = self._resolve_signature(expr)
        param_types, ret_type = sig
        if len(expr.args) != len(param_types):
            _err(
                "call to %r with %d arguments, expected %d"
                % (expr.name, len(expr.args), len(param_types)),
                expr,
            )
        for index, (arg, want) in enumerate(zip(expr.args, param_types)):
            got = self.check_expr(arg)
            if not assignable(want, got):
                _err(
                    "argument %d of %r has type %s, expected %s"
                    % (index + 1, expr.name, got, want),
                    expr,
                )
        if ret_type is VOID and not allow_void:
            _err("void call %r used as a value" % expr.name, expr)
        return ret_type

    def _resolve_signature(self, expr):
        if expr.name in self.user_sigs:
            return self.user_sigs[expr.name]
        builtin = self.builtins.get(expr.name)
        if builtin is not None:
            return (builtin.param_types, builtin.ret_type)
        _err("call to unknown function %r" % expr.name, expr)


class Published(object):
    """What a published program carries: its ``{name: TypeInfo}``, and
    ``derived``, results later stages computed from it once (filled
    under ``lock``: sessions are built from the daemon's handler
    threads)."""

    __slots__ = ("infos", "derived", "lock")

    def __init__(self, infos):
        self.infos = infos
        self.derived = {}
        self.lock = threading.Lock()


#: Published program -> its :class:`Published` entry.  A published
#: program was checked once and its nodes are never written again (other
#: threads may be reading them), so :func:`check_program` hands back its
#: results instead of walking and re-annotating it.
_PUBLISHED = weakref.WeakKeyDictionary()


def publish(program, infos):
    """Record ``program`` as checked, with ``infos`` its check results."""
    _PUBLISHED[program] = Published(infos)


def published(program):
    """The :class:`Published` entry of ``program``, or None when it was
    not published."""
    return _PUBLISHED.get(program)


def check_program(program):
    """Type check every function; return ``{name: TypeInfo}``."""
    entry = _PUBLISHED.get(program)
    if entry is not None:
        return dict(entry.infos)
    return check_linked(program, {})


def check_linked(program, checked):
    """Type check ``program`` whose functions in ``checked`` (``{name:
    TypeInfo}`` from an earlier check of a library it links) are already
    checked: their signatures take part, their bodies are not visited
    again.  Returns ``{name: TypeInfo}`` for every function, and raises
    the error :func:`check_program` would."""
    from ..runtime.builtins import REGISTRY as builtin_registry

    user_sigs = {}
    for fn in program.functions:
        if fn.name in user_sigs:
            _err("duplicate function %r" % fn.name, fn)
        if fn.name in builtin_registry:
            _err("function %r shadows a builtin" % fn.name, fn)
        user_sigs[fn.name] = (tuple(p.ty for p in fn.params), fn.ret_type)

    infos = {}
    for fn in program.functions:
        info = checked.get(fn.name)
        if info is None or info.function is not fn:
            info = _FunctionChecker(fn, user_sigs, builtin_registry).check()
        infos[fn.name] = info
    return infos


def check_function(function, program=None):
    """Check a single function (wrapping it in a trivial program if needed)."""
    if program is None:
        program = A.Program([function])
    infos = check_program(program)
    return infos[function.name]
