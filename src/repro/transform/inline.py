"""User-function inlining.

The paper's prototype "assumes that the fragment to be specialized is a
single nonrecursive procedure" (Section 5), but its shader workloads call
a small mathematical library.  The same is true here: shaders call
kernel-language library functions, and this pass flattens those calls away
before specialization so the analyses see one self-contained procedure.

Callee discipline
-----------------
A callee may contain arbitrary structured statements, but ``return`` may
appear only as its final top-level statement (or nowhere, for ``void``
callees).  This keeps inlining a pure splice — no control-flow
reconstruction — and every library function in this repository satisfies
it.  Recursive calls (direct or mutual) are rejected.

Because expressions in this language are pure (impure builtins return
``void`` and thus cannot nest), lifting a call's expansion in front of the
enclosing statement preserves semantics.  The single exception is a user
call in a ``while`` predicate, which must re-evaluate every iteration;
those loops are first rewritten as::

    while (P) S      ==>      int t = P;  while (t) { S;  t = P; }

and the two copies of ``P`` are then inlined normally.
"""

from __future__ import annotations

import itertools

from ..lang import ast_nodes as A
from ..lang.errors import SpecializationError
from ..lang.types import INT, VOID
from ..runtime.builtins import is_builtin


def _rename_vars(node, mapping):
    """Rename variable occurrences per ``mapping`` throughout a subtree."""
    for item in A.walk(node):
        if isinstance(item, A.VarRef) and item.name in mapping:
            item.name = mapping[item.name]
        elif isinstance(item, (A.Assign, A.VarDecl)) and item.name in mapping:
            item.name = mapping[item.name]
    return node


def _check_callee_shape(fn):
    """Enforce the return-only-at-end discipline on a callee."""
    stmts = fn.body.stmts
    for position, stmt in enumerate(stmts):
        for node in A.walk(stmt):
            if isinstance(node, A.Return):
                if node is not stmt or position != len(stmts) - 1:
                    raise SpecializationError(
                        "cannot inline %r: return must be its final statement"
                        % fn.name
                    )
    if fn.ret_type is not VOID:
        if not stmts or not isinstance(stmts[-1], A.Return):
            raise SpecializationError(
                "cannot inline %r: missing trailing return" % fn.name
            )


def _local_names(fn):
    """The callee's parameters, then its declarations, in source order
    (so inlined names do not depend on string hashing)."""
    names = list(fn.param_names())
    for node in A.walk(fn.body):
        if isinstance(node, A.VarDecl):
            names.append(node.name)
    return list(dict.fromkeys(names))


class Inliner(object):
    """Inlines every user-function call reachable from a root function."""

    def __init__(self, program):
        self.program = program
        self._counter = itertools.count()

    def fresh(self, base):
        return "__in%d_%s" % (next(self._counter), base)

    # -- entry -----------------------------------------------------------------

    def inline_function(self, fn_name):
        """Return a fresh FunctionDef for ``fn_name`` with no user calls."""
        root = self.program.function(fn_name)
        fn = A.clone(root)
        fn.body = A.Block(self._process_block(fn.body, stack=(fn_name,)))
        A.number_nodes(fn)
        return fn

    # -- statements ------------------------------------------------------------

    def _process_block(self, block, stack):
        out = []
        for stmt in block.stmts:
            out.extend(self._process_stmt(stmt, stack))
        return out

    def _process_stmt(self, stmt, stack):
        kind = type(stmt)
        if kind is A.Block:
            return [A.Block(self._process_block(stmt, stack), line=stmt.line)]
        if kind is A.If:
            pred, prelude = self._transform_expr(stmt.pred, stack)
            stmt.pred = pred
            stmt.then = A.Block(self._process_block(stmt.then, stack))
            if stmt.else_ is not None:
                stmt.else_ = A.Block(self._process_block(stmt.else_, stack))
            return prelude + [stmt]
        if kind is A.While:
            if self._expr_has_user_call(stmt.pred):
                return self._process_stmt(self._rewrite_while(stmt), stack)
            stmt.body = A.Block(self._process_block(stmt.body, stack))
            return [stmt]
        if kind is A.ExprStmt:
            expr = stmt.expr
            if isinstance(expr, A.Call) and not is_builtin(expr.name):
                # Void user call: the expansion *is* the statement.
                new_args = []
                prelude = []
                for arg in expr.args:
                    arg2, lifted = self._transform_expr(arg, stack)
                    prelude.extend(lifted)
                    new_args.append(arg2)
                body, _result = self._expand(expr.name, new_args, stack, stmt.line)
                return prelude + body
            new_expr, prelude = self._transform_expr(expr, stack)
            stmt.expr = new_expr
            return prelude + [stmt]
        if kind in (A.Assign, A.VarDecl, A.Return):
            target = "expr" if kind is not A.VarDecl else "init"
            expr = getattr(stmt, target)
            if expr is None:
                return [stmt]
            new_expr, prelude = self._transform_expr(expr, stack)
            setattr(stmt, target, new_expr)
            return prelude + [stmt]
        raise SpecializationError("cannot inline through %r" % kind.__name__)

    def _rewrite_while(self, stmt):
        """Hoist a call-bearing predicate into a flag variable."""
        flag = self.fresh("whilecond")
        decl = A.VarDecl(INT, flag, A.clone(stmt.pred), line=stmt.line)
        update = A.Assign(flag, A.clone(stmt.pred), line=stmt.line)
        body = A.Block(list(stmt.body.stmts) + [update], line=stmt.line)
        loop = A.While(A.VarRef(flag, line=stmt.line), body, line=stmt.line)
        return A.Block([decl, loop], line=stmt.line)

    # -- expressions ---------------------------------------------------------------

    @staticmethod
    def _expr_has_user_call(expr):
        return any(
            isinstance(node, A.Call) and not is_builtin(node.name)
            for node in A.walk(expr)
        )

    def _transform_expr(self, expr, stack):
        """Rebuild ``expr`` bottom-up, replacing user calls with references
        to freshly inlined result variables.  Returns (expr, prelude)."""
        prelude = []

        def visit(node):
            for name in node._fields:
                value = getattr(node, name)
                if isinstance(value, A.Expr):
                    setattr(node, name, visit(value))
                elif isinstance(value, list):
                    setattr(
                        node,
                        name,
                        [visit(v) if isinstance(v, A.Expr) else v for v in value],
                    )
            if isinstance(node, A.Call) and not is_builtin(node.name):
                body, result = self._expand(node.name, node.args, stack, node.line)
                prelude.extend(body)
                if result is None:
                    raise SpecializationError(
                        "void call %r used as a value" % node.name
                    )
                return result
            return node

        return visit(expr), prelude

    # -- expansion ------------------------------------------------------------------

    def _expand(self, callee_name, args, stack, line):
        """Splice one call.  Returns (statements, result VarRef or None)."""
        if callee_name in stack:
            raise SpecializationError(
                "recursive call chain involving %r cannot be inlined"
                % callee_name
            )
        try:
            callee = self.program.function(callee_name)
        except KeyError:
            raise SpecializationError("call to unknown function %r" % callee_name)
        _check_callee_shape(callee)
        if len(args) != len(callee.params):
            raise SpecializationError(
                "call to %r with %d args, expected %d"
                % (callee_name, len(args), len(callee.params))
            )

        mapping = {name: self.fresh(name) for name in _local_names(callee)}
        stmts = []
        for param, arg in zip(callee.params, args):
            stmts.append(A.VarDecl(param.ty, mapping[param.name], arg, line=line))

        body = [_rename_vars(A.clone(s), mapping) for s in callee.body.stmts]
        result_ref = None
        if body and isinstance(body[-1], A.Return):
            ret = body.pop()
            if ret.expr is not None:
                result_name = self.fresh(callee_name + "_result")
                stmts_tail = [A.VarDecl(callee.ret_type, result_name, ret.expr, line=line)]
                result_ref = A.VarRef(result_name, line=line)
            else:
                stmts_tail = []
        else:
            stmts_tail = []
        stmts.extend(body)
        stmts.extend(stmts_tail)

        # Recursively inline calls inside the spliced body.
        out = []
        inner_stack = stack + (callee_name,)
        for stmt in stmts:
            out.extend(self._process_stmt(stmt, inner_stack))
        return out, result_ref


def inline_program_function(program, fn_name):
    """Convenience wrapper: inline all user calls in one function."""
    return Inliner(program).inline_function(fn_name)
