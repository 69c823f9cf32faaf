"""Dependence analysis (Section 3.1).

Determines, for every term, whether its value (or effect) may depend on
the *varying* part of the input partition.  A term is dependent if

1. it is (a reference to) a varying input,
2. it has a dependent operand,
3. it is reached by a dependent definition, or
4. it is conditionally assigned under a dependent predicate (the
   join-point rule: when the predicate guarding a choice of definitions is
   dependent, the chosen variable's value is too).

The implementation is the paper's "straightforward, worst-case
quadratic-time solution based on abstract interpretation": a flow-
sensitive walk carrying ``variable → dependent?``; conditionals merge by
disjunction plus the rule-4 join treatment; loop bodies iterate to a
fixpoint (dependence only ever grows, so this terminates).

Impure builtin calls are treated as dependent values: a volatile read may
change between the loader and reader executions, so its result can never
be cached (this composes with rule 2 of Figure 3, which already forces the
call itself into the reader).
"""

from __future__ import annotations

from ..lang import ast_nodes as A
from ..runtime.builtins import REGISTRY


class DependenceAnalysis(object):
    """Result: ``dependent[nid]`` for every term in the function."""

    def __init__(self, fn, varying):
        self.fn = fn
        self.varying = frozenset(varying)
        #: nid -> dependence mask (nonzero when dependent).
        self.dependent = {}

    def is_dependent(self, node):
        return bool(self.dependent.get(node.nid, 0))


class _Analyzer(object):
    """The flow-sensitive walk over dependence *masks*: each bit stands
    for one source of variation, a term's mask is the union of the
    sources it depends on, and 0 means independent.  One bit for the
    whole varying set gives :func:`dependence_analysis`; one bit per
    parameter gives every parameter's dependence in a single walk
    (:func:`parameter_dependence`), because every rule is a bitwise
    union and so treats the bits independently."""

    def __init__(self, result, top=1):
        self.result = result
        #: The mask of an impure call: dependent on every source.
        self.top = top

    def mark(self, node, mask):
        self.result.dependent[node.nid] = mask
        return mask

    # -- expressions ----------------------------------------------------------

    def expr(self, expr, env):
        """Record and return the dependence mask of ``expr`` under
        ``env``."""
        kind = type(expr)
        if kind is A.IntLit or kind is A.FloatLit:
            return self.mark(expr, 0)
        if kind is A.VarRef:
            return self.mark(expr, env.get(expr.name, 0))
        if kind is A.BinOp:
            left = self.expr(expr.left, env)
            right = self.expr(expr.right, env)
            return self.mark(expr, left | right)
        if kind is A.UnaryOp:
            return self.mark(expr, self.expr(expr.operand, env))
        if kind is A.Call:
            mask = 0
            for arg in expr.args:
                mask |= self.expr(arg, env)
            builtin = REGISTRY.get(expr.name)
            if builtin is not None and not builtin.pure:
                mask |= self.top
            return self.mark(expr, mask)
        if kind is A.Member:
            return self.mark(expr, self.expr(expr.base, env))
        if kind is A.Cond:
            pred = self.expr(expr.pred, env)
            then = self.expr(expr.then, env)
            else_ = self.expr(expr.else_, env)
            return self.mark(expr, pred | then | else_)
        if kind is A.CacheRead:
            # Cached values are by construction independent.
            return self.mark(expr, 0)
        if kind is A.CacheStore:
            return self.mark(expr, self.expr(expr.value, env))
        raise TypeError("unexpected expression %r" % kind.__name__)

    # -- statements ---------------------------------------------------------------

    def stmt(self, stmt, env):
        kind = type(stmt)
        if kind is A.Block:
            for inner in stmt.stmts:
                env = self.stmt(inner, env)
            return env
        if kind is A.Assign:
            mask = self.expr(stmt.expr, env)
            self.mark(stmt, mask)
            out = dict(env)
            out[stmt.name] = mask
            return out
        if kind is A.VarDecl:
            if stmt.init is None:
                self.mark(stmt, 0)
                return env
            mask = self.expr(stmt.init, env)
            self.mark(stmt, mask)
            out = dict(env)
            out[stmt.name] = mask
            return out
        if kind is A.If:
            pred = self.expr(stmt.pred, env)
            then_env = self.stmt(stmt.then, dict(env))
            else_env = self.stmt(stmt.else_, dict(env)) if stmt.else_ else env
            merged = dict(env)
            for name in set(then_env) | set(else_env):
                merged[name] = then_env.get(name, 0) | else_env.get(name, 0)
            if pred:
                # Rule 4: a dependent predicate taints everything assigned
                # in the region it controls.
                for name in A.assigned_var_names(stmt):
                    merged[name] = merged.get(name, 0) | pred
            self.mark(stmt, pred)
            return merged
        if kind is A.While:
            env_in = dict(env)
            while True:
                pred = self.expr(stmt.pred, env_in)
                body_out = self.stmt(stmt.body, dict(env_in))
                merged = dict(env)
                for name in set(body_out) | set(env_in):
                    merged[name] = (
                        env_in.get(name, 0)
                        | body_out.get(name, 0)
                        | env.get(name, 0)
                    )
                if pred:
                    for name in A.assigned_var_names(stmt.body):
                        merged[name] = merged.get(name, 0) | pred
                if merged == env_in:
                    break
                env_in = merged
            # Final recording pass against the fixpoint environment.
            pred = self.expr(stmt.pred, env_in)
            self.stmt(stmt.body, dict(env_in))
            self.mark(stmt, pred)
            return env_in
        if kind is A.Return:
            mask = 0
            if stmt.expr is not None:
                mask = self.expr(stmt.expr, env)
            self.mark(stmt, mask)
            return env
        if kind is A.ExprStmt:
            self.mark(stmt, self.expr(stmt.expr, env))
            return env
        raise TypeError("unexpected statement %r" % kind.__name__)


def _check_params(fn, names):
    unknown = set(names) - set(fn.param_names())
    if unknown:
        raise ValueError(
            "varying names not among parameters of %r: %s"
            % (fn.name, ", ".join(sorted(unknown)))
        )


def dependence_analysis(fn, varying):
    """Analyze ``fn`` with the given set of varying parameter names."""
    _check_params(fn, varying)
    result = DependenceAnalysis(fn, varying)
    analyzer = _Analyzer(result)
    env = {name: int(name in result.varying) for name in fn.param_names()}
    for param in fn.params:
        result.dependent[param.nid] = int(param.name in result.varying)
    analyzer.stmt(fn.body, env)
    return result


def parameter_dependence(fn, params):
    """Every parameter's dependence in one walk.

    Returns ``(result, bits)``: ``result.dependent[nid]`` is the mask of
    the parameters in ``params`` a term depends on, and ``bits[name]``
    is the mask bit of parameter ``name``.  Bit by bit it equals
    :func:`dependence_analysis` with that one parameter varying.
    """
    params = tuple(params)
    _check_params(fn, params)
    bits = {name: 1 << position for position, name in enumerate(params)}
    result = DependenceAnalysis(fn, params)
    analyzer = _Analyzer(result, top=(1 << len(params)) - 1)
    env = {name: bits.get(name, 0) for name in fn.param_names()}
    for param in fn.params:
        result.dependent[param.nid] = bits.get(param.name, 0)
    analyzer.stmt(fn.body, env)
    return result, bits
