"""The splitting transformation (Section 3.3).

Given a fragment whose terms carry caching labels, emit:

* the **cache loader** — a structural copy of the whole fragment in which
  every cached term ``e`` is wrapped as ``(cache->slotN = e)``.  The
  loader therefore computes the fragment's result *and* fills the cache
  (the paper's "instrumented version of the original fragment").
* the **cache reader** — a copy containing only the dynamic terms, with
  every cached term replaced by ``cache->slotN``.  Static statements
  vanish; declarations are re-emitted for any variable the reader still
  mentions.

Speculative slots (the weakened rule 3 of Section 7.1) additionally get an
unconditional fill at loader entry, since their in-place occurrence sits
under a dependent guard the loader's run might not take.
"""

from __future__ import annotations

from ..core.cache import CacheLayout, CacheSlot
from ..core.labels import CACHED, DYNAMIC, STATIC
from ..lang import ast_nodes as A
from ..lang.errors import SpecializationError
from ..lang.pretty import format_expr


class SplitResult(object):
    """Loader + reader + cache layout for one specialization."""

    def __init__(self, loader, reader, layout, slot_of_nid):
        self.loader = loader
        self.reader = reader
        self.layout = layout
        #: original-fragment nid → slot index
        self.slot_of_nid = slot_of_nid


class _Splitter(object):
    def __init__(self, fn, caching, type_info):
        self.fn = fn
        self.caching = caching
        self.type_info = type_info
        self.slot_of = {}
        self.slots = []

    # -- slot allocation --------------------------------------------------------

    def allocate_slots(self):
        for node in A.walk(self.fn.body):
            if self.caching.label_of(node) is CACHED:
                if node.ty is None:
                    raise SpecializationError(
                        "cached term has no type (was the fragment checked?)"
                    )
                index = len(self.slots)
                self.slot_of[node.nid] = index
                self.slots.append(
                    CacheSlot(
                        index,
                        node.ty,
                        node.nid,
                        format_expr(node),
                        speculative=node.nid in self.caching.speculative,
                    )
                )

    # -- loader -----------------------------------------------------------------

    def loader_expr(self, expr):
        rebuilt = self._rebuild_expr(expr, self.loader_expr)
        if self.caching.label_of(expr) is CACHED:
            return A.CacheStore(self.slot_of[expr.nid], rebuilt, line=expr.line)
        return rebuilt

    def loader_stmts(self, stmt):
        kind = type(stmt)
        if kind is A.Block:
            return [A.Block(self._map_block(stmt, self.loader_stmts), line=stmt.line)]
        if kind is A.VarDecl:
            init = self.loader_expr(stmt.init) if stmt.init is not None else None
            return [A.VarDecl(stmt.ty, stmt.name, init, line=stmt.line)]
        if kind is A.Assign:
            return [
                A.Assign(
                    stmt.name,
                    self.loader_expr(stmt.expr),
                    is_phi=stmt.is_phi,
                    line=stmt.line,
                )
            ]
        if kind is A.If:
            else_ = None
            if stmt.else_ is not None:
                else_ = A.Block(self._map_block(stmt.else_, self.loader_stmts))
            return [
                A.If(
                    self.loader_expr(stmt.pred),
                    A.Block(self._map_block(stmt.then, self.loader_stmts)),
                    else_,
                    line=stmt.line,
                )
            ]
        if kind is A.While:
            return [
                A.While(
                    self.loader_expr(stmt.pred),
                    A.Block(self._map_block(stmt.body, self.loader_stmts)),
                    line=stmt.line,
                )
            ]
        if kind is A.Return:
            expr = self.loader_expr(stmt.expr) if stmt.expr is not None else None
            return [A.Return(expr, line=stmt.line)]
        if kind is A.ExprStmt:
            return [A.ExprStmt(self.loader_expr(stmt.expr), line=stmt.line)]
        raise SpecializationError("cannot split statement %r" % kind.__name__)

    def build_loader(self):
        body = self._map_block(self.fn.body, self.loader_stmts)
        # Speculative slots fill unconditionally at entry (their free
        # variables are all parameters, so entry evaluation is valid).
        entry = []
        for slot in self.slots:
            if not slot.speculative:
                continue
            origin = self.caching.index.node_of[slot.origin_nid]
            store = A.CacheStore(slot.index, A.clone(origin), line=origin.line)
            entry.append(
                A.VarDecl(origin.ty, "__spec%d" % slot.index, store, line=origin.line)
            )
        loader = A.FunctionDef(
            self.fn.name + "_loader",
            [A.Param(p.ty, p.name, line=p.line) for p in self.fn.params],
            self.fn.ret_type,
            A.Block(entry + body, line=self.fn.body.line),
            line=self.fn.line,
        )
        return loader

    # -- reader ------------------------------------------------------------------

    def reader_expr(self, expr):
        label = self.caching.label_of(expr)
        if label is CACHED:
            return A.CacheRead(self.slot_of[expr.nid], ty=expr.ty, line=expr.line)
        if label is not DYNAMIC:
            raise SpecializationError(
                "static term %r reached the reader (labeling inconsistent)"
                % format_expr(expr)
            )
        return self._rebuild_expr(expr, self.reader_expr)

    def reader_stmts(self, stmt):
        label = self.caching.label_of(stmt)
        kind = type(stmt)
        if kind is A.Block:
            inner = self._map_block(stmt, self.reader_stmts)
            return [A.Block(inner, line=stmt.line)] if inner else []
        if label is not DYNAMIC:
            return []
        if kind is A.VarDecl:
            init = self.reader_expr(stmt.init) if stmt.init is not None else None
            return [A.VarDecl(stmt.ty, stmt.name, init, line=stmt.line)]
        if kind is A.Assign:
            return [
                A.Assign(
                    stmt.name,
                    self.reader_expr(stmt.expr),
                    is_phi=stmt.is_phi,
                    line=stmt.line,
                )
            ]
        if kind is A.If:
            else_ = None
            if stmt.else_ is not None:
                else_stmts = self._map_block(stmt.else_, self.reader_stmts)
                else_ = A.Block(else_stmts) if else_stmts else None
            return [
                A.If(
                    self.reader_expr(stmt.pred),
                    A.Block(self._map_block(stmt.then, self.reader_stmts)),
                    else_,
                    line=stmt.line,
                )
            ]
        if kind is A.While:
            return [
                A.While(
                    self.reader_expr(stmt.pred),
                    A.Block(self._map_block(stmt.body, self.reader_stmts)),
                    line=stmt.line,
                )
            ]
        if kind is A.Return:
            expr = self.reader_expr(stmt.expr) if stmt.expr is not None else None
            return [A.Return(expr, line=stmt.line)]
        if kind is A.ExprStmt:
            return [A.ExprStmt(self.reader_expr(stmt.expr), line=stmt.line)]
        raise SpecializationError("cannot split statement %r" % kind.__name__)

    def build_reader(self):
        body = self._map_block(self.fn.body, self.reader_stmts)
        body = self._prepend_missing_decls(body)
        reader = A.FunctionDef(
            self.fn.name + "_reader",
            [A.Param(p.ty, p.name, line=p.line) for p in self.fn.params],
            self.fn.ret_type,
            A.Block(body, line=self.fn.body.line),
            line=self.fn.line,
        )
        return reader

    def _prepend_missing_decls(self, body):
        """The reader may assign/reference a variable whose (static)
        declaration was dropped; re-emit bare declarations for those."""
        wrapper = A.Block(body)
        mentioned = set()
        declared = set()
        for node in A.walk(wrapper):
            if isinstance(node, A.VarRef):
                mentioned.add(node.name)
            elif isinstance(node, A.Assign):
                mentioned.add(node.name)
            elif isinstance(node, A.VarDecl):
                declared.add(node.name)
        params = set(self.fn.param_names())
        missing = sorted(mentioned - declared - params)
        decls = [
            A.VarDecl(self.type_info.var_types[name], name, None) for name in missing
        ]
        return decls + body

    # -- shared helpers --------------------------------------------------------------

    @staticmethod
    def _map_block(block, fn):
        out = []
        for stmt in block.stmts:
            out.extend(fn(stmt))
        return out

    @staticmethod
    def _rebuild_expr(expr, recurse):
        kind = type(expr)
        if kind is A.IntLit:
            node = A.IntLit(expr.value, line=expr.line)
        elif kind is A.FloatLit:
            node = A.FloatLit(expr.value, line=expr.line)
        elif kind is A.VarRef:
            node = A.VarRef(expr.name, line=expr.line)
        elif kind is A.BinOp:
            node = A.BinOp(expr.op, recurse(expr.left), recurse(expr.right), line=expr.line)
        elif kind is A.UnaryOp:
            node = A.UnaryOp(expr.op, recurse(expr.operand), line=expr.line)
        elif kind is A.Call:
            node = A.Call(expr.name, [recurse(a) for a in expr.args], line=expr.line)
        elif kind is A.Member:
            node = A.Member(recurse(expr.base), expr.field, line=expr.line)
        elif kind is A.Cond:
            node = A.Cond(
                recurse(expr.pred),
                recurse(expr.then),
                recurse(expr.else_),
                line=expr.line,
            )
        else:
            raise SpecializationError("cannot rebuild %r" % kind.__name__)
        node.ty = expr.ty
        return node


def split(fn, caching, type_info):
    """Split a labeled fragment into loader, reader, and cache layout."""
    splitter = _Splitter(fn, caching, type_info)
    splitter.allocate_slots()
    loader = splitter.build_loader()
    reader = splitter.build_reader()
    A.number_nodes(loader)
    A.number_nodes(reader)
    layout = CacheLayout(splitter.slots)
    return SplitResult(loader, reader, layout, dict(splitter.slot_of))


# -- incremental delta loaders (parameter-sliced refills) -----------------------
#
# An edit to one invariant parameter invalidates only the cache slots
# whose stored value (or a guarding predicate on the store) depends on
# that parameter.  ``loader_param_slots`` derives that dependence map
# from the loader itself, and ``build_delta_loader`` emits a backward
# slice of the loader that recomputes exactly one dirty-slot set — the
# paper's staging idea applied one level up: the loader is specialized
# with respect to *which input changed*.


def loader_param_slots(loader, layout, params=None):
    """Per-parameter dirty-slot map: ``{param: frozenset(slot indices)}``.

    A slot is dirty for a parameter when the stored value depends on it,
    or when any enclosing guard/loop predicate does (a predicate flip can
    change *whether* the store runs, so the slot must be recomputed under
    the preserved control context).  Loop trip counts are covered by the
    dependence analysis' ``While`` rule, which taints every body-assigned
    name when the loop predicate is dependent.
    """
    from ..analysis.dependence import parameter_dependence
    from ..analysis.index import StructuralIndex, guard_predicate

    if params is None:
        params = loader.param_names()
    dep, bits = parameter_dependence(loader, params)
    dependent = dep.dependent
    index = StructuralIndex(loader)
    # Each store's mask: the parameters its value or any enclosing
    # predicate depends on, all parameters in one analysis.
    store_masks = []
    for node in A.walk(loader.body):
        if isinstance(node, A.CacheStore):
            mask = dependent.get(node.nid, 0)
            for guard in index.guards_of(node):
                mask |= dependent.get(guard_predicate(guard).nid, 0)
            store_masks.append((node.slot, mask))
    return {
        name: frozenset(slot for slot, mask in store_masks if mask & bits[name])
        for name in params
    }


def _has_dirty_store(node, dirty):
    for sub in A.walk(node):
        if isinstance(sub, A.CacheStore) and sub.slot in dirty:
            return True
    return False


def _strip_expr(expr, dirty):
    """Rebuild ``expr`` keeping :class:`CacheStore` wrappers only for
    dirty slots — clean stores reduce to their value expression so the
    delta loader never clobbers a still-valid slot."""
    kind = type(expr)
    if kind is A.CacheStore:
        inner = _strip_expr(expr.value, dirty)
        if expr.slot in dirty:
            node = A.CacheStore(expr.slot, inner, line=expr.line)
            node.ty = expr.ty
            return node
        return inner
    if kind is A.CacheRead:  # loaders carry no reads; defensive passthrough
        return A.CacheRead(expr.slot, ty=expr.ty, line=expr.line)
    return _Splitter._rebuild_expr(expr, lambda e: _strip_expr(e, dirty))


def _extract_stores(expr, dirty):
    """The minimal list of subexpressions whose evaluation fires every
    dirty :class:`CacheStore` inside ``expr`` exactly as the full loader
    would.

    Unconditionally-evaluated stores hoist on their own (stripped of any
    clean-store wrappers); a store under a conditional position — a
    :class:`Cond` arm or the right operand of a short-circuit ``&&``/
    ``||`` — hoists the whole conditional subtree, predicate included,
    so the store still fires only when the loader's control state says
    it should.
    """
    if not _has_dirty_store(expr, dirty):
        return []
    kind = type(expr)
    if kind is A.CacheStore:
        if expr.slot in dirty:
            return [_strip_expr(expr, dirty)]
        return _extract_stores(expr.value, dirty)
    if kind is A.Cond:
        if _has_dirty_store(expr.then, dirty) or _has_dirty_store(
            expr.else_, dirty
        ):
            return [_strip_expr(expr, dirty)]
        return _extract_stores(expr.pred, dirty)
    if kind is A.BinOp and expr.op in ("&&", "||"):
        if _has_dirty_store(expr.right, dirty):
            return [_strip_expr(expr, dirty)]
        return _extract_stores(expr.left, dirty)
    out = []
    for child in expr.children():
        out.extend(_extract_stores(child, dirty))
    return out


def _slice_stmts(stmts, dirty, needed, tmp):
    """Backward slice of a statement list.

    ``needed`` is the set of variable names live *after* the list; the
    return value is ``(kept statements, names live before the list)``.
    A statement survives when it contains a dirty :class:`CacheStore` or
    defines a needed name; control statements survive when any sliced
    child does (or their predicate itself stores a dirty slot), with the
    original predicate preserved — guard context is never weakened.
    ``tmp`` is the shared counter naming hoisted-store temporaries.
    """
    out = []
    needed = set(needed)

    def hoist(expr, line):
        """Bind each extracted store to a fresh temporary (expression
        statements must be calls, so a VarDecl carries the evaluation);
        appends in reverse so the final list reversal restores order."""
        extracts = _extract_stores(expr, dirty)
        for node in reversed(extracts):
            tmp[0] += 1
            needed.update(A.free_var_names(node))
            out.append(
                A.VarDecl(node.ty, "__delta%d" % tmp[0], node, line=line)
            )
        return bool(extracts)

    for stmt in reversed(stmts):
        kind = type(stmt)
        if kind is A.Return:
            # The delta loader only fills slots — drop the return, but
            # keep any dirty stores its expression carries.
            if stmt.expr is not None:
                hoist(stmt.expr, stmt.line)
            continue
        if kind is A.Block:
            inner, needed = _slice_stmts(stmt.stmts, dirty, needed, tmp)
            if inner:
                out.append(A.Block(inner, line=stmt.line))
            continue
        if kind is A.VarDecl:
            if stmt.name in needed:
                needed.discard(stmt.name)
                init = None
                if stmt.init is not None:
                    needed |= A.free_var_names(stmt.init)
                    init = _strip_expr(stmt.init, dirty)
                out.append(A.VarDecl(stmt.ty, stmt.name, init, line=stmt.line))
            elif stmt.init is not None:
                hoist(stmt.init, stmt.line)
            continue
        if kind is A.Assign:
            if stmt.name in needed:
                needed.discard(stmt.name)
                needed |= A.free_var_names(stmt.expr)
                out.append(
                    A.Assign(
                        stmt.name,
                        _strip_expr(stmt.expr, dirty),
                        is_phi=stmt.is_phi,
                        line=stmt.line,
                    )
                )
            else:
                hoist(stmt.expr, stmt.line)
            continue
        if kind is A.ExprStmt:
            hoist(stmt.expr, stmt.line)
            continue
        if kind is A.If:
            then_kept, then_needed = _slice_stmts(
                stmt.then.stmts, dirty, needed, tmp
            )
            if stmt.else_ is not None:
                else_kept, else_needed = _slice_stmts(
                    stmt.else_.stmts, dirty, needed, tmp
                )
            else:
                else_kept, else_needed = [], set(needed)
            if not then_kept and not else_kept:
                if not _has_dirty_store(stmt.pred, dirty):
                    continue
                # The predicate itself fills a dirty slot: keep the
                # evaluation (once, as in the original) with empty arms.
                then_needed = set(needed)
                else_needed = set(needed)
            # Union, not kill: a name assigned on only one path must
            # still be live before the If for the other path.
            needed = then_needed | else_needed | A.free_var_names(stmt.pred)
            out.append(
                A.If(
                    _strip_expr(stmt.pred, dirty),
                    A.Block(then_kept, line=stmt.then.line),
                    A.Block(else_kept, line=stmt.else_.line)
                    if else_kept
                    else None,
                    line=stmt.line,
                )
            )
            continue
        if kind is A.While:
            # Fixpoint: loop-carried variables are both consumed and
            # produced by the body, so grow the live set until stable.
            loop_needed = set(needed) | A.free_var_names(stmt.pred)
            while True:
                body_kept, body_needed = _slice_stmts(
                    stmt.body.stmts, dirty, loop_needed, tmp
                )
                merged = loop_needed | body_needed
                if merged == loop_needed:
                    break
                loop_needed = merged
            if not body_kept and not _has_dirty_store(stmt.pred, dirty):
                continue
            needed = set(loop_needed)
            out.append(
                A.While(
                    _strip_expr(stmt.pred, dirty),
                    A.Block(body_kept, line=stmt.body.line),
                    line=stmt.line,
                )
            )
            continue
        raise SpecializationError(
            "cannot slice statement %r" % kind.__name__
        )
    out.reverse()
    return out, needed


def _restore_decls(kept, loader):
    """Re-emit bare declarations for names the slice still assigns or
    reads but whose (unneeded-init) declaration was dropped."""
    wrapper = A.Block(kept)
    mentioned = set()
    declared = set()
    for node in A.walk(wrapper):
        if isinstance(node, A.VarRef):
            mentioned.add(node.name)
        elif isinstance(node, A.Assign):
            mentioned.add(node.name)
        elif isinstance(node, A.VarDecl):
            declared.add(node.name)
    missing = mentioned - declared - set(loader.param_names())
    if not missing:
        return kept
    types = {}
    for node in A.walk(loader.body):
        if isinstance(node, A.VarDecl):
            types[node.name] = node.ty
    decls = [A.VarDecl(types[name], name, None) for name in sorted(missing)]
    return decls + kept


def _synthetic_return(loader):
    """A trailing ``return`` whose value is a zero derived from a
    parameter, so the vectorized batch compiler (which rejects functions
    without a definite return) accepts the slice.  Preferring a FLOAT
    parameter keeps the result a full-width lane array.
    """
    from ..lang.types import FLOAT, INT, VEC3

    for want, zero, ret in (
        (FLOAT, A.FloatLit(0.0), FLOAT),
        (INT, A.IntLit(0), INT),
        (VEC3, A.FloatLit(0.0), VEC3),
    ):
        for param in loader.params:
            if param.ty is want:
                return (
                    A.Return(A.BinOp("*", A.VarRef(param.name), zero)),
                    ret,
                )
    return A.Return(A.IntLit(0)), INT


def build_delta_loader(loader, dirty):
    """A sliced copy of ``loader`` recomputing exactly the ``dirty``
    slots (same parameters, preserved guard/loop context), or ``None``
    when the dirty set is empty.  The caller is expected to typecheck
    the result (``check_program``) before compiling it.
    """
    dirty = frozenset(dirty)
    if not dirty:
        return None
    kept, _ = _slice_stmts(loader.body.stmts, dirty, set(), [0])
    kept = _restore_decls(kept, loader)
    ret, ret_type = _synthetic_return(loader)
    kept.append(ret)
    name = "%s_delta_%s" % (
        loader.name,
        "_".join(str(slot) for slot in sorted(dirty)),
    )
    fn = A.FunctionDef(
        name,
        [A.Param(p.ty, p.name, line=p.line) for p in loader.params],
        ret_type,
        A.Block(kept, line=loader.body.line),
        line=loader.line,
    )
    A.number_nodes(fn)
    return fn
