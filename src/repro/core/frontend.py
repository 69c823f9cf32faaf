"""The specializer's partition-free front end, run once per shader.

Stages 1–3 of the pipeline (inline library calls, join-point
normalization, type check) read only the program and the function name,
never the input partition, so every partition of one shader gets the
same result.  Paper Section 5 does such work "statically at the time a
shader is installed": for a published program (one installed by
:data:`repro.shaders.install.PROGRAMS`, whose nodes are never written)
:func:`shared_front_end` runs the front end once per process and keeps
it in the program's published entry, keyed by function and ``ssa``;
every specialization takes a private copy of the result.

The copy matters because the later stages own their function: the
associative rewriter edits it in place.  :meth:`FrontEnd.instance` clones
the shared function and numbers the clone exactly as a fresh run numbers
its own, so node ids, cache slots and emitted code do not depend on
whether the front end was shared.  The shared function itself is never
written.
"""

from __future__ import annotations

from ..lang import ast_nodes as A
from ..lang.typecheck import TypeInfo, check_program, published
from ..transform.inline import Inliner
from ..transform.ssa import ssa_normalize


class FrontEnd(object):
    """One function inlined, normalized (optionally) and type checked."""

    __slots__ = ("fn", "type_info")

    def __init__(self, fn, type_info):
        self.fn = fn
        self.type_info = type_info

    def clone(self):
        """A private copy of the function, numbered as a fresh run
        numbers its own."""
        fn = A.clone(self.fn)
        A.number_nodes(fn)
        return fn

    def type_info_for(self, fn):
        """The check results of ``fn``, a :meth:`clone`."""
        info = TypeInfo(fn)
        info.var_types = dict(self.type_info.var_types)
        info.is_param = dict(self.type_info.is_param)
        return info

    def instance(self):
        """``(fn, type_info)`` of a private copy."""
        fn = self.clone()
        return fn, self.type_info_for(fn)


def build_front_end(program, fn_name, ssa, obs):
    """Run stages 1–3 on ``fn_name``, each under its own span."""
    with obs.span("specialize.inline"):
        fn = Inliner(program).inline_function(fn_name)
    if ssa:
        with obs.span("specialize.ssa"):
            fn = ssa_normalize(fn)
    with obs.span("specialize.typecheck"):
        type_info = check_program(A.Program([fn]))[fn.name]
    return FrontEnd(fn, type_info)


def shared_front_end(program, fn_name, ssa, obs):
    """``(front_end, cached)``: the shared :class:`FrontEnd` of a
    published ``program``, kept in its
    :class:`~repro.lang.typecheck.Published` entry, and whether an
    earlier call built it; ``(None, False)`` when ``program`` was not
    published."""
    entry = published(program)
    if entry is None:
        return None, False
    key = ("front_end", fn_name, bool(ssa))
    front = entry.derived.get(key)
    if front is not None:
        return front, True
    with entry.lock:
        front = entry.derived.get(key)
        if front is not None:
            return front, True
        front = build_front_end(program, fn_name, ssa, obs)
        entry.derived[key] = front
    return front, False


def front_end_instance(program, fn_name, ssa, obs):
    """``(fn, type_info)`` for one specialization: from the shared front
    end when ``program`` is published, else from a fresh run."""
    front, cached = shared_front_end(program, fn_name, ssa, obs)
    if front is None:
        front = build_front_end(program, fn_name, ssa, obs)
        return front.fn, front.type_info
    if not cached:
        return front.instance()
    # The stages ran when the front end was built: each span times what
    # this run still does for its stage.  The SSA span is kept though it
    # times nothing: renderbench's ``specialize.ssa_ms`` is a median
    # over one span per specialization.
    with obs.span("specialize.inline", cached=True):
        fn = front.clone()
    if ssa:
        with obs.span("specialize.ssa"):
            pass
    with obs.span("specialize.typecheck"):
        type_info = front.type_info_for(fn)
    return fn, type_info
