"""Linking a program's own functions against a library checked once.

Paper Section 5 constructs loaders and readers "statically at the time a
shader is installed"; only the data vector is built at run time.  Every
shader program is the shared math library followed by the shader's own
functions, so parsing and type-checking the library is install-time work
that needs doing once per process, not once per session.

:class:`Library` parses, numbers and checks a library source once.
:meth:`Library.link` parses one program's own source and links it with
the library's function nodes into a checked :class:`Program` that equals
``parse_program(library + "\\n" + source)``: the same preorder node ids,
the same lines, the same ``.ty`` annotations and the same errors.  The
library's nodes are shared by every linked program and never written
again, and a linked program is published (see
:func:`repro.lang.typecheck.publish`), so its nodes are not written
either.
"""

from __future__ import annotations

from . import ast_nodes as A
from .parser import parse_definitions, parse_program
from .typecheck import check_linked, check_program, publish


class Library(object):
    """One library source, parsed and type-checked once."""

    def __init__(self, source):
        program = parse_program(source)
        self._infos = check_program(program)
        self._functions = tuple(program.functions)
        #: First node id after the library's (the Program node is 0).
        self._next_nid = A.count_nodes(program)
        # The library's line breaks plus the joining one: a linked
        # source then starts on the line it has in the joined text, so
        # its tokens, nodes and errors carry that line.
        self._padding = "\n" * (source.count("\n") + 1)

    def link(self, source):
        """The checked, published program of this library followed by
        ``source``'s function definitions."""
        functions = parse_definitions(self._padding + source)
        nid = self._next_nid
        for fn in functions:
            nid = A.number_nodes(fn, nid)
        program = A.Program(self._functions + tuple(functions))
        program.nid = 0
        publish(program, check_linked(program, self._infos))
        return program
