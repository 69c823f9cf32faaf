"""Each shader's checked program, installed once per process.

Paper Section 5 builds a shader's loaders and readers "statically at the
time a shader is installed".  The first half of that work is the
front end: :data:`PROGRAMS` parses and type-checks the shader library
once, links each shader's own source against it once, and hands every
later :class:`~repro.shaders.render.RenderSession` of that shader the
same checked :class:`~repro.lang.ast_nodes.Program`.  The partition work
(specialize, codegen, load) stays per session.

The cache holds at most the library plus the ten :data:`SHADERS`, so it
needs no eviction.  Sessions are built from the daemon's handler
threads, so each program is linked and published under a lock.
"""

from __future__ import annotations

import threading

from ..lang.link import Library
from .library import LIBRARY_SOURCE


class ProgramCache(object):
    """Shader programs linked against one library, keyed by source."""

    def __init__(self, library_source):
        self._library_source = library_source
        self._library = None
        self._programs = {}
        self._lock = threading.Lock()

    def program(self, spec):
        """``(program, cached)``: the checked program of ``spec`` (a
        :class:`~repro.shaders.sources.ShaderSpec`), equal to
        ``parse_program(shader_program_source(spec))`` once checked, and
        whether an earlier call had installed it already.  Its nodes
        are shared and must never be written."""
        program = self._programs.get(spec.source)
        if program is not None:
            return program, True
        with self._lock:
            program = self._programs.get(spec.source)
            if program is not None:
                return program, True
            if self._library is None:
                self._library = Library(self._library_source)
            program = self._library.link(spec.source)
            self._programs[spec.source] = program
        return program, False


#: The process-wide install cache every session takes its program from.
PROGRAMS = ProgramCache(LIBRARY_SOURCE)
