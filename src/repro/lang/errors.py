"""Diagnostics for the kernel language front end.

Every error carries a source position (line, column) when one is known, so
messages from the lexer, parser, and type checker can point at the offending
construct in the original source text.
"""

from __future__ import annotations


class SourceError(Exception):
    """Base class for all front-end diagnostics."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self._format())

    def _format(self):
        if self.line is None:
            return self.message
        if self.col is None:
            return "line %d: %s" % (self.line, self.message)
        return "line %d, col %d: %s" % (self.line, self.col, self.message)


class LexError(SourceError):
    """Raised when the lexer encounters an unrecognized character or a
    malformed literal."""


class ParseError(SourceError):
    """Raised when the token stream does not form a valid program."""


class TypeError_(SourceError):
    """Raised by the type checker.

    Named with a trailing underscore to avoid shadowing the builtin
    ``TypeError``; exported as ``KernelTypeError`` from the package.
    """


class SpecializationError(Exception):
    """Raised when a program cannot be specialized as requested.

    Examples: partitioning an unknown parameter, specializing a function
    that does not exist, or asking the cache limiter for an unsatisfiable
    bound (smaller than an empty cache).
    """


class ArtifactError(SpecializationError):
    """Raised when a persisted specialization fails integrity checks.

    The paper's contract (Section 2) is that a reader may only run
    against a cache produced by the matching loader under the same
    invariant inputs; a stale, corrupted, or truncated on-disk artifact
    breaks that contract before any cache is ever built.  Subclasses
    :class:`SpecializationError` so existing handlers keep working.
    """


class SupervisionError(SpecializationError):
    """Raised when a supervised render request exhausts every rung of
    the degradation ladder (specialized kernels, the unspecialized
    original, and the last-known-good frame) without producing a frame.
    Subclasses :class:`SpecializationError` so existing handlers keep
    working.
    """


class EvalError(Exception):
    """Raised by the interpreter for runtime faults (division by zero,
    use of an uninitialized variable, arity mismatches)."""


class CacheFault(EvalError):
    """An invalid cache access: an unfilled or ill-typed slot read.

    Carries the slot index so guarded execution can attribute the fault
    in its :class:`~repro.runtime.guard.FaultLog`.
    """

    def __init__(self, message, slot=None):
        super().__init__(message)
        self.slot = slot


class DeadlineError(EvalError):
    """A per-request deadline (step or wall budget) was exceeded.

    Raised by supervised rung execution so the supervisor can attribute
    the abort to the deadline rather than a data fault; subclasses
    :class:`EvalError` so unsupervised callers see an ordinary
    evaluation fault.
    """


class SceneError(ValueError):
    """A scene cannot be built as requested — e.g. a frame narrower or
    shorter than one pixel."""


# Public, collision-free alias.
KernelTypeError = TypeError_
