"""Native builtin tier: whole-column C loops for the batch backend.

The paper's shaders spend most of their time in "a small mathematical
library that supports vector and matrix operations as well as noise
functions" (Section 5), and the paper's system ran that library as
native code.  This module is that library for the batch backend: one
fixed C source holding strict-FP loops for the noise family
(``snoise``/``noise``/``fbm``/``turbulence``) and the libm
transcendentals (``sin``/``cos``/``tan``/``atan``/``exp``/``log``/
``pow``), compiled once per host and loaded with :mod:`ctypes`.

Bit-exactness contract: every loop performs the same IEEE-754 double
operations, in the same order, as the scalar builtin in
:mod:`repro.runtime.builtins`, and calls the same libm the Python
``math`` module calls.  ``-fno-fast-math -ffp-contract=off`` forbid
the compiler to reassociate or to fuse multiply-adds.  Where the scalar
builtin raises (a domain error, an overflow, a non-finite noise
coordinate at any octave) the lane holds the canonical quiet NaN
(bits ``0x7ff8000000000000``), the fill the lane-at-a-time fallback
uses; NaN inputs that the scalar builtin passes through keep their
bits.

Build and load: lazily, on the first vectorized call, under a lock and
a bounded timeout.  The shared object is content-addressed (sha256 of
the source, ``gcc -dumpfullversion -dumpmachine`` and the flags) and
cached in ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), or in
a private per-user directory under :func:`tempfile.gettempdir` when
that one is unwritable.  It is written to a temporary file and moved
into place with :func:`os.replace`, so concurrent builders never expose
a partial file; a cached file that fails to load is rebuilt once.  Any
failure — no compiler, a compile error, a timeout, no writable cache
directory, a ``dlopen`` error — records one typed reason and leaves
:func:`library` returning None for the rest of the process; callers
then use the NumPy mirrors and the lane-at-a-time path.  Nothing raises
and nothing retries.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

from ..shaders.noise import _PERM_BASE

try:
    import numpy as _np
except ImportError:  # pragma: no cover - NumPy-less installs
    _np = None

#: Compiler flags: strict IEEE semantics, no contraction into FMAs.
FLAGS = (
    "-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared",
)

#: Upper bound on one compiler run (fingerprint or build), in seconds.
BUILD_TIMEOUT_S = 60.0

#: Typed fallback reasons :func:`status` reports.
REASONS = (
    "no_numpy", "no_compiler", "compile_error", "timeout",
    "cache_unwritable", "load_error", "disabled",
)

_SOURCE_TEMPLATE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

static const int PERM[512] = {
@PERM@,
@PERM@
};

/* The fill for lanes where the scalar builtin raises. */
static double canonical_nan(void)
{
    const uint64_t bits = 0x7ff8000000000000ULL;
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

/* Python's int(f) & 255 for a finite integral double. */
static int wrap256(double f)
{
    if (fabs(f) < 9007199254740992.0)
        return (int)((long long)f & 255);
    double r = fmod(f, 256.0);
    if (r < 0.0)
        r += 256.0;
    return (int)r;
}

static double fade(double t)
{
    return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

static double lerp(double t, double a, double b)
{
    return a + t * (b - a);
}

static double grad(int h, double x, double y, double z)
{
    h &= 15;
    double u = h < 8 ? x : y;
    double v = h < 4 ? y : ((h == 12 || h == 14) ? x : z);
    return ((h & 1) == 0 ? u : -u) + ((h & 2) == 0 ? v : -v);
}

/* snoise3 of repro.shaders.noise for finite coordinates. */
static double snoise3(double x, double y, double z)
{
    double fx = floor(x), fy = floor(y), fz = floor(z);
    int xi = wrap256(fx), yi = wrap256(fy), zi = wrap256(fz);
    /* + 0.0 turns floor(-0.0) into the +0.0 Python's int floor gives */
    x = x - (fx + 0.0);
    y = y - (fy + 0.0);
    z = z - (fz + 0.0);
    double u = fade(x), v = fade(y), w = fade(z);
    int a = PERM[xi] + yi, aa = PERM[a] + zi, ab = PERM[a + 1] + zi;
    int b = PERM[xi + 1] + yi, ba = PERM[b] + zi, bb = PERM[b + 1] + zi;
    return lerp(w,
        lerp(v,
            lerp(u, grad(PERM[aa], x, y, z),
                    grad(PERM[ba], x - 1.0, y, z)),
            lerp(u, grad(PERM[ab], x, y - 1.0, z),
                    grad(PERM[bb], x - 1.0, y - 1.0, z))),
        lerp(v,
            lerp(u, grad(PERM[aa + 1], x, y, z - 1.0),
                    grad(PERM[ba + 1], x - 1.0, y, z - 1.0)),
            lerp(u, grad(PERM[ab + 1], x, y - 1.0, z - 1.0),
                    grad(PERM[bb + 1], x - 1.0, y - 1.0, z - 1.0))));
}

static int finite3(double x, double y, double z)
{
    return isfinite(x) && isfinite(y) && isfinite(z);
}

/* fbm3/turbulence3: a non-finite coordinate at any octave, or a
   non-finite octave count, is where the scalar path raises. */
static double fractal(double x, double y, double z, double octaves,
                      double lacunarity, double gain, int absolute)
{
    if (!isfinite(octaves))
        return canonical_nan();
    double count = trunc(octaves);
    if (count < 1.0)
        count = 1.0;
    double total = 0.0, amplitude = 1.0, norm = 0.0;
    for (double i = 0.0; i < count; i += 1.0) {
        if (!finite3(x, y, z))
            return canonical_nan();
        double s = snoise3(x, y, z);
        total += amplitude * (absolute ? fabs(s) : s);
        norm += amplitude;
        amplitude *= gain;
        x *= lacunarity;
        y *= lacunarity;
        z *= lacunarity;
    }
    return total / norm;
}

void rb_snoise(int64_t n, const double *p, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *q = p + 3 * i;
        out[i] = finite3(q[0], q[1], q[2])
            ? snoise3(q[0], q[1], q[2]) : canonical_nan();
    }
}

void rb_noise(int64_t n, const double *p, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *q = p + 3 * i;
        out[i] = finite3(q[0], q[1], q[2])
            ? 0.5 * snoise3(q[0], q[1], q[2]) + 0.5 : canonical_nan();
    }
}

void rb_fbm(int64_t n, const double *p, const double *octaves,
            double *out, double lacunarity, double gain)
{
    for (int64_t i = 0; i < n; i++) {
        const double *q = p + 3 * i;
        out[i] = fractal(q[0], q[1], q[2], octaves[i], lacunarity, gain, 0);
    }
}

void rb_turbulence(int64_t n, const double *p, const double *octaves,
                   double *out, double lacunarity, double gain)
{
    for (int64_t i = 0; i < n; i++) {
        const double *q = p + 3 * i;
        out[i] = fractal(q[0], q[1], q[2], octaves[i], lacunarity, gain, 1);
    }
}

/* math.sin/cos/tan/exp raise on a NaN result from a non-NaN input and
   on an infinite result from a finite input. */
#define CHECKED_UNARY(name, fn)                                          \
void rb_##name(int64_t n, const double *x, double *out)                  \
{                                                                        \
    for (int64_t i = 0; i < n; i++) {                                    \
        double a = x[i], r = fn(a);                                      \
        if ((isnan(r) && !isnan(a)) || (isinf(r) && isfinite(a)))        \
            r = canonical_nan();                                         \
        out[i] = r;                                                      \
    }                                                                    \
}

CHECKED_UNARY(sin, sin)
CHECKED_UNARY(cos, cos)
CHECKED_UNARY(tan, tan)
CHECKED_UNARY(exp, exp)

/* The log builtin raises for x <= 0; CPython's log returns NaN and
   +inf inputs unchanged. */
void rb_log(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double a = x[i];
        out[i] = a <= 0.0 ? canonical_nan() : (isfinite(a) ? log(a) : a);
    }
}

/* CPython's m_atan2: IEEE specials handled before libm. */
static double py_atan2(double y, double x)
{
    const double pi = 3.14159265358979323846;
    if (isnan(x) || isnan(y))
        return canonical_nan();
    if (isinf(y)) {
        if (isinf(x))
            return copysign(copysign(1.0, x) == 1.0 ? 0.25 * pi : 0.75 * pi,
                            y);
        return copysign(0.5 * pi, y);
    }
    if (isinf(x) || y == 0.0)
        return copysign(copysign(1.0, x) == 1.0 ? 0.0 : pi, y);
    return atan2(y, x);
}

void rb_atan(int64_t n, const double *y, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = py_atan2(y[i], x[i]);
}

/* CPython's math.pow: IEEE specials handled directly; finite inputs
   with a non-finite result raise. */
static double py_pow(double x, double y)
{
    if (!isfinite(x) || !isfinite(y)) {
        if (isnan(x))
            return y == 0.0 ? 1.0 : x;
        if (isnan(y))
            return x == 1.0 ? 1.0 : y;
        if (isinf(x)) {
            int odd_y = isfinite(y) && fmod(fabs(y), 2.0) == 1.0;
            if (y > 0.0)
                return odd_y ? x : fabs(x);
            if (y == 0.0)
                return 1.0;
            return odd_y ? copysign(0.0, x) : 0.0;
        }
        if (fabs(x) == 1.0)
            return 1.0;
        if (y > 0.0 && fabs(x) > 1.0)
            return y;
        if (y < 0.0 && fabs(x) < 1.0)
            return -y;
        return 0.0;
    }
    double r = pow(x, y);
    return isfinite(r) ? r : canonical_nan();
}

void rb_pow(int64_t n, const double *x, const double *y, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = py_pow(x[i], y[i]);
}
"""

#: The C source, its permutation table taken from the scalar noise port.
SOURCE = _SOURCE_TEMPLATE.replace(
    "@PERM@", ", ".join(str(v) for v in _PERM_BASE)
)

#: Loop name -> (widths of its per-lane array arguments, trailing
#: double parameters).  Every loop writes one float64 per lane.
_LOOPS = {
    "sin": ((1,), 0),
    "cos": ((1,), 0),
    "tan": ((1,), 0),
    "exp": ((1,), 0),
    "log": ((1,), 0),
    "atan": ((1, 1), 0),
    "pow": ((1, 1), 0),
    "snoise": ((3,), 0),
    "noise": ((3,), 0),
    "fbm": ((3, 1), 2),
    "turbulence": ((3, 1), 2),
}


class NativeUnavailable(Exception):
    """The library cannot be built or loaded; ``reason`` is one of
    :data:`REASONS`."""

    def __init__(self, reason, detail):
        super().__init__(detail)
        self.reason = reason


class NativeLoops(object):
    """The loaded library's loops, behind argument checks.

    Every array argument must be a C-contiguous float64 array of shape
    ``(n,)`` (``(n, 3)`` for vec3 points); anything else raises
    ValueError before a pointer reaches C.
    """

    def __init__(self, cdll):
        self._fns = {}
        for name, (widths, params) in _LOOPS.items():
            fn = getattr(cdll, "rb_" + name)
            fn.argtypes = (
                [ctypes.c_int64]
                + [ctypes.c_void_p] * (len(widths) + 1)
                + [ctypes.c_double] * params
            )
            fn.restype = None
            self._fns[name] = fn
        #: Calls per loop in this process: the "took the native path"
        #: evidence :func:`status` reports (a diagnostic count; not
        #: locked, so concurrent threads may drop an increment).
        self.calls = dict.fromkeys(_LOOPS, 0)

    def run(self, name, n, *arrays, params=()):
        widths, nparams = _LOOPS[name]
        if len(arrays) != len(widths) or len(params) != nparams:
            raise ValueError(
                "native %s takes %d arrays and %d parameters"
                % (name, len(widths), nparams)
            )
        pointers = []
        for array, width in zip(arrays, widths):
            shape = (n,) if width == 1 else (n, width)
            if not (
                isinstance(array, _np.ndarray)
                and array.dtype == _np.float64
                and array.flags.c_contiguous
                and array.shape == shape
            ):
                raise ValueError(
                    "native %s needs C-contiguous float64 arrays of "
                    "shape %r" % (name, shape)
                )
            pointers.append(array.ctypes.data)
        out = _np.empty(n)
        self._fns[name](n, *pointers, out.ctypes.data, *params)
        self.calls[name] += 1
        return out


def default_cache_dirs():
    """``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), then a
    per-user directory under :func:`tempfile.gettempdir`."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return [
        os.path.join(base, "repro"),
        os.path.join(tempfile.gettempdir(), "repro-%d" % os.getuid()),
    ]


def _private_dir(directory):
    """Create ``directory`` if needed; refuse one another user owns or
    others may write (a planted library would run in-process)."""
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(
            "%s is not a private directory of this user" % directory
        )


def _discard(path):
    try:
        os.unlink(path)
    except OSError:
        pass


class NativeBuiltins(object):
    """One lazy build-and-load attempt of the builtin library.

    :meth:`library` returns :class:`NativeLoops`, or None once any step
    failed; the outcome is final for this object (the process-wide one
    is :func:`library`).
    """

    def __init__(self, compiler="gcc", cache_dirs=None, source=SOURCE,
                 timeout_s=BUILD_TIMEOUT_S):
        self.compiler = compiler
        self.cache_dirs = cache_dirs
        self.source = source
        self.timeout_s = timeout_s
        self.key = None
        self.path = None
        self.reason = None
        self.detail = None
        #: Why a cached artifact was rebuilt (a damaged file), or None.
        self.rebuilt = None
        self._loops = None
        self._done = False
        self._lock = threading.Lock()

    @classmethod
    def disabled(cls, detail="disabled"):
        """A tier that never builds: every batch kernel uses the NumPy
        mirrors and the lane-at-a-time builtins (the reference path
        tests force by installing it as :data:`TIER`)."""
        tier = cls()
        tier.reason = "disabled"
        tier.detail = detail
        tier._done = True
        return tier

    def library(self):
        if self._done:
            return self._loops
        with self._lock:
            if not self._done:
                try:
                    self._loops = self._build_and_load()
                except NativeUnavailable as exc:
                    self.reason = exc.reason
                    self.detail = str(exc)
                self._done = True
        return self._loops

    def status(self):
        """JSON-ready state: ``loaded``, ``fallback`` or ``unbuilt``
        (no vectorized call has asked yet), with the artifact key, the
        fallback reason and the per-loop call counts."""
        if not self._done:
            state = "unbuilt"
        else:
            state = "loaded" if self._loops is not None else "fallback"
        return {
            "state": state,
            "key": self.key,
            "path": self.path,
            "reason": self.reason,
            "detail": self.detail,
            "rebuilt": self.rebuilt,
            "calls": dict(self._loops.calls) if self._loops else {},
        }

    def _after_fork_in_child(self):
        # A lock some other parent thread held at fork time stays held
        # in the child; the child gets a fresh one.
        self._lock = threading.Lock()

    # -- build ---------------------------------------------------------------

    def _run(self, argv):
        try:
            return subprocess.run(
                argv, capture_output=True, text=True,
                timeout=self.timeout_s,
            )
        except subprocess.TimeoutExpired:
            raise NativeUnavailable(
                "timeout", "%s ran over %.0fs" % (argv[0], self.timeout_s)
            )

    def _build_and_load(self):
        if _np is None:
            raise NativeUnavailable("no_numpy", "NumPy is unavailable")
        compiler = shutil.which(self.compiler)
        if compiler is None:
            raise NativeUnavailable(
                "no_compiler", "%s not found on PATH" % self.compiler
            )
        try:
            probe = self._run([compiler, "-dumpfullversion", "-dumpmachine"])
        except OSError as exc:
            raise NativeUnavailable("no_compiler", str(exc))
        if probe.returncode != 0:
            raise NativeUnavailable(
                "no_compiler", "%s cannot report its version" % compiler
            )
        digest = hashlib.sha256()
        for part in (self.source, probe.stdout, " ".join(FLAGS)):
            digest.update(part.encode("utf-8") + b"\0")
        self.key = digest.hexdigest()
        name = "builtins-%s.so" % self.key
        problems = []
        for directory in self.cache_dirs or default_cache_dirs():
            path = os.path.join(directory, name)
            try:
                _private_dir(directory)
                if os.path.isfile(path):
                    try:
                        return self._load(path)
                    except NativeUnavailable as exc:
                        self.rebuilt = "%s: %s" % (exc.reason, exc)
                self._compile(compiler, directory, path)
            except OSError as exc:
                problems.append("%s (%s)" % (directory, exc))
                continue
            return self._load(path)
        raise NativeUnavailable(
            "cache_unwritable",
            "no writable cache directory: %s" % "; ".join(problems),
        )

    def _compile(self, compiler, directory, path):
        fd, source_path = tempfile.mkstemp(
            prefix=".build-", suffix=".c", dir=directory
        )
        object_path = source_path[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.source)
            proc = self._run(
                [compiler] + list(FLAGS)
                + ["-o", object_path, source_path, "-lm"]
            )
            if proc.returncode != 0:
                raise NativeUnavailable(
                    "compile_error",
                    (proc.stderr or proc.stdout).strip()[-400:],
                )
            os.replace(object_path, path)
        finally:
            _discard(source_path)
            _discard(object_path)

    def _load(self, path):
        try:
            loops = NativeLoops(ctypes.CDLL(path))
        except (OSError, AttributeError) as exc:
            raise NativeUnavailable("load_error", str(exc))
        self.path = path
        return loops


#: The process-wide tier every batch kernel asks.  Replace it with
#: ``NativeBuiltins.disabled()`` to force the fallback path.
TIER = NativeBuiltins()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: TIER._after_fork_in_child())


def library():
    """The process-wide :class:`NativeLoops`, building or loading the
    library on first use; None when it is unavailable."""
    return TIER.library()


def status():
    """The process-wide :meth:`NativeBuiltins.status`."""
    return TIER.status()


def report():
    """:func:`status` after resolving the tier, so the answer says what
    this host's batch kernels use (a build or load happens at most once
    per process)."""
    library()
    return status()


def summary(section):
    """One human-readable line for a :func:`status` section."""
    if section["state"] == "loaded":
        return "native builtins: loaded (key %s)" % section["key"][:12]
    if section["state"] == "unbuilt":
        return "native builtins: not built yet (no vectorized call)"
    return "native builtins: fallback (%s: %s)" % (
        section["reason"], section["detail"]
    )


def export(registry):
    """Set ``repro_native_builtins_loaded`` (1 loaded, 0 otherwise)."""
    registry.gauge(
        "repro_native_builtins_loaded",
        "1 when the native builtin library is loaded, 0 when batch "
        "kernels use the NumPy mirrors and lane-at-a-time builtins.",
    ).set(1 if status()["state"] == "loaded" else 0)
