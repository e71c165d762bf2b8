"""Counted shots through the compiled DOPRI5 kernel of ``_dopri.c``.

A counted shot is a classify-policy run of which a bracket search keeps only
the node count and the rows its alpha_k estimates read, never the
trajectory.  ``_dopri.c`` marches the same step as ``integrate.integrate``,
expression for expression, and computes those while it steps, so the count,
the termination and every row match the Python run bit for bit.

The kernel is compiled on the first counted shot, not at import, with the C
compiler that built this interpreter (``sysconfig``'s ``CC``) and the flags
in ``_FLAGS``: no fused multiply-add, fast-math or ``-march``, which would
change the bits.  The library goes to ``$XDG_CACHE_HOME/boundstate_lab/``
(else ``~/.cache/boundstate_lab/``) under a name keyed by a hash of the
source, the compiler, the flags and the platform, and is loaded through
``ctypes``.
Without a compiler, or when the build or the load fails, ``counted_run``
returns None and the caller integrates and counts the shot in Python, which
also stays the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import os

from . import integrate as _integrate
from .integrate import ProblemParams, TerminationCause, _termination, series_start

_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_OVERFLOW = 8  # the kernel's END_OVERFLOW: an exp overflowed where math.exp raises
_ROWS = 64  # estimate rows per run; a shot with more sign changes at its knots runs in Python


@functools.cache
def _kernel():
    """The kernel's entry point, built and loaded once per process, or None."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return None
    import ctypes
    import hashlib
    import subprocess
    import tempfile
    from pathlib import Path

    source = Path(__file__).with_name("_dopri.c")
    key = hashlib.sha256(source.read_bytes())
    key.update(" ".join([*cc, *_FLAGS, sysconfig.get_platform()]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"))
    cache /= "boundstate_lab"
    lib = cache / f"_dopri-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        tmp = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            subprocess.run([*cc, *_FLAGS, "-o", tmp, str(source), "-lm"],
                           check=True, capture_output=True)
            os.replace(tmp, lib)
        except (OSError, subprocess.CalledProcessError):
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            return None
    try:
        fn = ctypes.CDLL(str(lib)).dopri_count
    except (OSError, AttributeError):
        return None
    doubles = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = (doubles, ctypes.c_long, ctypes.c_long, doubles, doubles,
                   ctypes.POINTER(ctypes.c_long))
    fn.restype = ctypes.c_int
    return fn


def counted_run(params: ProblemParams) -> tuple[TerminationCause, int, list] | None:
    """(termination, sign-change count, estimate rows) of the classify-policy
    shot from ``params``, or None where the shot must be run in Python.

    The count is ``portrait.count_nodes``' over the knots and segment
    midpoints.  There are count + 1 rows, as ``classify._estimate_rows``
    picks them: (r, u, u', v, v') at a knot, or None for a sign change the
    knots never show.  The series start and its checks are Python's, and so
    are their exceptions.
    """
    fn = _kernel()
    if fn is None:
        return None
    from ctypes import c_double, c_long

    start = series_start(params)
    fld, ctl = params.field, params.controls
    inputs = (c_double * 11)(fld.n - 1.0, fld.p, ctl.abs_tol, ctl.rel_tol, ctl.r_max,
                             _integrate._V_GUARD, start.r, start.u, start.up, start.v, start.vp)
    out, counts, rows = (c_double * 2)(), (c_long * 2)(), (c_double * (6 * _ROWS))()
    end = fn(inputs, _integrate._MAX_STEPS, _ROWS, rows, out, counts)
    count, found = counts
    if end == _OVERFLOW or found > _ROWS:
        return None  # the Python step raises where math.exp does, and keeps any number of rows
    picked = [tuple(rows[6 * j:6 * j + 5]) for j in range(found)]
    return _termination(end, out[0], out[1]), count, picked + [None] * (count + 1 - found)
