"""Every shot through the compiled DOPRI5 march of ``_dopri.c``.

``_dopri.c`` marches the step of ``integrate._march``, expression for
expression, so every knot, state, slope, node count and termination matches
the Python run bit for bit.  A kept shot (``kept_run``) hands it columns and
gets back the trajectory ``integrate`` returns; a counted shot
(``counted_run``) hands it none and keeps only what a bracket search reads:
the node count and the rows its alpha_k estimates read.

The kernel is compiled on the first shot, not at import, with the C
compiler that built this interpreter (``sysconfig``'s ``CC``) and the flags
in ``_FLAGS``: no fused multiply-add, fast-math or ``-march``, which would
change the bits.  The library goes to ``$XDG_CACHE_HOME/boundstate_lab/``
(else ``~/.cache/boundstate_lab/``) under a name keyed by a hash of the
source, the compiler, the flags and the platform, and is loaded through
``ctypes``.
Without a compiler, or when the build or the load fails, both runs return
None and the caller marches the shot in Python, which also stays the
reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import os
import threading
from array import array

from . import integrate as _integrate
from .integrate import ProblemParams, StopPolicy, Trajectory, _termination, series_start

_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_OVERFLOW = 8  # the kernel's END_OVERFLOW: an exp overflowed where math.exp raises
_ROWS = 64  # rows per counted run; a shot with more sign changes at its knots runs in Python
_COLUMNS = 29  # per knot: r, u, u', v, v', and six slopes of each of the four components


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
        fn = ctypes.CDLL(str(lib)).dopri_march
    except (OSError, AttributeError):
        return None
    doubles = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = (doubles, ctypes.c_long, ctypes.c_int, ctypes.c_long, doubles, doubles,
                   ctypes.POINTER(ctypes.c_long), doubles)
    fn.restype = ctypes.c_int
    return fn


_local = threading.local()  # per thread: kept-run columns, in private pages mapped on write


def _run(params: ProblemParams, stop_on_energy: bool, kept: bool):
    """(termination, counts, rows, columns) of the kernel's run from ``params``,
    or None without a kernel or its columns, where an exp overflows, or where
    a counted run sees more sign changes at its knots than it has rows.  The
    start is Python's; a kept run has room for every knot the budget allows."""
    fn = _kernel()
    if fn is None:
        return None
    import mmap
    from ctypes import c_double, c_long

    start = series_start(params)
    fld, ctl, max_steps = params.field, params.controls, _integrate._MAX_STEPS
    cols, size = getattr(_local, "cols", None), _COLUMNS * (max_steps + 1)
    if kept and (cols is None or len(cols) != size):  # a new budget remaps them
        try:
            cols = _local.cols = (c_double * size).from_buffer(
                mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE))
        except OSError:  # no address space for them: the shot runs in Python
            return None
    inputs = (c_double * 11)(fld.n - 1.0, fld.p, ctl.abs_tol, ctl.rel_tol, ctl.r_max,
                             _integrate._V_GUARD, start.r, start.u, start.up, start.v, start.vp)
    out, counts, rows = (c_double * 2)(), (c_long * 3)(), (c_double * (6 * _ROWS))()
    end = fn(inputs, max_steps, stop_on_energy, _ROWS, rows, out, counts,
             cols if kept else None)
    if end == _OVERFLOW or (not kept and counts[1] > _ROWS):
        return None  # the Python step raises where math.exp does, and keeps any number of rows
    return _termination(end, out[0], out[1]), counts, rows, cols


def counted_run(params: ProblemParams) -> tuple[_integrate.TerminationCause, int, list] | None:
    """(termination, sign-change count, estimate rows) of the classify-policy
    shot from ``params``, or None where the shot must be run in Python.

    The count is ``portrait.count_nodes``' over the knots and segment
    midpoints.  There are count + 1 rows, as ``classify._estimate_rows``
    picks them: (r, u, u', v, v') at a knot, or None for a sign change the
    knots never show.
    """
    run = _run(params, True, False)
    if run is None:
        return None
    end, (count, found, _), rows, _ = run
    picked = [tuple(rows[6 * j:6 * j + 5]) for j in range(found)]
    return end, count, picked + [None] * (count + 1 - found)


def kept_run(params: ProblemParams, policy: StopPolicy) -> Trajectory | None:
    """The trajectory ``integrate`` returns for the shot from ``params``, or
    None where it must be run in Python.  Each column leaves in one copy."""
    run = _run(params, policy.stop_on_energy, True)
    if run is None:
        return None
    end, counts, _, cols = run
    view, n_knots, room = memoryview(cols).cast("B"), counts[2] + 1, len(cols) // _COLUMNS

    def column(k: int, length: int) -> array:
        values = array("d")
        values.frombytes(view[8 * k * room:8 * (k * room + length)])
        return values

    knots, u, up, v, vp = (column(k, n_knots).tolist() for k in range(5))
    return Trajectory(params, knots, list(zip(u, up, v, vp)),
                      [column(5 + 6 * c, 6 * (n_knots - 1)) for c in range(4)], end)
