"""Every shot through the compiled DOP853 march of ``_dopri.c``.

``_dopri.c`` marches the step of ``integrate._march`` from the same tableau,
each sum in the order in which ``_march`` takes it, so every knot, state,
dense coefficient, midpoint, node count and termination matches the Python run
bit for bit.  A kept shot (``kept_run``) hands it columns and gets back the
trajectory ``integrate`` returns in the kernel's own layout, a column per
component of its knot values, dense coefficients and midpoints, all built
in C; a counted shot (``counted_run``) hands it none and keeps only what a
bracket search reads: the node count and the pair of rows its estimates of
alpha_(count-1) and alpha_count read, however many sign changes the shot has.

The kernel is compiled on the first shot, not at import, with the C compiler that built
this interpreter (``sysconfig``'s ``CC``) and the flags in ``_FLAGS``: no fused
multiply-add, fast-math or ``-march``, which would change the bits.  ``-funroll-loops``
changes none: it unrolls the tableau loops, so that the zero weights drop out at compile
time (0.88 -> 0.66 us per step on classify-policy shots).  The compiler reads from stdin
``_declarations()``, integrate's constants as C, then ``_dopri.c``.  The library goes to
``$XDG_CACHE_HOME/boundstate_lab/`` (else ``~/.cache/boundstate_lab/``) under a name keyed
by two 64-bit checksums (``zlib``'s CRC-32 and Adler-32) of those bytes, the compiler, the
flags and the platform, and is loaded through ``ctypes``; a build then removes every other
``_dopri-*.so`` there, the libraries of older constants, sources, compilers or flags.
Without a compiler, or when the build or the load fails (which warns), both runs return
None and the shot marches in Python, the reference the kernel is tested against; else a
shot leaves the kernel only when its columns cannot be mapped.

The library also holds ``csv_rows``, which ``io.csv_text`` hands a table of plain floats.
It writes each value as ``'%.17g' % x`` does, in exact integer arithmetic, where the
decimal exponent lies in [-16, 16]; it leaves a row holding any other value to Python.
"""

from __future__ import annotations

import functools
import os
import threading
from array import array

from . import integrate as _integrate
from .integrate import ProblemParams, Trajectory, _termination, series_start

_FLAGS = ("-O2", "-funroll-loops", "-ffp-contract=off", "-fPIC", "-shared")
_COLUMNS = 37  # per knot: r, u, u', v, v'; seven coefficients and a midpoint per component


def _declarations() -> str:
    """integrate's tableau, step-size controller, end codes and ``_COLUMNS`` as the C
    declarations that ``_dopri.c`` reads: each double is its ``repr``, which reads back as the
    same double, and ``END_<NAME>`` is the index ``integrate._<NAME>`` into ``_ENDS``."""
    ig = _integrate

    def braced(values: tuple) -> str:  # a table has one row per line; A's empty row gets a zero
        if values and isinstance(values[0], tuple):
            return "{\n" + "".join(f"    {braced(row)},\n" for row in values) + "}"
        return "{" + (", ".join(map(repr, values)) or "0.0") + "}"

    arrays = (("C[16]", ig._C), ("A[16][15]", ig._A), ("E5[12]", ig._E[0]),
              ("E3[12]", ig._E[1]), ("D[4][16]", ig._P))
    controller = ("MAX_STEP", "MIN_FACTOR", "MAX_FACTOR", "SAFETY", "EXPONENT")
    ends = ("RMAX", "TRAPPED_AT_START", "DIVERGED_AT_START", "BUDGET", "UNDERFLOW", "NONFINITE",
            "TRAPPED", "DIVERGED")
    return "".join([*(f"static const double {name} = {braced(rows)};\n" for name, rows in arrays),
                    *(f"#define {name} {getattr(ig, '_' + name)!r}\n" for name in controller),
                    *(f"#define END_{name} {getattr(ig, '_' + name)}\n" for name in ends),
                    f"#define COLUMNS {_COLUMNS}\n"])


@functools.cache
def _kernel():
    """The kernel's library, built and loaded once per process, or None: ``dopri_march``,
    and ``csv_rows``, which ``io.csv_text`` calls."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return None
    import ctypes
    import warnings
    import zlib
    from pathlib import Path

    def unused(why: object) -> None:  # warned once: the cache keeps the None
        warnings.warn(f"no DOP853 kernel, every shot runs in Python: {why}", RuntimeWarning)

    code = _declarations().encode() + Path(__file__).with_name("_dopri.c").read_bytes()
    data = code + " ".join([*cc, *_FLAGS, sysconfig.get_platform()]).encode()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"))
    cache /= "boundstate_lab"
    lib = cache / f"_dopri-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so"
    if not lib.exists():  # only a build imports what builds
        import contextlib
        import subprocess
        import tempfile

        tmp = None
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            subprocess.run([*cc, *_FLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=code,
                           check=True, capture_output=True)
            os.replace(tmp, lib)
        except (OSError, subprocess.CalledProcessError) as exc:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            if isinstance(exc, OSError):
                return unused(exc)
            first = exc.stderr.decode(errors="replace").partition("\n")[0]
            return unused(f"{' '.join(cc)} exited with status {exc.returncode}: {first}")
        for old in set(cache.glob("_dopri-*.so")) - {lib}:  # other sources, compilers or flags
            with contextlib.suppress(OSError):  # another process removed it first
                old.unlink()
    try:
        dll = ctypes.CDLL(str(lib))
        march, rows = dll.dopri_march, dll.csv_rows
    except (OSError, AttributeError) as exc:
        return unused(exc)
    doubles, c_long = ctypes.POINTER(ctypes.c_double), ctypes.c_long
    march.argtypes = (doubles, c_long, ctypes.c_int, doubles, doubles,
                      ctypes.POINTER(c_long), doubles)
    march.restype = ctypes.c_int
    rows.argtypes = (ctypes.c_void_p, c_long, c_long, ctypes.c_void_p)  # buffer addresses
    rows.restype = c_long
    return dll


_local = threading.local()  # per thread: kept-run columns, in private pages mapped on write


def _run(params: ProblemParams, stop_on_energy: bool, kept: bool):
    """(termination, counts, rows, columns) of the kernel's run from ``params``,
    or None without a kernel or its columns.  The start is Python's, and so are
    its exceptions; a kept run has room for every knot the budget allows."""
    lib = _kernel()
    if lib is None:
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
    out, counts, rows = (c_double * 2)(), (c_long * 3)(), (c_double * 12)()
    end = lib.dopri_march(inputs, max_steps, stop_on_energy, rows, out, counts,
                          cols if kept else None)
    return _termination(end, out[0], out[1]), counts, rows, cols


def counted_run(params: ProblemParams) -> tuple[_integrate.TerminationCause, int, tuple] | None:
    """(termination, sign-change count, estimate rows) of the classify-policy
    shot from ``params``, or None without a kernel.  The shot then runs in Python.

    The count is ``portrait.count_nodes``' over the knots and segment
    midpoints.  The rows are a pair, as ``classify._estimate_rows`` returns
    them: (r, u, u', v, v') at the knot for alpha_(count-1) and at the one for
    alpha_count, None where there is no alpha_(count-1) or the knots never
    show that sign change.
    """
    run = _run(params, True, False)
    if run is None:
        return None
    end, (count, blocks, _), rows, _ = run
    return end, count, _estimate_pair(count, blocks, tuple(rows[:5]), tuple(rows[6:11]))


def _estimate_pair(count: int, blocks: int, two: tuple, last: tuple) -> tuple:
    """The pair of rows for alpha_(count-1) and alpha_count, from ``two`` and ``last``,
    the rows of the last two of the shot's ``blocks`` (at most count + 1) sign-change blocks."""
    picked = [None, None]
    for j, row in ((blocks - 2, two), (blocks - 1, last)):
        if j >= max(count - 1, 0):
            picked[j - count + 1] = row
    return tuple(picked)


def kept_run(params: ProblemParams, stop_on_energy: bool) -> Trajectory | None:
    """The trajectory ``integrate`` returns for the shot from ``params``, or
    None without a kernel or its columns.  Each column leaves in one copy."""
    run = _run(params, stop_on_energy, True)
    if run is None:
        return None
    end, (_, _, n_seg), _, cols = run
    view, room = memoryview(cols).cast("B"), len(cols) // _COLUMNS

    def column(start: int, length: int) -> array:  # start and length in doubles
        values = array("d")
        values.frombytes(view[8 * start:8 * (start + length)])
        return values

    knots, *values = (column(k * room, n_seg + 1).tolist() for k in range(5))
    return Trajectory(params, knots, values,
                      [column((5 + 7 * c) * room, 7 * n_seg) for c in range(4)],
                      [column((_COLUMNS - 4 + c) * room, n_seg) for c in range(4)], end)
