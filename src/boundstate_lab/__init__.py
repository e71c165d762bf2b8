"""Shooting-method laboratory for radial bound states of a semilinear scalar field.

The names from ``classify``, ``field``, ``integrate`` and ``portrait`` are bound
at import, since every command loads those modules.  The names from
``functionals`` and ``verify`` are bound on first read (PEP 562), so a process
loads those two modules, and ``quadrature``, only when it reads one of them.
"""

import importlib
import types

from .classify import (
    BOUND_STATE_CANDIDATE,
    CONSTANT,
    INDETERMINATE,
    OSCILLATORY,
    BracketNotFound,
    LadderEntry,
    MonotonicityViolation,
    SolutionClass,
    Witness,
    ZeroMonotonicityReport,
    build_ladder,
    classify,
    find_alpha_k,
    node_count_of_alpha,
    zero_monotonicity_scan,
)
from .field import (
    FieldParams,
    ParameterError,
    SingularInputError,
    big_F,
    big_F_a,
    f,
    f_prime,
    g1,
    g2,
    kappa_a,
)
from .integrate import (
    CLASSIFY_POLICY,
    FULL_RANGE_POLICY,
    IntegratorControls,
    ProblemParams,
    State,
    TerminationCause,
    Trajectory,
    integrate,
    series_start,
)
from .portrait import (
    AmbiguousEvent,
    IndeterminateCount,
    InterlacingViolation,
    LabeledPoint,
    NodeCount,
    PhaseLabels,
    PhasePortrait,
    count_nodes,
    detect_events,
    find_zeros,
)

# The names bound on first read, each with the module that defines it.
_LAZY = {
    **dict.fromkeys(("IDENTITY_NAMES", "AuxSample", "BridgeIntegral", "IdentityReport",
                     "IdentityResidual", "MissingEvents", "ProbeUndefined",
                     "SingularityWarning", "bridge_integral", "eval_aux",
                     "identity_residuals", "probe_radii"), "functionals"),
    **dict.fromkeys(("CHECK_IDS", "PRESETS", "CaseSpec", "CheckRecord", "MalformedPlan",
                     "VerificationPlan", "VerificationReport", "default_cases", "run_checks",
                     "truncate_for_structure"), "verify"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # bound: later reads no longer come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

# Every public name the package binds, bar its submodules and the modules it
# imports, plus the names bound on first read.
__all__ = sorted({*(name for name, value in globals().items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)),
                  *_LAZY})
