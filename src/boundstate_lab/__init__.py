"""Shooting-method laboratory for radial bound states of a semilinear scalar field.

The package binds the names of ``classify``, ``field``, ``integrate`` and
``portrait``, the modules every command loads.  The names of ``functionals`` and
``verify`` are imported from those modules, so a process loads them, and
``quadrature``, only when it runs a command that reads them.
"""

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
    build_ladder,
    classify,
    find_alpha_k,
    node_count_of_alpha,
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

__version__ = "0.1.0"

# Every public name the package binds, bar its submodules and the modules it imports.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
