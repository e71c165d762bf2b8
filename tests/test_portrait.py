"""Event-detection tests: zeros, criticals, labels, node counts, inflections."""

from collections import Counter
from typing import Optional

import pytest

from boundstate_lab import (
    CLASSIFY_POLICY,
    FULL_RANGE_POLICY,
    PRESETS,
    CaseSpec,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    VerificationPlan,
    count_nodes,
    detect_events,
    find_zeros,
    integrate,
    run_checks,
)
from boundstate_lab import portrait
from boundstate_lab.field import abs_pow
from boundstate_lab.integrate import ENERGY_NONPOSITIVE, State, Trajectory
from boundstate_lab.portrait import (
    _RADIUS_TOL,
    _TANGENCY_TOL,
    SEMI_TAIL,
    TAIL_OSCILLATORY,
    AmbiguousEvent,
    InterlacingViolation,
    LabeledPoint,
    PhaseLabels,
    PhasePortrait,
    _refine_root,
    _sign_change_roots,
)
from boundstate_lab.verify import BOUND_BRACKET

FL = FieldParams(3, 3.0)


def _run(alpha, rmax=30.0):
    return integrate(ProblemParams(FL, alpha, IntegratorControls().with_rmax(rmax)),
                     FULL_RANGE_POLICY)


def test_single_node_shot_events():
    traj = _run(5.0)
    portrait = detect_events(traj)
    assert len(portrait.zeros_u) == 1
    # independently refined location, frozen from a 10x tighter run
    assert portrait.zeros_u[0].r == pytest.approx(1.885771377923148, abs=1e-8)
    assert portrait.zeros_u[0].value == traj.eval_dense(portrait.zeros_u[0].r).up
    assert portrait.phase_kind == TAIL_OSCILLATORY
    assert len(portrait.tail_crits_u) > 5
    assert portrait.zeros_v, "the variation oscillates on a trapped shot"


def test_single_node_shot_labels_ordered():
    traj = _run(5.0)
    portrait = detect_events(traj)
    ph = portrait.phases[0]
    assert ph.index == 1
    assert ph.b is not None and ph.r is not None and ph.z is not None
    assert ph.b.r < ph.r.r < ph.z.r
    assert ph.uncertain == ()
    # |u| crosses alpha_star at b and the rest height at r
    assert abs(traj.eval_dense(ph.b.r).u) == pytest.approx(FL.alpha_star, abs=1e-9)
    assert abs(traj.eval_dense(ph.r.r).u) == pytest.approx(1.0, abs=1e-9)


def test_trapped_shot_has_no_zeros_but_a_tail():
    traj = _run(0.5)
    portrait = detect_events(traj)
    assert portrait.zeros_u == []
    assert portrait.phase_kind == TAIL_OSCILLATORY
    assert len(portrait.tail_crits_u) >= 3


def test_bracket_midpoint_structure(mid1_struct):
    portrait = detect_events(mid1_struct)
    assert len(portrait.zeros_u) == 1
    assert len(portrait.crits_u) == 1
    z1 = portrait.zeros_u[0].r
    c1 = portrait.crits_u[0].r
    assert z1 < c1
    assert portrait.phase_kind == SEMI_TAIL
    # variation: one zero before z_1, the renewal zero after c_1
    taus = [q.r for q in portrait.zeros_v]
    assert len(taus) == 2
    assert 0.0 < taus[0] < z1
    assert taus[1] > c1


def test_bracket_midpoint_decay_labels(mid1_struct):
    portrait = detect_events(mid1_struct)
    last = portrait.phases[-1]
    # the closing phase records |u| falling back through alpha_star and 1
    assert last.b is not None and last.r is not None
    assert last.z is None
    assert last.b.r < last.r.r


def test_node_counts_finalize_only_in_the_energy_trap():
    from boundstate_lab import CLASSIFY_POLICY

    trapped = integrate(ProblemParams(FL, 5.0, IntegratorControls()), CLASSIFY_POLICY)
    count = count_nodes(trapped)
    assert count.count == 1
    assert count.final

    free = _run(5.0, rmax=10.0)
    count_free = count_nodes(free)
    assert count_free.count == 1
    assert not count_free.final


def test_find_zeros_components_are_consistent():
    traj = _run(5.0)
    portrait = detect_events(traj)
    zs_u = find_zeros(traj, "u")
    zs_v = find_zeros(traj, "v")
    assert zs_u == pytest.approx([q.r for q in portrait.zeros_u], abs=1e-10)
    assert zs_v == pytest.approx([q.r for q in portrait.zeros_v], abs=1e-10)
    with pytest.raises(ValueError):
        find_zeros(traj, "w")


def test_zeros_interlace_with_criticals_on_a_two_node_shot():
    traj = _run(16.0, rmax=12.0)
    portrait = detect_events(traj)
    zs = [q.r for q in portrait.zeros_u]
    cs = [q.r for q in portrait.crits_u]
    assert len(zs) == 2
    for i, c in enumerate(cs[: len(zs) - 1]):
        assert zs[i] < c < zs[i + 1]


@pytest.mark.parametrize("alpha, rmax, zeros",
                         [(3.0, None, 0), (5.0, None, 1), (20.0, None, 2), (35.0, None, 3),
                          (2.0, 7.3, 0)])
def test_midpoint_read_is_bitwise_eval_dense(alpha, rmax, zeros):
    # rmax=None: classify run ending in the energy trap; otherwise a full-range
    # run whose last step is clipped to r_max
    traj = integrate(ProblemParams(FL, alpha)) if rmax is None else _run(alpha, rmax)
    for c, name in enumerate(("u", "up", "v", "vp")):
        mids = traj.midpoints[c]
        assert len(mids) == len(traj.knots) - 1
        for i, mid in enumerate(mids):
            r_mid = 0.5 * (traj.knots[i] + traj.knots[i + 1])
            assert mid.hex() == getattr(traj.eval_dense(r_mid), name).hex()
    assert count_nodes(traj).count == zeros


def _zeros_on_eval_dense_grid(traj, component):
    """Reference find_zeros: every grid value read through eval_dense."""
    rs = []
    for i in range(len(traj.knots) - 1):
        rs += [traj.knots[i], 0.5 * (traj.knots[i] + traj.knots[i + 1])]
    rs.append(traj.knots[-1])
    vals = [getattr(traj.eval_dense(r), component) for r in rs]
    return _sign_change_roots(rs, vals, lambda r: getattr(traj.eval_dense(r), component))


@pytest.mark.parametrize("component", ["u", "up", "v", "vp"])
@pytest.mark.parametrize("alpha, rmax", [(5.0, None), (20.0, None), (35.0, 9.37), (2.0, 7.3)])
def test_find_zeros_matches_an_eval_dense_grid_bitwise(component, alpha, rmax):
    # rmax=None: classify run ending in the energy trap; otherwise a full-range
    # run whose last step is clipped to r_max
    traj = integrate(ProblemParams(FL, alpha)) if rmax is None else _run(alpha, rmax)
    if rmax is not None:
        assert traj.knots[-1] == rmax
    got = find_zeros(traj, component)
    want = _zeros_on_eval_dense_grid(traj, component)
    assert [z.hex() for z in got] == [z.hex() for z in want]


# Reference detect_events: the scan that builds a State through eval_dense at
# every segment midpoint and reads every crossing grid point through eval_dense.
def _ref_grid(traj: Trajectory) -> tuple[list[float], list[State]]:
    """Knots plus segment midpoints; fine enough to isolate every event."""
    rs: list[float] = []
    states: list[State] = []
    knots = traj.knots
    for i in range(len(knots) - 1):
        rs.append(knots[i])
        states.append(traj.state_at_knot(i))
        mid = 0.5 * (knots[i] + knots[i + 1])
        rs.append(mid)
        states.append(traj.eval_dense(mid))
    rs.append(knots[-1])
    states.append(traj.state_at_knot(len(knots) - 1))
    return rs, states


def _ref_u_second(traj: Trajectory, s: State) -> float:
    fld = traj.params.field
    fu = (abs_pow(s.u, fld.p - 1.0) - 1.0) * s.u
    return -(fld.n - 1.0) / s.r * s.up - fu


def _ref_detect_events(traj: Trajectory) -> PhasePortrait:
    """Locate all events and assemble the phase structure.

    Raises InterlacingViolation when zeros/criticals cannot be reconciled
    and AmbiguousEvent when two located events collapse onto each other.
    """
    fld = traj.params.field
    alpha_star = fld.alpha_star
    rs, sts = _ref_grid(traj)
    us = [s.u for s in sts]
    ups = [s.up for s in sts]
    vs = [s.v for s in sts]
    upps = [_ref_u_second(traj, s) for s in sts]

    du = lambda r: traj.eval_dense(r).u
    dup = lambda r: traj.eval_dense(r).up
    dv = lambda r: traj.eval_dense(r).v
    dupp = lambda r: _ref_u_second(traj, traj.eval_dense(r))

    zero_rs = _sign_change_roots(rs, us, du)
    crit_rs = _sign_change_roots(rs, ups, dup)
    zv_rs = _sign_change_roots(rs, vs, dv)
    infl_rs = _sign_change_roots(rs, upps, dupp)

    zeros_u = [LabeledPoint(r=r, value=traj.eval_dense(r).up) for r in zero_rs]
    zeros_v = [LabeledPoint(r=r, value=traj.eval_dense(r).vp) for r in zv_rs]
    crits_all = [LabeledPoint(r=r, value=traj.eval_dense(r).u) for r in crit_rs]

    # Overlap guard: a zero and a critical of u cannot coincide (the profile
    # would be identically zero), nor can two events of the same kind.
    merged = sorted(zero_rs + crit_rs)
    for i in range(len(merged) - 1):
        if merged[i + 1] - merged[i] < 10.0 * _RADIUS_TOL * max(1.0, merged[i]):
            raise AmbiguousEvent(
                f"events at r={merged[i]!r} and r={merged[i + 1]!r} overlap within locator tolerance"
            )

    # Split criticals into phase criticals (interlaced with zeros, plus the
    # one bound-like critical after the last zero whose height clears the
    # well zero) and trapped-tail criticals.
    k = len(zeros_u)
    crits_phase: list[LabeledPoint] = []
    tail_crits: list[LabeledPoint] = []
    if k == 0:
        tail_crits = crits_all
    else:
        before_first = [c for c in crits_all if c.r < zeros_u[0].r]
        if before_first:
            raise InterlacingViolation(
                f"{len(before_first)} critical point(s) before the first zero; "
                "integration tolerance too loose?"
            )
        for i in range(k - 1):
            inside = [c for c in crits_all if zeros_u[i].r < c.r < zeros_u[i + 1].r]
            if len(inside) != 1:
                raise InterlacingViolation(
                    f"expected exactly one critical between zeros {i + 1} and {i + 2}, found {len(inside)}"
                )
            crits_phase.append(inside[0])
        after_last = [c for c in crits_all if c.r > zeros_u[-1].r]
        if after_last:
            head = after_last[0]
            if abs(head.value) > alpha_star:
                crits_phase.append(head)
                rest = after_last[1:]
            else:
                rest = after_last
            for c in rest:
                if abs(c.value) > alpha_star * (1.0 + _TANGENCY_TOL):
                    raise InterlacingViolation(
                        f"trapped-tail critical at r={c.r} has |u|={abs(c.value)} above the well zero"
                    )
            tail_crits = rest

    bound_like = len(crits_phase) == k and k > 0
    if k == 0:
        bound_like = len(crits_all) == 0

    if traj.termination.tag == ENERGY_NONPOSITIVE or tail_crits:
        phase_kind = TAIL_OSCILLATORY
    else:
        phase_kind = SEMI_TAIL

    # Phase labels.  Phase i spans (c_{i-1}, c_i) with c_0 the origin; the
    # profile is monotone between its endpoints' criticals, so each level
    # is crossed at most once per half-phase.
    def crossing(level: float, lo: float, hi: float) -> Optional[float]:
        g = lambda r: abs(traj.eval_dense(r).u) - level
        pts = [r for r in rs if lo < r < hi]
        grid = [lo] + pts + [hi]
        gv = [g(r) for r in grid]
        for i in range(len(grid) - 1):
            if gv[i] == 0.0:
                return grid[i]
            if gv[i + 1] == 0.0 or (gv[i] < 0.0) != (gv[i + 1] < 0.0):
                return _refine_root(g, grid[i], grid[i + 1])
        return None

    def labeled(r: Optional[float]) -> Optional[LabeledPoint]:
        if r is None:
            return None
        return LabeledPoint(r=r, value=traj.eval_dense(r).u)

    phases: list[PhaseLabels] = []
    truncated = False
    for i in range(1, k + 1):
        left = crits_phase[i - 2].r if i >= 2 else traj.r_start
        z = zeros_u[i - 1]
        right = crits_phase[i - 1].r if i - 1 < len(crits_phase) else None
        uncertain: list[str] = []
        b = labeled(crossing(alpha_star, left, z.r))
        r1 = labeled(crossing(1.0, b.r if b else left, z.r))
        rbar = bbar = None
        if right is not None:
            rbar = labeled(crossing(1.0, z.r, right))
            bbar = labeled(crossing(alpha_star, rbar.r if rbar else z.r, right))
            c_height = abs(traj.eval_dense(right).u)
            for name, level in (("bbar", alpha_star), ("rbar", 1.0)):
                if abs(c_height - level) < _TANGENCY_TOL * max(1.0, level):
                    uncertain.append(name)
        else:
            truncated = True
        phases.append(
            PhaseLabels(
                index=i,
                b=b,
                r=r1,
                z=z,
                rbar=rbar,
                bbar=bbar,
                uncertain=tuple(uncertain),
            )
        )

    # Bound-like decay after the closing critical: record where |u| falls
    # back through alpha_star and 1 (the final, zero-less entry).
    if bound_like and phase_kind == SEMI_TAIL:
        left = crits_phase[-1].r if crits_phase else traj.r_start
        b = labeled(crossing(alpha_star, left, traj.r_end))
        r1 = labeled(crossing(1.0, b.r if b else left, traj.r_end))
        if b is not None or r1 is not None:
            phases.append(PhaseLabels(index=k + 1, b=b, r=r1))

    return PhasePortrait(
        zeros_u=zeros_u,
        crits_u=crits_phase,
        tail_crits_u=tail_crits,
        zeros_v=zeros_v,
        inflections_u=infl_rs,
        phases=phases,
        phase_kind=phase_kind,
        truncated=truncated,
    )


def _outcome(detect, traj):
    """The portrait's repr (every float to the last bit, signed zeros
    included), or the error it raised."""
    try:
        return repr(detect(traj))
    except (InterlacingViolation, AmbiguousEvent) as exc:
        return f"{type(exc).__name__}: {exc}"


FL_315 = FieldParams(3, 1.5)
FL_42 = FieldParams(4, 2.0)
EVENT_SHOTS = [
    # 0-3 zeros at three (n, p) points
    *[(FL, alpha) for alpha in (3.0, 8.0, 20.0, 35.0)],
    *[(FL_315, alpha) for alpha in (3.0, 6.0, 12.0, 20.0)],
    *[(FL_42, alpha) for alpha in (5.0, 20.0, 60.0, 120.0)],
    # either side of the first jump at (3, 3), and the constant shot
    (FL, 4.337387679942187 * (1.0 - 1e-9)),
    (FL, 4.337387679942187 * (1.0 + 1e-9)),
    (FL, 1.0),
]


@pytest.mark.parametrize("policy", [CLASSIFY_POLICY, FULL_RANGE_POLICY],
                         ids=["classify", "full_range"])
@pytest.mark.parametrize("field, alpha", EVENT_SHOTS)
def test_detect_events_matches_the_eval_dense_grid_bitwise(field, alpha, policy):
    traj = integrate(ProblemParams(field, alpha), policy)
    assert _outcome(detect_events, traj) == _outcome(_ref_detect_events, traj)


@pytest.mark.parametrize("alpha, rmax, cut", [(35.0, 9.37, None), (2.0, 7.3, None),
                                              (20.0, 30.0, 6.0)])
def test_detect_events_on_clipped_and_truncated_runs_bitwise(alpha, rmax, cut):
    traj = _run(alpha, rmax)
    assert traj.knots[-1] == rmax
    if cut is not None:
        traj = traj.truncated_at(cut)
    assert _outcome(detect_events, traj) == _outcome(_ref_detect_events, traj)


def test_detect_events_on_the_structural_copy_bitwise(mid1_struct):
    want = _outcome(_ref_detect_events, mid1_struct)
    assert _outcome(detect_events, mid1_struct) == want


def test_detect_events_reads_its_grid_from_the_stored_segments(monkeypatch):
    # a scan of the midpoints through the dense read alone takes one call per
    # segment; every read detect_events makes goes through the one-component
    # read, none through eval_dense
    traj = integrate(ProblemParams(FL, 8.0))
    calls = {"value": [], "eval_dense": []}

    def counting(name):
        original = getattr(Trajectory, name)

        def counted(self, *args):
            calls[name].append(args)
            return original(self, *args)

        return counted

    for name in calls:
        monkeypatch.setattr(Trajectory, name, counting(name))
    portrait = detect_events(traj)
    assert len(portrait.zeros_u) == 1
    assert 0 < len(calls["value"]) < len(traj.knots)
    assert calls["eval_dense"] == []


@pytest.mark.parametrize("alpha", [5.0, 20.0])
def test_counted_and_swept_classify_shots_read_the_columns_as_built(alpha):
    # the dense columns are filled with the march; a scan reads them and
    # neither replaces nor extends any of them
    for scan in (count_nodes, find_zeros):
        traj = integrate(ProblemParams(FL, alpha))
        columns = [*traj.coeffs, *traj.midpoints]
        before = [list(col) for col in columns]
        scan(traj)
        assert all(a is b for a, b in zip([*traj.coeffs, *traj.midpoints], columns))
        assert [list(col) for col in columns] == before
        n_seg = len(traj.knots) - 1
        assert [len(col) for col in columns] == [7 * n_seg] * 4 + [n_seg] * 4


def test_a_verify_case_scans_each_component_of_each_trajectory_once(monkeypatch):
    # detect_events, the cross-oracle gate, the ledger's exclusion radii and
    # the structural cut read u, u' and v through find_zeros, which keeps each
    # trajectory's roots, so no component of a trajectory is scanned twice
    columns = []  # (trajectory, component, values) of each grid_values call
    grid_values = Trajectory.grid_values

    def recorded(self, c):
        columns.append((self, c, grid_values(self, c)))
        return columns[-1][2]

    scanned = []  # (trajectory, component) of each scan of a grid_values column
    scan = portrait._sign_change_roots

    def counted(rs, vals, g):
        scanned.extend((id(traj), c) for traj, c, col in columns if col is vals)
        return scan(rs, vals, g)

    monkeypatch.setattr(Trajectory, "grid_values", recorded)
    monkeypatch.setattr(portrait, "_sign_change_roots", counted)
    case = CaseSpec(FL, BOUND_BRACKET, k=1)
    report = run_checks(VerificationPlan(cases=(case,), checks=PRESETS["core"]))
    assert len(report.records) == len(PRESETS["core"])
    assert {c for _, c in scanned} == {0, 1, 2, 3}
    assert max(Counter(scanned).values()) == 1


def test_find_zeros_hands_out_copies_and_a_truncated_copy_scans_afresh():
    traj = _run(20.0)
    zeros = find_zeros(traj, "u")
    want = list(zeros)
    assert len(want) >= 2 and set(traj.roots) == {0}
    zeros[0] = -1.0
    zeros.append(0.0)
    assert find_zeros(traj, "u") == want
    cut = traj.truncated_at(0.5 * (want[0] + want[1]))
    assert cut.roots == {}
    assert find_zeros(cut, "u") == want[:1]
