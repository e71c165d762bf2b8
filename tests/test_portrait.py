"""Event-detection tests: zeros, criticals, labels, node counts, inflections."""

import pytest

from boundstate_lab import (
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    count_nodes,
    critical_amplitudes,
    detect_events,
    find_zeros,
    integrate,
    unique_inflection_check,
)
from boundstate_lab.portrait import (
    SEMI_TAIL,
    TAIL_OSCILLATORY,
    _midpoint_values,
    _sign_change_roots,
)

FL = FieldParams(3, 3.0)


def _run(alpha, rmax=30.0):
    return integrate(ProblemParams(FL, alpha, IntegratorControls().with_rmax(rmax)),
                     FULL_RANGE_POLICY)


def test_single_node_shot_events():
    traj = _run(5.0)
    portrait = detect_events(traj, critical_amplitudes(FL))
    assert len(portrait.zeros_u) == 1
    # independently refined location, frozen from a 10x tighter run
    assert portrait.zeros_u[0].r == pytest.approx(1.885771377923148, abs=1e-8)
    assert portrait.zeros_u[0].value == traj.eval_dense(portrait.zeros_u[0].r).up
    assert portrait.phase_kind == TAIL_OSCILLATORY
    assert len(portrait.tail_crits_u) > 5
    assert portrait.zeros_v, "the variation oscillates on a trapped shot"


def test_single_node_shot_labels_ordered():
    traj = _run(5.0)
    portrait = detect_events(traj, critical_amplitudes(FL))
    ph = portrait.phases[0]
    assert ph.index == 1
    assert ph.b is not None and ph.r is not None and ph.z is not None
    assert ph.b.r < ph.r.r < ph.z.r
    assert ph.uncertain == ()
    # |u| crosses alpha_star at b and the rest height at r
    amps = critical_amplitudes(FL)
    assert abs(traj.eval_dense(ph.b.r).u) == pytest.approx(amps.alpha_star, abs=1e-9)
    assert abs(traj.eval_dense(ph.r.r).u) == pytest.approx(1.0, abs=1e-9)


def test_trapped_shot_has_no_zeros_but_a_tail():
    traj = _run(0.5)
    portrait = detect_events(traj, critical_amplitudes(FL))
    assert portrait.zeros_u == []
    assert portrait.phase_kind == TAIL_OSCILLATORY
    assert len(portrait.tail_crits_u) >= 3


def test_bracket_midpoint_structure(mid1_struct):
    portrait = detect_events(mid1_struct, critical_amplitudes(FL))
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
    portrait = detect_events(mid1_struct, critical_amplitudes(FL))
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
    portrait = detect_events(traj, critical_amplitudes(FL))
    zs_u = find_zeros(traj, "u")
    zs_v = find_zeros(traj, "v")
    assert zs_u == pytest.approx([q.r for q in portrait.zeros_u], abs=1e-10)
    assert zs_v == pytest.approx([q.r for q in portrait.zeros_v], abs=1e-10)
    with pytest.raises(ValueError):
        find_zeros(traj, "w")


def test_zeros_interlace_with_criticals_on_a_two_node_shot():
    traj = _run(16.0, rmax=12.0)
    portrait = detect_events(traj, critical_amplitudes(FL))
    zs = [q.r for q in portrait.zeros_u]
    cs = [q.r for q in portrait.crits_u]
    assert len(zs) == 2
    for i, c in enumerate(cs[: len(zs) - 1]):
        assert zs[i] < c < zs[i + 1]


def test_unique_inflection_on_the_bracket_midpoint(mid1_struct):
    portrait = detect_events(mid1_struct, critical_amplitudes(FL))
    report = unique_inflection_check(mid1_struct, portrait)
    assert report.unique_everywhere
    assert all(len(iv.radii) == 1 for iv in report.intervals)
    for iv in report.intervals:
        assert iv.lo < iv.radii[0] < iv.hi


@pytest.mark.parametrize("alpha, rmax, zeros",
                         [(3.0, None, 0), (5.0, None, 1), (20.0, None, 2), (35.0, None, 3),
                          (2.0, 7.3, 0)])
def test_midpoint_read_is_bitwise_eval_dense(alpha, rmax, zeros):
    # rmax=None: classify run ending in the energy trap; otherwise a full-range
    # run whose last step is clipped to r_max
    traj = integrate(ProblemParams(FL, alpha)) if rmax is None else _run(alpha, rmax)
    for c, name in enumerate(("u", "up", "v", "vp")):
        mids = _midpoint_values(traj, c)
        assert len(mids) == len(traj.seg_coeffs)
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
