"""Classifier tests: frozen jump amplitudes, tags, ladders, zero monotonicity."""

import importlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundstate_lab import (
    BOUND_STATE_CANDIDATE,
    CONSTANT,
    FULL_RANGE_POLICY,
    OSCILLATORY,
    BracketNotFound,
    FieldParams,
    IntegratorControls,
    MonotonicityViolation,
    NodeCount,
    ProblemParams,
    classify,
    find_alpha_k,
    find_zeros,
    integrate,
    node_count_of_alpha,
)
from boundstate_lab.classify import _CountCache
from boundstate_lab.integrate import ENERGY_NONPOSITIVE, REACHED_RMAX, TerminationCause

classify_module = importlib.import_module("boundstate_lab.classify")

# jump amplitudes, to about 1e-11 (relative), from the DOPRI5 march at its
# default tolerances; the probes below sit 1e-9 away
ALPHA_33 = (4.337387679942187, 14.103584404913107, 29.131211576153888)
BRACKET_3_15 = {0: (4.276541696875641, 4.276541696879352),
                1: (9.817613650894993, 9.817613650902416)}
# the midpoints of the tol-1e-12 (3, 3) ladder at the default controls, as the
# DOP853 march gives them; the converged amplitudes (tolerances 1000x tighter,
# where the DOPRI5 and DOP853 marches agree) are 4.337387679977041,
# 14.103584404868798 and 29.13121157571095: 5.5e-12, 3.3e-12 and 2.6e-12 away
# (relative), where the DOPRI5 ladder was 8.0e-12, 3.2e-12 and 1.5e-11 away
LADDER_33 = (4.337387680001484, 14.103584404914727, 29.131211575630005)
# tol-1e-13 brackets at tolerances 1000x tighter than the default
CONVERGED_3_15 = {0: (4.27654169691485, 4.276541696915082),
                  1: (9.817613650727942, 9.81761365072887)}
BRACKET_3_12 = {0: (4.382651319957, 4.382651319961)}
MID_3_12_K1 = 9.704060612815985
BRACKET_42 = {0: (8.671934300011344, 8.671934300016801),
              1: (37.209564704899094, 37.209564704920922)}


def test_ladder_matches_frozen_amplitudes(ladder33):
    for k, alpha_k in enumerate(LADDER_33):
        entry = ladder33[k]
        assert entry.alpha_lo <= alpha_k <= entry.alpha_hi
        assert entry.width <= 1e-12 * entry.alpha_lo * 1.01
        assert (entry.nodes_lo, entry.nodes_hi) == (k, k + 1)


def test_ladder_entries_strictly_increase(ladder33):
    entries = ladder33
    for prev, cur in zip(entries, entries[1:]):
        assert cur.alpha_lo > prev.alpha_hi


def test_shallow_exponent_brackets_match_oracle():
    fl = FieldParams(3, 1.5)
    for k, (lo, hi) in CONVERGED_3_15.items():
        entry = find_alpha_k(fl, k, tol=1e-10)
        assert entry.alpha_lo <= hi and lo <= entry.alpha_hi  # overlap
        assert entry.midpoint == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_shallowest_exponent_bracket_matches_oracle():
    fl = FieldParams(3, 1.2)
    entry = find_alpha_k(fl, 0, tol=1e-10)
    lo, hi = BRACKET_3_12[0]
    assert entry.midpoint == pytest.approx(0.5 * (lo + hi), rel=1e-9)
    entry1 = find_alpha_k(fl, 1, tol=1e-10)
    assert entry1.midpoint == pytest.approx(MID_3_12_K1, rel=1e-9)


def test_four_dimensional_brackets_match_oracle():
    fl = FieldParams(4, 2.0)
    for k, (lo, hi) in BRACKET_42.items():
        entry = find_alpha_k(fl, k, tol=1e-10)
        assert entry.midpoint == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_class_tags(field33):
    assert classify(field33, 1.0).tag == CONSTANT
    low = classify(field33, 0.5)
    assert low.tag == OSCILLATORY
    assert low.node_count == 0
    assert low.witness.energy_nonpositive_radius is not None
    mid = classify(field33, 5.0)
    assert mid.tag == OSCILLATORY
    assert mid.node_count == 1
    assert mid.oscillation_center in (-1, 1)


def test_bracket_midpoint_classifies_as_a_candidate(field33, ladder33, monkeypatch):
    # at r = 12 the midpoint still shadows the bound state: |u| ~ 1.4e-6
    # and slope error ~ 0.085 (~1/r).  Farther out the bisection offset
    # has grown like e^r and poisons the slope before the energy trap.
    monkeypatch.setattr(classify_module, "_DECAY_EPS", 1e-5)
    monkeypatch.setattr(classify_module, "_SLOPE_EPS", 0.1)
    alpha = ladder33[0].midpoint
    result = classify(field33, alpha, IntegratorControls().with_rmax(12.0))
    assert result.tag == BOUND_STATE_CANDIDATE
    assert result.node_count == 0
    assert result.witness.decay_slope_error is not None
    assert result.witness.decay_slope_error < 0.1


def test_node_counts_step_up_through_the_ladder(field33):
    assert node_count_of_alpha(field33, 3.0).count == 0
    assert node_count_of_alpha(field33, 5.0).count == 1
    assert node_count_of_alpha(field33, 15.0).count == 2
    assert node_count_of_alpha(field33, 30.0).count == 3
    assert node_count_of_alpha(field33, 5.0).final


def test_bracket_search_gives_up_at_the_expansion_cap(field33, monkeypatch):
    monkeypatch.setattr(classify_module, "_EXPANSION_CAP", 1.5)
    with pytest.raises(BracketNotFound):
        find_alpha_k(field33, 0)


def test_a_jump_in_the_last_doubling_interval_is_bracketed(monkeypatch):
    # at (3, 4.921) the doubling passes the cap (1e4 * alpha_upper_star =
    # 35,884.7) at 58,793.4, which counts 3; the scipy reference of
    # perfbench/oracle.py counts 2 at 57,742.39 and 3 at 57,742.41
    field = FieldParams(3, 4.921)
    calls = _count_integrations(monkeypatch)
    counts = _CountCache(field, IntegratorControls())
    entries = [find_alpha_k(field, k, tol=1e-10, counts=counts) for k in range(3)]
    cap = classify_module._EXPANSION_CAP * field.alpha_upper_star
    assert max(calls) > cap
    assert (entries[2].nodes_lo, entries[2].nodes_hi) == (2, 3)
    assert 57742.39 <= entries[2].alpha_lo < entries[2].alpha_hi <= 57742.41


def test_bracket_tolerance_must_be_positive(field33):
    with pytest.raises(ValueError):
        find_alpha_k(field33, 0, tol=0.0)
    with pytest.raises(ValueError):
        find_alpha_k(field33, -1)


def test_first_zero_decreases_with_amplitude(field33):
    zs = [find_zeros(integrate(ProblemParams(field33, a)), "u")[0]
          for a in (5.0, 6.0, 8.0, 10.0, 15.0)]
    assert all(z is not None for z in zs)
    assert all(b < a for a, b in zip(zs, zs[1:]))


# (field, alpha_k, k): shots from alpha_k * (1 + 1e-9) carry k + 1 zeros
JUST_ABOVE_JUMPS = [
    (FieldParams(3, 3.0), ALPHA_33[0], 0),
    (FieldParams(3, 3.0), ALPHA_33[1], 1),
    (FieldParams(3, 3.0), ALPHA_33[2], 2),
    (FieldParams(3, 1.5), sum(BRACKET_3_15[0]) / 2, 0),
    (FieldParams(3, 1.5), sum(BRACKET_3_15[1]) / 2, 1),
    (FieldParams(4, 2.0), sum(BRACKET_42[0]) / 2, 0),
    (FieldParams(4, 2.0), sum(BRACKET_42[1]) / 2, 1),
]


@pytest.mark.parametrize("field, alpha_k, k", JUST_ABOVE_JUMPS)
def test_classify_shot_has_the_full_range_first_zero(field, alpha_k, k):
    alpha = alpha_k * (1.0 + 1e-9)
    sc = classify(field, alpha)
    assert sc.tag == OSCILLATORY and sc.node_count == k + 1
    full = integrate(ProblemParams(field, alpha), FULL_RANGE_POLICY)
    assert find_zeros(sc.trajectory, "u")[0].hex() == find_zeros(full, "u")[0].hex()


def test_retried_classify_shot_shares_a_first_zero_before_r_max(field33):
    # at r_max = 12 the shot has not decided by r_max, so classify retries at
    # r_max = 24; its first zero lies in the stretch both runs step alike
    alpha = ALPHA_33[1] * (1.0 + 1e-9)
    ctrl = IntegratorControls(r_max=12.0)
    sc = classify(field33, alpha, ctrl)
    assert sc.trajectory.params.controls.r_max == 24.0
    full = integrate(ProblemParams(field33, alpha, ctrl), FULL_RANGE_POLICY)
    assert find_zeros(sc.trajectory, "u")[0].hex() == find_zeros(full, "u")[0].hex()


def test_constant_shot_has_no_trajectory(field33):
    assert classify(field33, 1.0).trajectory is None
    assert classify(field33, 5.0).trajectory is not None


def _count_integrations(monkeypatch):
    """Record the height of every counted shot."""
    calls = []
    original = classify_module._counted_shot

    def counted(field, alpha, ctrl):
        calls.append(alpha)
        return original(field, alpha, ctrl)

    monkeypatch.setattr(classify_module, "_counted_shot", counted)
    return calls


def test_shared_count_cache_gives_the_same_brackets_with_fewer_shots(field33, monkeypatch):
    calls = _count_integrations(monkeypatch)
    fresh = [find_alpha_k(field33, k, tol=1e-8) for k in range(3)]
    fresh_calls = len(calls)
    calls.clear()
    counts = _CountCache(field33, IntegratorControls())
    shared = [find_alpha_k(field33, k, tol=1e-8, counts=counts) for k in range(3)]
    assert shared == fresh
    assert len(calls) == counts.integrated == len(counts.seen) < fresh_calls


def test_count_cache_for_another_field_or_controls_is_rejected(field33):
    with pytest.raises(ValueError):
        find_alpha_k(field33, 0, counts=_CountCache(FieldParams(3, 1.5), IntegratorControls()))
    with pytest.raises(ValueError):
        find_alpha_k(field33, 0, counts=_CountCache(field33, IntegratorControls(r_max=50.0)))
    # find_alpha_k's default controls are IntegratorControls()
    counts = _CountCache(field33, IntegratorControls())
    assert find_alpha_k(field33, 0, tol=1e-6, counts=counts).nodes_hi == 1


# --- predict-and-verify bracket search ---------------------------------------

def _plain_bracket(counts, k, tol):
    """Reference search: the doubling phase, then a count at every midpoint."""
    upper = counts.field.alpha_upper_star
    lo, hi = upper * (1.0 + 1e-6), 2.0 * upper
    while counts(hi) <= k:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if counts(mid) <= k:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _knot_blocks(states):
    """Index of the first knot of each block: knot 0, then each knot where u
    changes sign against the last nonzero u before it."""
    starts, prev = [0], states[0][0]
    for i, (u, _, _, _) in enumerate(states):
        if u != 0.0:
            if prev != 0.0 and (prev < 0.0) != (u < 0.0):
                starts.append(i)
            prev = u
    return starts


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(min_value=1, max_value=40),
       extra=st.integers(min_value=0, max_value=2), trapped=st.booleans())
def test_estimate_rows_are_the_rows_one_scan_per_row_picks(data, size, extra, trapped):
    # few distinct values, so that zeros of u and ties of |u| + |u'| are common
    us = data.draw(st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)),
                            min_size=size, max_size=size))
    ups = data.draw(st.lists(st.sampled_from((-1.0, 0.0, 0.25, 1.0)),
                             min_size=size, max_size=size))
    knots = [0.125 * i for i in range(size)]
    states = [(u, up, float(i), -float(i)) for i, (u, up) in enumerate(zip(us, ups))]
    # the knot where the energy trap fired, after the start, is not read
    read = size - 1 if trapped and size > 1 else size
    starts = _knot_blocks(states[:read])
    count = len(starts) - 1 + extra  # midpoints may show more sign changes than knots
    end = TerminationCause(ENERGY_NONPOSITIVE if trapped else REACHED_RMAX, knots[-1])
    rows = classify_module._estimate_rows(
        SimpleNamespace(knots=knots, knot_values=[list(col) for col in zip(*states)],
                        termination=end), count)
    assert len(rows) == 2
    for j, row in zip((count - 1, count), rows):  # the rows for alpha_(count-1), alpha_count
        if j < 0 or j >= len(starts):
            assert row is None
            continue
        best = min(range(starts[j], read), key=lambda i: abs(us[i]) + abs(ups[i]))
        assert row == (knots[best], *states[best])


SEARCH_POINTS = [((3, 3.0), 1e-10), ((3, 1.5), 1e-10), ((4, 2.0), 1e-10), ((5, 1.6), 1e-10),
                 ((3, 4.0), 1e-10), ((3, 3.0), 1e-12), ((3, 1.25), 1e-12), ((5, 2.2), 1e-10)]


@pytest.mark.parametrize("point, tol", SEARCH_POINTS)
def test_predicted_brackets_are_the_plain_bisection_brackets(point, tol):
    counts = _CountCache(FieldParams(*point), IntegratorControls())
    entries = [find_alpha_k(counts.field, k, tol=tol, counts=counts) for k in range(3)]
    assert counts.fallbacks == 0
    assert counts.skipped > 0
    assert counts.integrated == len(counts.seen)
    integrated = counts.integrated
    for k, entry in enumerate(entries):
        lo, hi = _plain_bracket(counts, k, tol)
        assert (entry.alpha_lo.hex(), entry.alpha_hi.hex()) == (lo.hex(), hi.hex())
    # the plain search needed heights the predicted one never integrated
    assert len(counts.seen) > integrated


def test_a_biased_estimate_falls_back_to_the_plain_bracket(field33, monkeypatch):
    original = classify_module._alpha_k_estimates

    def biased(field, alpha, rows):
        return tuple(e * (1.0 + 1e-3) for e in original(field, alpha, rows))

    monkeypatch.setattr(classify_module, "_alpha_k_estimates", biased)
    counts = _CountCache(field33, IntegratorControls())
    entry = find_alpha_k(field33, 0, tol=1e-10, counts=counts)
    assert counts.fallbacks == 1
    assert (entry.alpha_lo, entry.alpha_hi) == _plain_bracket(counts, 0, 1e-10)
    assert (entry.nodes_lo, entry.nodes_hi) == (0, 1)


def test_a_wrong_side_extrapolation_falls_back_to_the_plain_bracket(field33, monkeypatch):
    # each shot below alpha_k oversteps: its estimate of alpha_k takes 1.5
    # times the Newton step, which lands it on the far side of alpha_k
    original = classify_module._alpha_k_estimates

    def overshooting(field, alpha, rows):
        out = list(original(field, alpha, rows))
        out[-1] = alpha + 1.5 * (out[-1] - alpha)
        return tuple(out)

    monkeypatch.setattr(classify_module, "_alpha_k_estimates", overshooting)
    counts = _CountCache(field33, IntegratorControls())
    entry = find_alpha_k(field33, 0, tol=1e-10, counts=counts)
    assert any(counts.estimates[a][1] > entry.alpha_hi
               for a, c in counts.seen.items() if c == 0)
    assert counts.fallbacks == 1
    assert (entry.alpha_lo, entry.alpha_hi) == _plain_bracket(counts, 0, 1e-10)
    assert (entry.nodes_lo, entry.nodes_hi) == (0, 1)


def test_the_ladder_points_keep_their_integration_budget():
    # the five (n, p) points of perfbench's ladder workload, k = 0..2 at
    # tol 1e-10; counts are deterministic, so a wider margin shows here
    points = [(3, 3.0), (3, 1.5), (4, 2.0), (5, 1.6), (3, 4.0)]
    total = 0
    for point in points:
        counts = _CountCache(FieldParams(*point), IntegratorControls())
        for k in range(3):
            find_alpha_k(counts.field, k, tol=1e-10, counts=counts)
        assert counts.fallbacks == 0
        total += counts.integrated
    assert total <= 232


def test_a_non_monotone_count_never_yields_a_silent_bracket(field33, monkeypatch):
    # one zero too many on a window just below alpha_0: the real shots still
    # estimate alpha_0, so the guesses run into the window
    alpha_0 = ALPHA_33[0]
    window = (alpha_0 * (1.0 - 1e-6), alpha_0 * (1.0 - 1e-8))
    original = classify_module._counted_shot

    def faulty(field, alpha, ctrl):
        count, rows = original(field, alpha, ctrl)
        if window[0] < alpha < window[1]:
            # the knots show no extra sign change, so its estimate row is missing:
            # the row for alpha_count becomes the row for alpha_(count-1)
            count, rows = NodeCount(count.count + 1, count.final), (rows[1], None)
        return count, rows

    monkeypatch.setattr(classify_module, "_counted_shot", faulty)
    counts = _CountCache(field33, IntegratorControls())
    try:
        entry = find_alpha_k(field33, 0, tol=1e-10, counts=counts)
    except MonotonicityViolation:
        return
    assert counts.fallbacks == 1
    assert (entry.alpha_lo, entry.alpha_hi) == _plain_bracket(counts, 0, 1e-10)
