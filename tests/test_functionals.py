"""Functional-layer tests: pointwise values, probe policy, residuals, bridge."""

import dataclasses
import hashlib
import math
from struct import pack

import pytest

from boundstate_lab import (
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    State,
    detect_events,
    find_zeros,
    g1,
    integrate,
)
from boundstate_lab import find_alpha_k, functionals, verify
from boundstate_lab import field as field_module
from boundstate_lab.field import abs_pow, big_F, big_F_a, f, f_prime, g2, kappa_a
from boundstate_lab.functionals import (
    IDENTITY_NAMES,
    AuxSample,
    MissingEvents,
    ProbeUndefined,
    bridge_integral,
    eval_aux,
    identity_formula_residuals,
    identity_residuals,
    probe_radii,
)
from boundstate_lab.integrate import _rhs
from boundstate_lab.io import plain
from boundstate_lab.verify import truncate_for_structure

FL = FieldParams(3, 3.0)

# hand values at r=1, u=2, u'=-1, v=1, v'=3 for n=3, p=3
HAND_STATE = State(r=1.0, u=2.0, up=-1.0, v=1.0, vp=3.0)
HAND_AUX = {
    "E": 2.5, "E_hat": 2.5, "P": 3.0, "P1": 11.0, "P2": 3.0,
    "omega": 0.5, "rho": -29.0, "Q": 2.0, "Q1": 1.0, "Q2": 0.0,
    "Qn": -1.0, "M": -7.0, "T1": 7.25, "T2": 5.5, "B0": 6.0,
    "phi_n": -1.0, "varpi": -8.0,
}


def test_aux_sample_matches_hand_computation():
    aux = eval_aux(HAND_STATE, FL)
    for name, want in HAND_AUX.items():
        assert getattr(aux, name) == pytest.approx(want, rel=1e-14), name


def test_aux_sample_is_the_state_it_was_read_at():
    aux = eval_aux(HAND_STATE, FL)
    assert isinstance(aux, State)
    head = dataclasses.astuple(aux)[: len(dataclasses.fields(State))]
    assert pack("<5d", *head) == pack("<5d", *dataclasses.astuple(HAND_STATE))


def test_aux_sample_none_branches():
    at_zero_u = eval_aux(State(r=1.0, u=0.0, up=-1.0, v=1.0, vp=0.0), FL)
    assert at_zero_u.omega is None
    assert at_zero_u.T1 is None
    assert at_zero_u.T2 is None
    at_zero_up = eval_aux(State(r=1.0, u=2.0, up=0.0, v=1.0, vp=0.0), FL)
    assert at_zero_up.B0 is None
    assert at_zero_up.phi_n is None
    assert at_zero_up.varpi is None


def test_eval_aux_evaluates_the_well_once(monkeypatch):
    calls = []

    def counted(u, field, power=None):
        calls.append(u)
        return big_F(u, field, power)

    monkeypatch.setattr(functionals, "big_F", counted)
    aux = eval_aux(HAND_STATE, FL)
    assert calls == [HAND_STATE.u]
    assert aux.E == pytest.approx(HAND_AUX["E"], rel=1e-14)


def test_aux_sample_keeps_its_ingredients_out_of_the_schema():
    # the ingredients are fields that plain, repr and == skip, so a record
    # rebuilt from its schema alone equals the one eval_aux built
    aux = eval_aux(HAND_STATE, FL)
    ingredients = {"fu": f(2.0, FL), "fpu": f_prime(2.0, FL), "Fu": big_F(2.0, FL),
                   "upm1": abs_pow(2.0, 2.0), "upp1": abs_pow(2.0, 4.0), "rn": 1.0, "rn1": 1.0}
    for name, want in ingredients.items():
        assert pack("<d", getattr(aux, name)) == pack("<d", want), name
    declared = [fld for fld in dataclasses.fields(AuxSample) if fld.name in ingredients]
    assert [fld.name for fld in declared] == list(ingredients)
    assert all(not fld.repr and not fld.compare and fld.default is None for fld in declared)
    assert not set(ingredients) & set(functionals._AUX_COLUMNS)
    assert not set(ingredients) & set(plain(aux))
    schema = [fld.name for fld in dataclasses.fields(State)] + list(functionals._AUX_COLUMNS)
    assert list(plain(aux)) == schema
    assert aux == AuxSample(**plain(aux)) and repr(aux) == repr(AuxSample(**plain(aux)))


def test_parametric_family_interpolates_corrected_wronskians():
    aux = eval_aux(HAND_STATE, FL)
    family_w = functionals._IDENTITIES["family_w"][0]
    for a in (-1.0, 0.0, 0.75, 2.0):
        assert family_w(aux, FL, a) == pytest.approx(aux.Q - a * aux.M, rel=1e-14)
    # at a = g1(u) the family member coincides with T1
    assert g1(HAND_STATE.u, FL) == 0.75
    assert family_w(aux, FL, 0.75) == pytest.approx(aux.T1, rel=1e-14)


def _full_run(alpha, rmax=40.0):
    return integrate(ProblemParams(FL, alpha, IntegratorControls().with_rmax(rmax)),
                     FULL_RANGE_POLICY)


def test_probe_radii_respects_the_exclusion_moat(monkeypatch):
    traj = _full_run(5.0, rmax=20.0)
    zeros = find_zeros(traj, "u")
    probes = probe_radii(traj, 200, exclusion_radii=zeros)
    assert len(probes) > 100
    for z in zeros:
        assert all(abs(r - z) >= 0.05 for r in probes)
    monkeypatch.setattr(functionals, "_EXCLUSION_HALFWIDTH", 0.5)
    wide = probe_radii(traj, 200, exclusion_radii=zeros)
    for z in zeros:
        assert all(abs(r - z) >= 0.5 for r in wide)


def test_probe_radii_with_no_budget_or_no_span_is_empty():
    traj = _full_run(2.0, rmax=10.0)
    assert probe_radii(traj, 0) == []
    assert probe_radii(traj, 50, r_hi=traj.r_start) == []


def test_identity_residuals_are_small_on_a_free_shot():
    traj = _full_run(3.0)
    events = []
    for comp in ("u", "up", "v", "vp"):
        events.extend(find_zeros(traj, comp))
    probes = probe_radii(traj, 300, r_hi=traj.r_end * 0.99, exclusion_radii=events)
    report = identity_residuals(traj, probes)
    assert set(r.identity for r in report.residuals) == set(IDENTITY_NAMES)
    worst = report.worst()
    assert worst.max_rel_residual < 1e-6
    assert report.connection_rel_residual < 1e-9
    assert all(r.probes_used >= 50 for r in report.residuals)


def test_identity_residuals_test_each_distinct_guard_once_per_probe(monkeypatch):
    traj = _full_run(3.0, rmax=10.0)
    probes = probe_radii(traj, 60)
    full = identity_residuals(traj, probes)
    calls = []
    admits = functionals._admits

    def counted(state, field, guards):
        calls.append(guards)
        return admits(state, field, guards)

    monkeypatch.setattr(functionals, "_admits", counted)
    assert identity_residuals(traj, probes) == full
    # an identity without guards takes every record without a call
    distinct = {guards for _, _, guards in functionals._IDENTITIES.values()} - {()}
    assert ("u", "up") in distinct and len(calls) == len(probes) * len(distinct)
    assert () not in calls


def test_one_identity_check_takes_the_amplitudes_once_and_few_powers(monkeypatch):
    # every ingredient of a record is evaluated once, so a probe (two records,
    # five guards, 22 identities) takes at most 17 powers on this shot; 44 when
    # each side evaluated its own f, F, |u|**(p-1) and critical amplitudes
    evaluated = []  # the amplitudes computed, each on the first read of a FieldParams
    for name in ("alpha_star", "alpha_upper_star"):
        def counted_read(fl, name=name, read=vars(FieldParams)[name].fget):
            if getattr(fl, "_" + name) is None:  # not kept yet: this read computes it
                evaluated.append(name)
            return read(fl)

        monkeypatch.setattr(FieldParams, name, property(counted_read))
    fresh = ProblemParams(FieldParams(3, 3.0), 3.0, IntegratorControls().with_rmax(10.0))
    traj = integrate(fresh, FULL_RANGE_POLICY)
    probes = probe_radii(traj, 60)
    calls = []

    def counted(u, s):
        calls.append(s)
        return abs_pow(u, s)

    monkeypatch.setattr(field_module, "abs_pow", counted)
    monkeypatch.setattr(functionals, "abs_pow", counted)
    identity_residuals(traj, probes)
    assert sorted(evaluated) == ["alpha_star", "alpha_upper_star"]
    assert len(probes) == 60 and len(calls) <= 17 * len(probes)


def test_each_probe_reads_one_real_and_one_complex_record(monkeypatch):
    # the right sides, guards and connection read the record at r, and every
    # left side's derivative the one at r + i eta: two records per probe
    traj = _full_run(3.0, rmax=10.0)
    probes = probe_radii(traj, 60)
    radii = []

    def counted(state, field):
        radii.append(state.r)
        return eval_aux(state, field)

    monkeypatch.setattr(functionals, "eval_aux", counted)
    identity_residuals(traj, probes)
    assert len(radii) == 2 * len(probes)
    assert radii[0::2] == probes
    assert radii[1::2] == [complex(r, functionals._ETA) for r in probes]


def test_the_dense_output_read_at_a_complex_radius_gives_the_slope():
    # Im u(r + i eta) / eta is the derivative of u's interpolant, which agrees
    # with the interpolated u' at the tolerance level of the shot's slope scale
    # (at most 63 times it here, near the origin where the steps are longest)
    traj = _full_run(3.0, rmax=20.0)
    ctrl = traj.params.controls
    allowed = 100.0 * (ctrl.abs_tol + ctrl.rel_tol * max(map(abs, traj.knot_values[1])))
    eta = 1e-30  # no difference is taken, so any eta this small reads the same slope
    for r in probe_radii(traj, 200):
        want = traj.eval_dense(r).up
        got = traj.eval_dense(complex(r, eta)).u.imag / eta
        assert abs(got - want) <= allowed, r


def test_the_shallow_k2_bracket_ledger_reads_below_5e_8():
    # the (3, 1.25) k = 2 bracket-midpoint shot of `verify --preset core`, on
    # the probes the identity check places: a difference stencil's own error
    # put its worst residual at 1.5e-7 to 2.5e-7
    case = verify.CaseSpec(FieldParams(3, 1.25), verify.BOUND_BRACKET, k=2)
    plan = verify.VerificationPlan(cases=(case,), checks=("identity_residuals",))
    report = verify.run_checks(plan)
    assert [rec.status for rec in report.records] == [verify.PASS]
    struct = verify._prepare(case, plan, verify._bracket(case, plan, {})).struct
    ledger = identity_residuals(struct, verify._identity_probes(struct))
    assert ledger.worst().max_rel_residual < 5e-8


def test_out_of_range_probes_are_refused():
    traj = _full_run(2.0, rmax=10.0)
    with pytest.raises(ProbeUndefined):
        identity_residuals(traj, [traj.r_end + 1.0])


def test_guarded_probes_leave_the_identity_unmeasured():
    # u' == 0 everywhere on the constant shot, so every probe fails the
    # u'-guard of the barrier identity, which is recorded as unmeasured
    traj = integrate(ProblemParams(FL, 1.0, IntegratorControls().with_rmax(10.0)),
                     FULL_RANGE_POLICY)
    probes = probe_radii(traj, 50)
    report = identity_residuals(traj, probes)
    by_name = {rec.identity: rec for rec in report.residuals}
    assert by_name["barrier_b0"].probes_used == 0


def test_constant_shot_reports_its_trivial_identities_as_undefined():
    # u = 1 and u' = 0 exactly, so the identities in u alone read 0 = 0 up to
    # roundoff, and a relative residual there is roundoff over roundoff.
    # The identities that carry v still have something to measure.
    traj = integrate(ProblemParams(FieldParams(3, 1.25), 1.0), FULL_RANGE_POLICY)
    events = []
    for comp in ("v", "vp"):
        events.extend(find_zeros(traj, comp))
    probes = probe_radii(traj, 500, r_hi=40.0, exclusion_radii=events)
    report = identity_residuals(traj, probes)
    by_name = {rec.identity: rec for rec in report.residuals}
    for name in ("energy", "pohozaev_scaled", "pohozaev_p2", "log_slope", "flux_u"):
        assert by_name[name].probes_used == 0
    for name in ("energy_layer", "pohozaev", "wronskian_m", "flux_v"):
        assert by_name[name].probes_used > 400
    assert report.worst().max_rel_residual < 1e-6


# sha256 of repr(list of IdentityReport) that the identity_residuals check of
# `verify --preset core` makes on its six cases: every identity's probe count,
# residual and scale, and the connection residual, to the last bit.  The
# verify report digests carry only each record's worst margin.
GOLDEN_LEDGER = [
    ("3", "cc3c957c5818b6d0db1836531d225836c659bb5df1ddf33418aebe7c90063f3d"),
    ("1.25", "54edbfef5ed7bea41f4c7e59dcc63e55aae65402dd96b3b29f1131c018bd6551"),
]
# Each case keeps the id it was first collected under, which shows the digest
# first recorded for it (the DOP853 march and the complex-step ledger each
# re-recorded both).
LEDGER_IDS = [
    "3-24cba1f9fec1709e0240e1dc2682e964fcdbc60d6b1767073a861e178983d7f7",
    "1.25-02e73562dcd6d9f938a28e725ed79329252a5ea5a1ebbb2b2df19549080dd614",
]


def _core_ledger_inputs(field, bracket_tol):
    """(trajectory, probes) of each case of `verify --preset core` at ``field``:
    the prepared structural shot and the probe radii the identity check places
    on it, the cases prepared in plan order sharing one count cache, as
    run_checks prepares them."""
    plan = verify.VerificationPlan(cases=verify.default_cases(field, "core"),
                                   checks=("identity_residuals",), bracket_tol=bracket_tol)
    counts = {}
    inputs = []
    for case in plan.cases:
        prep = verify._prepare(case, plan, verify._bracket(case, plan, counts))
        assert prep.gate_note == ""
        inputs.append((prep.struct, verify._identity_probes(prep.struct)))
    return inputs


@pytest.mark.parametrize("p, digest", GOLDEN_LEDGER, ids=LEDGER_IDS)
def test_the_core_identity_ledger_matches_the_recorded_digest(p, digest):
    # the CLI's bracket tolerance, 1e-10, and default controls
    inputs = _core_ledger_inputs(FieldParams(3, float(p)), bracket_tol=1e-10)
    reports = [identity_residuals(traj, probes) for traj, probes in inputs]
    assert len(reports) == 6 and all(len(probes) >= 10 for _, probes in inputs)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == digest


def _reference_identity_residuals(traj, probes):
    """The per-probe loop identity_residuals replaced: for every probe, each
    identity updates its probe count, running residual and running scale.  A
    NaN residual, once met, stays."""
    field, a = traj.params.field, functionals._FAMILY_A
    names = list(functionals._IDENTITIES)
    accs = {name: [0, 0.0, 0.0] for name in names}
    checks = [(*functionals._IDENTITIES[name], accs[name]) for name in names]
    guard_sets = {guards for _, _, guards, _ in checks} | {("u", "up")}
    conn_worst = 0.0
    for r in probes:
        if not traj.r_start < r < traj.r_end:
            raise ProbeUndefined(f"probe {r} outside trajectory range")
        x = eval_aux(traj.eval_dense(r), field)
        z = eval_aux(traj.eval_dense(complex(r, functionals._ETA)), field)
        admitted = {guards: functionals._admits(x, field, guards) for guards in guard_sets}
        for lhs, rhs, guards, acc in checks:
            if not admitted[guards]:
                continue
            d = lhs(z, field, a).imag / functionals._ETA
            want = rhs(x, field, a)
            res, scale = abs(d - want), abs(d)
            if abs(want) > scale:
                scale = abs(want)
            acc[0] += 1
            if acc[0] == 1 or res > acc[1] or math.isnan(res):
                acc[1] = res
            if acc[0] == 1 or scale > acc[2]:
                acc[2] = scale
        if not admitted["u", "up"]:
            continue
        pv_u = x.P * x.v / x.u
        rel = abs(x.Q - pv_u - x.omega * (x.M - x.varpi))
        rel /= abs(x.Q) + abs(pv_u) + 1e-30
        if rel > conn_worst or math.isnan(rel):
            conn_worst = rel
    resolution = traj.params.controls.abs_tol
    recs = []
    for name in names:
        used, res, scale = accs[name]
        if scale < resolution and not math.isnan(res):
            used, res, scale = 0, 0.0, 0.0
        recs.append(functionals.IdentityResidual(name, used, res, scale))
    return functionals.IdentityReport(tuple(recs), conn_worst)


@pytest.fixture(scope="module")
def core_ledger_calls():
    """(trajectory, probes) of every identity check of `verify --preset core`
    at (3, 3) and (3, 1.25), at the plan's default bracket tolerance."""
    calls = [call for fl in (FieldParams(3, 3.0), FieldParams(3, 1.25))
             for call in _core_ledger_inputs(fl, bracket_tol=1e-12)]
    assert len(calls) == 12
    return calls


def test_the_ledger_reads_as_the_per_probe_loop_on_every_core_case(core_ledger_calls):
    # repr: the same bits in every field of every record
    for traj, probes in core_ledger_calls:
        got = identity_residuals(traj, probes)
        assert repr(got) == repr(_reference_identity_residuals(traj, probes))


@pytest.mark.parametrize("side", [0, 1])  # left, right
@pytest.mark.parametrize("at", [0, 7, -1])  # the probe that reads NaN
def test_a_nan_side_reads_as_the_per_probe_loop(monkeypatch, core_ledger_calls, side, at):
    # a NaN met at any probe, first or not, makes its identity's residual NaN,
    # in the ledger as in the loop, and fails the identity check; the builtin
    # max kept a NaN only when it came first
    traj, probes = core_ledger_calls[2]  # (3, 3) alpha = 5
    nan = complex(math.nan, math.nan) if side == 0 else math.nan  # the left side's .imag
    for name in ("energy", "corrected_t1"):  # unguarded and guarded by u
        sides = list(functionals._IDENTITIES[name])
        fn = sides[side]
        sides[side] = lambda x, fl, a, fn=fn: nan if x.r.real == probes[at] else fn(x, fl, a)
        monkeypatch.setitem(functionals._IDENTITIES, name, tuple(sides))
    got = identity_residuals(traj, probes)
    assert repr(got) == repr(_reference_identity_residuals(traj, probes))
    assert got.residuals[0].identity == "energy" and math.isnan(got.residuals[0].max_abs_residual)
    assert math.isnan(got.worst().max_rel_residual)
    case = verify.CaseSpec(FL, verify.OSCILLATORY_CASE, alpha=5.0)
    plan = verify.VerificationPlan(cases=(case,), checks=("identity_residuals",))
    assert verify._identity_probes(verify._prepare(case, plan, None).struct) == probes
    (rec,) = verify.run_checks(plan).records
    assert rec.status == verify.FAIL and math.isnan(rec.margin)
    assert rec.notes.startswith("worst energy: nan; ")


def test_a_side_that_raises_reaches_run_checks_as_from_the_per_probe_loop(monkeypatch):
    # a right side that raises on its fifth call stops the ledger where it stops
    # the per-probe loop, on the shot and probes of the identity check, and
    # run_checks records the check's failure
    lhs, rhs, guards = functionals._IDENTITIES["pairing_q"]
    seen = []

    def failing(x, fl, a):
        seen.append(x.r)
        if len(seen) == 5:
            raise ZeroDivisionError(f"side fails at r={x.r!r}")
        return rhs(x, fl, a)

    monkeypatch.setitem(functionals._IDENTITIES, "pairing_q", (lhs, failing, guards))
    case = verify.CaseSpec(FL, verify.OSCILLATORY_CASE, alpha=5.0)
    plan = verify.VerificationPlan(cases=(case,), checks=("identity_residuals",))
    struct = verify._prepare(case, plan, None).struct
    probes = verify._identity_probes(struct)
    with pytest.raises(ZeroDivisionError) as got:
        identity_residuals(struct, probes)
    at = seen[4]
    seen.clear()
    with pytest.raises(ZeroDivisionError) as want:
        _reference_identity_residuals(struct, probes)
    assert seen[4] == at and str(got.value) == str(want.value)
    seen.clear()
    (rec,) = verify.run_checks(plan).records
    assert rec.status == verify.FAIL and rec.margin is None
    assert rec.notes == f"check raised: side fails at r={seen[4]!r}"


def test_bridge_integral_empty_range_is_flagged():
    traj = _full_run(3.0, rmax=10.0)
    out = bridge_integral(traj, 2.0, 1.5, 1.0)
    assert out.empty_range
    assert out.value == 0.0


def test_bridge_integral_needs_finite_events_and_height():
    traj = _full_run(3.0, rmax=10.0)
    with pytest.raises(MissingEvents):
        bridge_integral(traj, float("nan"), 2.0, 1.0)
    with pytest.raises(MissingEvents):
        bridge_integral(traj, 1.0, 2.0, 0.0)


def test_bridge_integral_positive_on_the_shallow_ground_case():
    # at p = 1.2 the first variation zero lands past b_1, so the range is
    # nonempty; value frozen from a converged quadrature of the same run
    fl = FieldParams(3, 1.2)
    entry = find_alpha_k(fl, 0, tol=1e-12)
    full = integrate(ProblemParams(fl, entry.midpoint), FULL_RANGE_POLICY)
    struct = truncate_for_structure(full)
    portrait = detect_events(struct)
    b1 = portrait.phases[0].b.r
    tau1 = portrait.zeros_v[0].r
    assert tau1 > b1
    u_tilde = abs(struct.eval_dense(b1).u)
    out = bridge_integral(struct, b1, tau1, u_tilde)
    assert not out.empty_range
    assert out.value > 0.0
    assert out.value == pytest.approx(5.533309580e-03, rel=1e-6)
    assert out.error_estimate < 1e-12


# The identity registry as it stood when each side wrote out its own
# functionals, one closure per side; kept as a reference for the bits.
def _reference_table():
    def _E(s, fl, a):
        return 0.5 * s.up**2 + big_F(s.u, fl)

    def _E_rhs(s, fl, a):
        return -(fl.n - 1) * s.up**2 / s.r

    def _Ehat(s, fl, a):
        return s.r ** (2 * (fl.n - 1)) * _E(s, fl, a)

    def _Ehat_rhs(s, fl, a):
        return 2.0 * (fl.n - 1) * s.r ** (2 * fl.n - 3) * big_F(s.u, fl)

    def _P(s, fl, a):
        return 2.0 * s.r**fl.n * _E(s, fl, a) + (fl.n - 2) * s.r ** (fl.n - 1) * s.u * s.up

    def _P_rhs(s, fl, a):
        n = fl.n
        return s.r ** (n - 1) * (2.0 * n * big_F(s.u, fl) - (n - 2) * s.u * f(s.u, fl))

    def _P_rhs_crit(s, fl, a):
        upper = ((fl.p + 1.0) * 2.0 / ((fl.n + 2.0) - fl.p * (fl.n - 2.0))) ** (1.0 / (fl.p - 1.0))
        return 2.0 * s.r ** (fl.n - 1) * s.u**2 * (abs_pow(s.u / upper, fl.p - 1.0) - 1.0)

    def _P1(s, fl, a):
        n = fl.n
        return s.r**n * (s.up**2 + s.u * f(s.u, fl)) + (n - 2) * s.r ** (n - 1) * s.u * s.up

    def _P2(s, fl, a):
        n = fl.n
        return s.r**n * (s.up**2 + (n - 2) / n * s.u * f(s.u, fl)) + (n - 2) * s.r ** (n - 1) * s.u * s.up

    def _P2_rhs(s, fl, a):
        n, p = fl.n, fl.p
        star = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))
        upper = ((p + 1.0) * 2.0 / ((n + 2.0) - p * (n - 2.0))) ** (1.0 / (p - 1.0))
        return -(4.0 / n) * s.r**n * s.u * s.up * (abs_pow(star * s.u / upper, p - 1.0) - 1.0)

    def _P_over_rn(s, fl, a):
        return _P(s, fl, a) / s.r**fl.n

    def _P_over_rn_rhs(s, fl, a):
        return -fl.n / s.r ** (fl.n + 1) * _P2(s, fl, a)

    def _omega(s, fl, a):
        return -s.r * s.up / s.u

    def _omega_rhs(s, fl, a):
        return _P1(s, fl, a) / (s.r ** (fl.n - 1) * s.u**2)

    def _what(s, fl, a):
        return -s.up / s.u

    def _what_rhs(s, fl, a):
        w = -s.up / s.u
        return w * w - (fl.n - 1) / s.r * w - 1.0 + abs_pow(s.u, fl.p - 1.0)

    def _rho(s, fl, a):
        return s.r ** (fl.n - 1) * (f_prime(s.u, fl) * s.up * s.v - f(s.u, fl) * s.vp)

    def _rho_rhs(s, fl, a):
        p = fl.p
        return p * (p - 1.0) * s.r ** (fl.n - 1) * math.copysign(abs_pow(s.u, p - 2.0), s.u) * s.up**2 * s.v

    def _Q(s, fl, a):
        n = fl.n
        return s.r**n * (s.up * s.vp + f(s.u, fl) * s.v) + (n - 2) * s.r ** (n - 1) * s.up * s.v

    def _Q_rhs(s, fl, a):
        return 2.0 * s.r ** (fl.n - 1) * f(s.u, fl) * s.v

    def _M(s, fl, a):
        return s.r ** (fl.n - 1) * (s.up * s.v - s.u * s.vp)

    def _M_rhs(s, fl, a):
        p = fl.p
        return (p - 1.0) * s.r ** (fl.n - 1) * s.u * abs_pow(s.u, p - 1.0) * s.v

    def _W(s, fl, a):
        return _Q(s, fl, a) - a * _M(s, fl, a)

    def _W_rhs(s, fl, a):
        return 2.0 * s.r ** (fl.n - 1) * s.u * s.v * kappa_a(s.u, a, fl)

    def _T1(s, fl, a):
        return _Q(s, fl, a) - g1(s.u, fl) * _M(s, fl, a)

    def _T1_rhs(s, fl, a):
        return -2.0 * s.u * s.up / abs_pow(s.u, fl.p + 1.0) * _M(s, fl, a)

    def _T2(s, fl, a):
        return _Q(s, fl, a) - g2(s.u, fl) * _M(s, fl, a)

    def _T2_rhs(s, fl, a):
        p = fl.p
        lead = (p - 1.0) * s.r ** (fl.n - 1) * s.u * s.v
        return lead - (p + 1.0) * s.u * s.up / abs_pow(s.u, p + 1.0) * _M(s, fl, a)

    def _varpi(s, fl, a):
        p = fl.p
        return (p - 1.0) / (p + 1.0) * s.r ** (fl.n - 1) * (s.v / s.up) * abs_pow(s.u, p + 1.0)

    def _T2_rhs_tail(s, fl, a):
        p = fl.p
        return -(p + 1.0) * s.u * s.up / abs_pow(s.u, p + 1.0) * (_M(s, fl, a) - _varpi(s, fl, a))

    def _B0(s, fl, a):
        return _Q(s, fl, a) - 2.0 * big_F(s.u, fl) * s.r ** (fl.n - 1) * s.v / s.up

    def _phi(s, fl, a):
        Qn = _Q(s, fl, a) + fl.n * s.r ** (fl.n - 1) * s.up * s.v
        return Qn / (s.r * s.up**2)

    def _B0_rhs(s, fl, a):
        return -2.0 * big_F(s.u, fl) * _phi(s, fl, a)

    def _Ba(s, fl, a):
        return _W(s, fl, a) - 2.0 * big_F_a(s.u, a, fl) * s.r ** (fl.n - 1) * s.v / s.up

    def _Ba_rhs(s, fl, a):
        return -2.0 * big_F_a(s.u, a, fl) * _phi(s, fl, a)

    def _rnu(s, fl, a):
        return s.r ** (fl.n - 1) * s.up

    def _rnu_rhs(s, fl, a):
        return -s.r ** (fl.n - 1) * f(s.u, fl)

    def _rnv(s, fl, a):
        return s.r ** (fl.n - 1) * s.vp

    def _rnv_rhs(s, fl, a):
        return -s.r ** (fl.n - 1) * f_prime(s.u, fl) * s.v

    def _pair(s, fl, a):
        return s.up * s.vp + f(s.u, fl) * s.v

    def _pair_rhs(s, fl, a):
        return -2.0 * (fl.n - 1) / s.r * s.up * s.vp

    def _qslope(s, fl, a):
        return _Q(s, fl, a) / (s.r ** (fl.n - 1) * s.up)

    def _qslope_rhs(s, fl, a):
        Q2 = _Q(s, fl, a) + 2.0 * s.r ** (fl.n - 1) * s.up * s.v
        return f(s.u, fl) * Q2 / (s.r ** (fl.n - 1) * s.up**2)

    def _vslope(s, fl, a):
        return s.r ** (fl.n - 1) * s.v / s.up

    return {
        "energy": (_E, _E_rhs, ()),
        "energy_layer": (_Ehat, _Ehat_rhs, ()),
        "pohozaev": (_P, _P_rhs, ()),
        "pohozaev_crit": (_P, _P_rhs_crit, ()),
        "pohozaev_p2": (_P2, _P2_rhs, ()),
        "pohozaev_scaled": (_P_over_rn, _P_over_rn_rhs, ("r",)),
        "log_slope": (_omega, _omega_rhs, ("u",)),
        "riccati": (_what, _what_rhs, ("u",)),
        "pairing_rho": (_rho, _rho_rhs, ("u",)),
        "pairing_q": (_Q, _Q_rhs, ()),
        "wronskian_m": (_M, _M_rhs, ()),
        "family_w": (_W, _W_rhs, ()),
        "corrected_t1": (_T1, _T1_rhs, ("u",)),
        "corrected_t2": (_T2, _T2_rhs, ("u",)),
        "corrected_t2_tail": (_T2, _T2_rhs_tail, ("u", "up")),
        "barrier_b0": (_B0, _B0_rhs, ("up",)),
        "barrier_ba": (_Ba, _Ba_rhs, ("up",)),
        "flux_u": (_rnu, _rnu_rhs, ()),
        "flux_v": (_rnv, _rnv_rhs, ()),
        "pair_product": (_pair, _pair_rhs, ()),
        "q_slope": (_qslope, _qslope_rhs, ("up",)),
        "v_slope": (_vslope, _phi, ("up",)),
    }



# Sides that now read eval_aux's up*up and (r*up)*up where the reference
# squares with up**2: equal up to roundoff, not bit for bit.
_RESPELLED_SIDES = {
    ("energy", 0), ("energy_layer", 0), ("pohozaev", 0), ("pohozaev_crit", 0),
    ("pohozaev_p2", 0), ("pohozaev_scaled", 0), ("pohozaev_scaled", 1),
    ("log_slope", 1), ("barrier_b0", 1), ("barrier_ba", 1), ("v_slope", 1),
}


@pytest.mark.parametrize("field, alpha", [
    (FieldParams(3, 3.0), 5.0),
    (FieldParams(3, 1.25), 10.0),
    (FieldParams(4, 2.0), 15.0),
    (FieldParams(5, 1.6), 30.0),
])
def test_registry_sides_match_the_reference_table(field, alpha):
    controls = IntegratorControls().with_rmax(40.0)
    traj = integrate(ProblemParams(field, alpha, controls), FULL_RANGE_POLICY)
    assert find_zeros(traj, "u")  # the shot crosses zero, so u changes sign
    reference = _reference_table()
    assert set(reference) == set(IDENTITY_NAMES)
    knots = 0
    for i in range(len(traj.knots)):
        s = traj.state_at_knot(i)
        if s.u == 0.0 or s.up == 0.0:
            continue
        knots += 1
        aux = eval_aux(s, field)
        for name, (lhs, rhs, _) in functionals._IDENTITIES.items():
            sides = zip((lhs, rhs), reference[name][:2])
            for side, (new, old) in enumerate(sides):
                for a in (1.0, 0.3):
                    got, want = new(aux, field, a), old(s, field, a)
                    if (name, side) in _RESPELLED_SIDES:
                        assert abs(got - want) <= 1e-15 * abs(want), (name, side, s)
                    else:
                        assert got == want, (name, side, s)
    assert knots > 100


def test_the_identity_formulas_read_roundoff_on_every_core_case(core_ledger_calls):
    # along the exact flow through the dense state only roundoff remains, at
    # every probe of every core case, far below the march's part the ledger reads
    for traj, probes in core_ledger_calls:
        formulas = identity_formula_residuals(traj, probes)
        assert [rec.identity for rec in formulas.residuals] == list(IDENTITY_NAMES)
        assert formulas.worst().max_rel_residual < verify._FORMULA_LIMIT
        assert formulas.connection_rel_residual < verify._FORMULA_LIMIT
    traj, probes = core_ledger_calls[2]  # (3, 3) alpha = 5
    assert identity_residuals(traj, probes).worst().max_rel_residual > 1e-8
    assert identity_formula_residuals(traj, probes).worst().max_rel_residual < 1e-13


def test_the_formula_check_steps_along_the_radial_system(monkeypatch):
    # each probe reads the real dense state at r and the state y + i eta F(y)
    # at r + i eta, F being integrate._rhs
    traj = _full_run(3.0, rmax=10.0)
    probes = probe_radii(traj, 20)
    states = []
    monkeypatch.setattr(functionals, "eval_aux",
                        lambda state, field: states.append(state) or eval_aux(state, field))
    identity_formula_residuals(traj, probes)
    assert len(states) == 2 * len(probes)
    for r, x, z in zip(probes, states[0::2], states[1::2]):
        assert x == traj.eval_dense(r)
        y = (x.u, x.up, x.v, x.vp)
        slopes = _rhs(FL, r, y)
        assert z == State(complex(r, functionals._ETA),
                          *(complex(yc, functionals._ETA * fc) for yc, fc in zip(y, slopes)))


def test_the_formula_check_refuses_out_of_range_probes():
    traj = _full_run(2.0, rmax=10.0)
    with pytest.raises(ProbeUndefined):
        identity_formula_residuals(traj, [traj.r_end + 1.0])


def test_the_constant_shot_leaves_its_formulas_in_u_alone_undefined():
    # u = 1 and u' = 0 exactly, so u'' = 0 and the identities in u alone read
    # 0 = 0 exactly; those that carry v are measured
    traj = integrate(ProblemParams(FieldParams(3, 1.25), 1.0), FULL_RANGE_POLICY)
    report = identity_formula_residuals(traj, probe_radii(traj, 16, r_hi=40.0))
    by_name = {rec.identity: rec for rec in report.residuals}
    for name in ("energy", "pohozaev_scaled", "pohozaev_p2", "log_slope", "flux_u"):
        assert by_name[name] == functionals.IdentityResidual(name, 0, 0.0, 0.0)
    for name in ("energy_layer", "pohozaev", "wronskian_m", "flux_v"):
        assert by_name[name].probes_used == 16
    assert report.worst().max_rel_residual < verify._FORMULA_LIMIT


@pytest.mark.parametrize("field, alpha", [
    (FieldParams(3, 3.0), 5.0), (FieldParams(3, 1.25), 1.0), (FieldParams(5, 1.6), 30.0),
])
def test_a_complex_read_holds_the_real_read_in_its_real_part(field, alpha):
    # identity_residuals reads each probe once, at r + i eta, and takes the
    # real state from the real part: bit for bit the real read, at every knot,
    # every segment midpoint and every probe
    traj = integrate(ProblemParams(field, alpha, IntegratorControls().with_rmax(40.0)),
                     FULL_RANGE_POLICY)
    radii = [*traj.grid[1:-1], *probe_radii(traj, 500)]
    for r in radii:
        x, z = traj.eval_dense(r), traj.eval_dense(complex(r, functionals._ETA))
        assert pack("<4d", x.u, x.up, x.v, x.vp) == pack(
            "<4d", z.u.real, z.up.real, z.v.real, z.vp.real), r
