"""The band checks on plain floats against the ``numpy.all`` path they replace.

``require_credence``, ``credence_from_prior`` and ``nu_value`` test their
bands with chained comparisons on floats.  The references here are the
former checks, written out: ``bool(numpy.all(...))`` over the ``&`` of the
two comparisons, then the same arithmetic.  Draws are plain floats and
``numpy.float64`` (a float subclass), often outside the band, exactly on a
margin or not finite, so any input on which the two differ, in value or in
error type, shows up as a mismatch.  A bad tolerance is refused with a
``RangeViolation`` by every public function that takes one, and a value
that is not a number by the calls that used to compare it unchecked; so
are a credence that is no finite number, by the membership tests, and a
grid of more points than the oracles' cap.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from rumorcast import (
    AgentProfile,
    ChatroomGame,
    DomainError,
    EvidenceRelation,
    GridSpec,
    OrderedTree,
    PeerDistanceProfile,
    RangeViolation,
    ReceiverAction,
    ReceiverSpec,
    RumorcastError,
    SecondOrderBelief,
    SupportInterval,
    TreeProfiles,
    TypeSet,
    best_actions,
    decide_send,
    eligible_actions,
    expected_send_gain,
    lambda_star,
    min_lambda_for_action,
    nu_breakpoints,
    oracle_best_actions,
    oracle_chatroom_profiles,
    oracle_global,
    oracle_min_lambda,
    oracle_support_points,
    reach_by_root,
    scenario_diagnostics,
    solve_chatroom,
    solve_global,
    support_interval,
    undirected_closure,
    utility,
    worldview_posterior,
    worldview_prior,
)
from rumorcast import oracle
from rumorcast.belief import EPS, credence_from_prior, require_credence, validate_evidence
from rumorcast.network import root_summaries, sweep_lambda
from rumorcast.sender import nu_value

DRAWS = 600
FORMS = ("float", "float64")


def _ref_require_credence(theta, mu, tol):
    if not bool(np.all((theta > mu.mu_given_not_c + tol) & (theta < mu.mu_given_c - tol))):
        raise DomainError("off the band")
    return theta


def _ref_credence_from_prior(prior, mu, tol):
    if not bool(np.all((prior > tol) & (prior < 1.0 - tol))):
        raise RangeViolation("off (0, 1)")
    return mu.mu_given_not_c + prior * mu.spread


def _ref_nu_value(x, own_prior, mu, tol):
    if not bool(np.all((own_prior > tol) & (own_prior < 1.0 - tol))):
        raise RangeViolation("own prior off (0, 1)")
    prior = (_ref_require_credence(x, mu, tol) - mu.mu_given_not_c) / mu.spread
    post = mu.mu_given_c * prior / x
    return abs(own_prior - prior) - abs(own_prior - post)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the error type is part of the contract
        return "error", type(exc)


def _same(new, ref) -> bool:
    if new[0] != ref[0]:
        return False
    if new[0] == "error":
        return new[1] is ref[1]
    a, b = new[1], ref[1]
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


def _scalar(rng, lo: float, hi: float, tol: float) -> float:
    """Mostly inside ``(lo, hi)``; often outside, exactly on a margin or not finite."""
    kind = rng.integers(8)
    if kind <= 3:
        return float(rng.uniform(lo, hi))
    if kind == 4:
        return float(rng.uniform(-0.2, 1.2))
    if kind == 5:
        return float(rng.choice([lo + tol, hi - tol, lo, hi]))
    if kind == 6:
        return float(rng.choice([math.nan, math.inf, -math.inf]))
    return float(rng.uniform(lo + tol, lo + 3 * tol))


def _shape(rng, form: str, lo: float, hi: float, tol: float) -> float:
    x = _scalar(rng, lo, hi, tol)
    return np.float64(x) if form == "float64" else x


def _evidence(rng):
    b = float(rng.uniform(0.01, 0.45))
    a = float(rng.uniform(b + 0.02, 0.99))
    return validate_evidence(a, b)


def _tol(rng) -> float:
    return float(rng.choice([EPS, 0.0, 1e-3]))


def _check(fn, ref, *args) -> str:
    """Compare the function with its reference on one input; return "value" or "error"."""
    new, want = _outcome(fn, *args), _outcome(ref, *args)
    assert _same(new, want), (fn.__name__, args, new, want)
    return new[0]


@pytest.mark.parametrize("form", FORMS)
def test_require_credence_matches_numpy_path(form):
    rng = np.random.default_rng(601)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        theta = _shape(rng, form, mu.mu_given_not_c, mu.mu_given_c, tol)
        outcomes.add(_check(require_credence, _ref_require_credence, theta, mu, tol))
    assert outcomes == {"value", "error"}


@pytest.mark.parametrize("form", FORMS)
def test_credence_from_prior_matches_numpy_path(form):
    rng = np.random.default_rng(602)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        prior = _shape(rng, form, 0.0, 1.0, tol)
        outcomes.add(_check(credence_from_prior, _ref_credence_from_prior, prior, mu, tol))
    assert outcomes == {"value", "error"}


@pytest.mark.parametrize("form", FORMS)
def test_nu_value_matches_numpy_path(form):
    rng = np.random.default_rng(603)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        x = _shape(rng, form, mu.mu_given_not_c, mu.mu_given_c, tol)
        # the own prior takes either form too, against a receiver of each form
        own = _shape(rng, FORMS[int(rng.integers(2))], 0.0, 1.0, tol)
        outcomes.add(_check(nu_value, _ref_nu_value, x, own, mu, tol))
    assert outcomes == {"value", "error"}


_MU = validate_evidence(0.9, 0.1)
_D = PeerDistanceProfile.from_dirac(0.1)
_BELIEF = SecondOrderBelief.dirac([0.3, 0.6])
_GAME = ChatroomGame(
    "s",
    TypeSet.singleton(0.7),
    (ReceiverSpec("r", TypeSet.singleton(0.4), 1.0, SecondOrderBelief.dirac([0.7])),),
)
_TREE = OrderedTree.from_edges("s", [("s", "r")])
_PROFILES = TreeProfiles(
    _TREE, {"s": AgentProfile(TypeSet.singleton(0.7), 1.0), "r": AgentProfile(TypeSet.singleton(0.4), 1.0)}
)
_GRAPH = undirected_closure(_TREE)
_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "canonical_cascade.json"
#: every public function that takes a tolerance, called with ``tol``
_FRONTS = {
    "TypeSet.contains": lambda tol: TypeSet.singleton(0.4).contains(0.4, tol),
    "SupportInterval.contains": lambda tol: support_interval(ReceiverAction.DISAPPROVE, _D, 1.0).contains(0.1, tol),
    "PeerDistanceProfile.strict_min_action": lambda tol: _D.strict_min_action(tol),
    "require_credence": lambda tol: require_credence(0.5, _MU, tol),
    "worldview_prior": lambda tol: worldview_prior(0.5, _MU, tol),
    "worldview_posterior": lambda tol: worldview_posterior(0.5, _MU, tol),
    "credence_from_prior": lambda tol: credence_from_prior(0.5, _MU, tol),
    "best_actions": lambda tol: best_actions(0.4, _D, 1.0, tol),
    "min_lambda_for_action": lambda tol: min_lambda_for_action(0.4, _D, ReceiverAction.DISAPPROVE, tol),
    "lambda_star": lambda tol: lambda_star(_D, tol),
    "eligible_actions": lambda tol: eligible_actions(TypeSet.singleton(0.4), _BELIEF, 1.0, tol),
    "solve_chatroom": lambda tol: solve_chatroom(_GAME, tol),
    "solve_global": lambda tol: solve_global(_TREE, _PROFILES, _MU, tol),
    "nu_value": lambda tol: nu_value(0.5, 0.5, _MU, tol),
    "nu_breakpoints": lambda tol: nu_breakpoints(0.5, _MU, tol),
    "expected_send_gain": lambda tol: expected_send_gain(0.5, _BELIEF, _MU, tol),
    "decide_send": lambda tol: decide_send(TypeSet.singleton(0.7), _BELIEF, _MU, 1, 0, tol),
    "reach_by_root": lambda tol: reach_by_root(_GRAPH, _PROFILES, _MU, tol),
    "root_summaries": lambda tol: root_summaries(_GRAPH, _PROFILES, _MU, tol),
    "sweep_lambda": lambda tol: list(sweep_lambda(_TREE, _PROFILES, _MU, [1.0], None, tol)),
    "scenario_diagnostics": lambda tol: scenario_diagnostics(_SCENARIO.read_bytes(), tol),
    "GridSpec": lambda tol: GridSpec(0.25, tol),
    "oracle_support_points": lambda tol: oracle_support_points(
        ReceiverAction.DISAPPROVE, _D, 1.0, GridSpec(0.25, tol)
    ),
    "oracle_best_actions": lambda tol: oracle_best_actions(0.4, _D, 1.0, tol),
    "oracle_min_lambda": lambda tol: oracle_min_lambda(0.4, _D, ReceiverAction.DISAPPROVE, 2.0, 0.25, tol),
    "oracle_chatroom_profiles": lambda tol: oracle_chatroom_profiles(_GAME, tol),
    "oracle_global": lambda tol: oracle_global(_TREE, _PROFILES, _MU, tol),
}


@pytest.mark.parametrize("front", sorted(_FRONTS))
@pytest.mark.parametrize(
    "tol", [math.nan, -0.1, -1e-300, math.inf, True, "0", None, pytest.param(10**400, id="10**400")]
)
def test_a_bad_tolerance_is_refused(front, tol):
    # before, some of these answered: an empty best-action set, no room
    # equilibrium, a send, a negative gain, a prior past 1, a tie's strict
    # minimizer, or a bare ZeroDivisionError; a NaN made require_credence
    # raise DomainError; True was taken as 1, a string or None raised a bare
    # TypeError, and an int past the float range a bare OverflowError
    _FRONTS[front](EPS)  # the call is otherwise sound
    with pytest.raises(RangeViolation, match=r"^tol must be finite and >= 0, got "):
        _FRONTS[front](tol)


#: every public call that compared a number without asking first whether it
#: is one, called with ``x`` in the place under test
_NUMBER_FRONTS = {
    "EvidenceRelation.mu_given_c": lambda x: EvidenceRelation(x, 0.1),
    "EvidenceRelation.mu_given_not_c": lambda x: EvidenceRelation(0.9, x),
    "validate_evidence.mu_given_c": lambda x: validate_evidence(x, 0.1),
    "validate_evidence.mu_given_not_c": lambda x: validate_evidence(0.9, x),
    "require_credence": lambda x: require_credence(x, _MU),
    "worldview_prior": lambda x: worldview_prior(x, _MU),
    "worldview_posterior": lambda x: worldview_posterior(x, _MU),
    "credence_from_prior": lambda x: credence_from_prior(x, _MU),
    "nu_value.x": lambda x: nu_value(x, 0.5, _MU),
    "nu_value.own_prior": lambda x: nu_value(0.5, x, _MU),
    "nu_breakpoints": lambda x: nu_breakpoints(x, _MU),
    "expected_send_gain": lambda x: expected_send_gain(x, _BELIEF, _MU),
    "PeerDistanceProfile.d0": lambda x: PeerDistanceProfile(x, 0.5, 0.5),
    "PeerDistanceProfile.d05": lambda x: PeerDistanceProfile(0.5, x, 0.5),
    "PeerDistanceProfile.d1": lambda x: PeerDistanceProfile(0.5, 0.5, x),
    "PeerDistanceProfile.from_dirac": lambda x: PeerDistanceProfile.from_dirac(x),
    "utility": lambda x: utility(ReceiverAction.SILENCE, x, _D, 1.0),
    "best_actions": lambda x: best_actions(x, _D, 1.0),
    "min_lambda_for_action": lambda x: min_lambda_for_action(x, _D, ReceiverAction.DISAPPROVE),
}


@pytest.mark.parametrize("front", sorted(_NUMBER_FRONTS))
@pytest.mark.parametrize("x", ["0.5", True, None, pytest.param(10**400, id="10**400")])
def test_a_non_number_is_refused_as_a_float_off_the_range_is(front, x):
    # before, a string or None raised a bare TypeError; validate_evidence
    # took "0.5" through float(); PeerDistanceProfile, from_dirac, utility,
    # best_actions and min_lambda_for_action took True as 1; and an int
    # past the float range made PeerDistanceProfile raise a bare OverflowError
    call = _NUMBER_FRONTS[front]
    call(0.5)  # the call is otherwise sound
    with pytest.raises(RumorcastError) as off_range:
        call(-1.0)
    with pytest.raises(RumorcastError) as refused:
        call(x)
    assert type(refused.value) is type(off_range.value), (refused.value, off_range.value)


def test_a_nan_tolerance_on_a_distance_tie_is_refused():
    # a tie has no strict minimizer; NaN slack used to find one and divide by 0
    with pytest.raises(RangeViolation, match=r"^tol must be finite and >= 0, got nan$"):
        lambda_star(PeerDistanceProfile.from_dirac(0.25), math.nan)


_STEPS = [0, -1, math.nan, math.inf, -math.inf, "0.1", True, None]


@pytest.mark.parametrize("step", _STEPS)
def test_a_bad_grid_step_is_refused(step):
    # before, 0 divided by zero, -1 gave an empty grid, NaN raised a bare
    # ValueError, inf gave the grid [nan], True was taken as 1 and a string
    # or None raised a bare TypeError; a tiny positive step is sound but
    # would build about 1/step points, so it is not tried here
    with pytest.raises(RangeViolation, match=r"^step must be finite and > 0, got "):
        GridSpec(step=step)
    with pytest.raises(RangeViolation, match=r"^step must be finite and > 0, got "):
        oracle_min_lambda(0.4, _D, ReceiverAction.DISAPPROVE, 2.0, step)


@pytest.mark.parametrize("lam_hi", [-1, math.nan, math.inf, -math.inf, "0.1", True, None])
def test_a_bad_lambda_ceiling_is_refused(lam_hi):
    # before, inf raised a bare OverflowError, -1 answered None and True was taken as 1
    assert oracle_min_lambda(0.1, _D, ReceiverAction.DISAPPROVE, 0.0, 0.25) == 0.0  # 0 is a sound ceiling
    with pytest.raises(RangeViolation, match=r"^lam_hi must be finite and >= 0, got "):
        oracle_min_lambda(0.4, _D, ReceiverAction.DISAPPROVE, lam_hi, 0.25)


def test_a_grid_past_the_cap_is_refused_before_it_is_walked(monkeypatch):
    # the point count is taken before int(): a quotient that overflows to
    # inf, or a sound but tiny step, is refused, not walked 1/step times
    message = r"^step 0\.0001 makes more than 1,000,000 grid points$"
    with pytest.raises(RangeViolation, match=message):
        oracle_min_lambda(0.4, PeerDistanceProfile.from_dirac(0.1), ReceiverAction.APPROVE, 1e308, 1e-4)
    with pytest.raises(RangeViolation, match=r"^step 1e-07 makes more than 1,000,000 grid points$"):
        GridSpec(step=1e-7).points()
    # the defaults' 200,001 points pass (the target holds at the first one)
    assert oracle.MAX_GRID_POINTS >= 200_001
    assert oracle_min_lambda(0.1, _D, ReceiverAction.DISAPPROVE) == 0.0
    # the count is the points the grid would have: n steps make n + 1
    monkeypatch.setattr(oracle, "MAX_GRID_POINTS", 11)
    assert len(GridSpec(step=0.1).points()) == 11
    assert oracle_min_lambda(0.4, _D, ReceiverAction.APPROVE, 1.0, 0.1) is None
    for step in (0.09, 0.05):
        with pytest.raises(RangeViolation, match=rf"^step {step} makes more than 11 grid points$"):
            GridSpec(step=step).points()
        with pytest.raises(RangeViolation, match=rf"^step {step} makes more than 11 grid points$"):
            oracle_min_lambda(0.4, _D, ReceiverAction.APPROVE, 1.0, step)


#: the membership tests, each with a set that holds 0.5
_CONTAINS = {
    "TypeSet.singleton": TypeSet.singleton(0.5).contains,
    "TypeSet.finite": TypeSet.finite([0.25, 0.5]).contains,
    "TypeSet.interval": TypeSet.interval(0.25, 0.75).contains,
    "SupportInterval": support_interval(ReceiverAction.SILENCE, PeerDistanceProfile.from_dirac(0.5), 1.0).contains,
    "SupportInterval.empty": SupportInterval(ReceiverAction.SILENCE, None, None).contains,
}


@pytest.mark.parametrize("front", sorted(_CONTAINS))
@pytest.mark.parametrize(
    "x", [None, "0.5", [0.5], True, math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")]
)
def test_a_credence_that_is_no_finite_number_is_refused_by_contains(front, x):
    # no bare TypeError or OverflowError, and True is not taken as 1
    contains = _CONTAINS[front]
    assert contains(0.5) is (front != "SupportInterval.empty")
    for outside in (2.0, -5, 10**300, np.float64(-1e300)):  # a finite number off the set answers
        assert not contains(outside)
    with pytest.raises(RangeViolation, match=r"^credence must be a finite number, got "):
        contains(x)


@pytest.mark.parametrize("front", sorted(_CONTAINS))
def test_contains_answers_a_bool_for_a_numpy_credence(front):
    # a numpy float is a float; the answer is a bool, not a numpy.bool_
    contains = _CONTAINS[front]
    for x, inside in ((np.float64(0.5), front != "SupportInterval.empty"), (np.float64(2.0), False),
                      (np.float64(-1e300), False)):
        assert contains(x) is inside, x
        assert contains(x, np.float64(1e-3)) is inside, x
    assert TypeSet.interval(0.25, 0.75).contains(np.float64(2.0)) is False
