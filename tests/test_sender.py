"""Sending decisions: the gain, its shape, the gated send rule."""

from __future__ import annotations

import numpy as np
import pytest

from rumorcast import (
    AgentProfile,
    DomainError,
    InvariantViolation,
    RangeViolation,
    SecondOrderBelief,
    SenderAction,
    TypeSet,
    decide_send,
    expected_send_gain,
    nu_breakpoints,
    nu_value,
    validate_evidence,
    worldview_prior,
)

NARROW = validate_evidence(0.02, 0.01)
WIDE = validate_evidence(0.9, 0.1)


class TestContextValidation:
    """The inputs of one sending decision: the sender's own prior, her
    audience's credences and her disapproval threshold."""

    def test_rejects_bad_own_prior(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(RangeViolation, match="own prior"):
                expected_send_gain(p, SecondOrderBelief.dirac([0.019]), NARROW)

    def test_rejects_empty_receivers(self):
        with pytest.raises(InvariantViolation, match="at least one peer"):
            SecondOrderBelief.dirac([])

    def test_rejects_receiver_credence_off_band(self):
        with pytest.raises(DomainError):
            expected_send_gain(0.7, SecondOrderBelief.dirac([0.5]), NARROW)  # far outside (0.01, 0.02)

    def test_rejects_bad_counters(self):
        for ell in (-1, 1.5):
            with pytest.raises(RangeViolation, match="disapproval threshold ell"):
                AgentProfile(TypeSet.singleton(0.017), 1.0, ell)

    @pytest.mark.parametrize(
        "field, counters",
        [
            ("disapproval threshold ell", {"ell": -1}),
            ("disapproval threshold ell", {"ell": True}),
            ("disapproval threshold ell", {"ell": 1.5}),
            ("disapproval_count", {"ell": 2, "disapproval_count": -5}),
            ("disapproval_count", {"disapproval_count": 0.5}),
        ],
        ids=["ell=-1", "ell=True", "ell=1.5", "count=-5", "count=0.5"],
    )
    def test_decide_send_refuses_bad_counters(self, field, counters):
        belief = SecondOrderBelief.dirac([0.019, 0.012])
        with pytest.raises(RangeViolation, match=f"^{field} must be an int >= 0, got "):
            decide_send(TypeSet.singleton(0.017), belief, NARROW, **counters)

    def test_actions_print_as_report_codes(self):
        assert (str(SenderAction.SEND), str(SenderAction.NOSEND)) == ("S", "NS")

    def test_gate_floor_is_zero(self):
        belief = SecondOrderBelief.dirac([0.019, 0.012])
        types = TypeSet.singleton(0.017)  # own prior 0.7, a positive gain
        assert decide_send(types, belief, NARROW, ell=1, disapproval_count=3) is SenderAction.NOSEND
        assert decide_send(types, belief, NARROW, ell=3, disapproval_count=1) is SenderAction.SEND

    def test_valid_counters_open_the_gate_exactly_when_ell_exceeds_the_count(self):
        belief = SecondOrderBelief.dirac([0.019, 0.012])
        types = TypeSet.singleton(0.017)  # own prior 0.7, a positive gain
        for ell in (0, 1, 2, 3, 10**30):
            for count in (0, 1, 2, 3, 10**30):
                expected = SenderAction.SEND if ell > count else SenderAction.NOSEND
                assert decide_send(types, belief, NARROW, ell, count) is expected, (ell, count)


class TestWorkedPayoffs:
    """Two receivers at credences 0.019 and 0.012 under the narrow evidence
    band; the sender's own prior is 0.7.  The status quo is the audience's
    total worldview distance from her if she does not send."""

    def test_status_quo_distance(self):
        status_quo = sum(abs(worldview_prior(x, NARROW) - 0.7) for x in (0.019, 0.012))
        assert status_quo == pytest.approx(0.7, abs=1e-12)

    def test_gain_is_small_but_positive(self):
        gain = expected_send_gain(0.7, SecondOrderBelief.dirac([0.019, 0.012]), NARROW)
        assert gain == pytest.approx(0.7 - 35 / 57, abs=1e-12)
        assert gain > 0

    def test_three_replicas_flip_the_sign(self):
        receivers = [0.019, 0.019, 0.019, 0.012]
        status_quo = sum(abs(worldview_prior(x, NARROW) - 0.7) for x in receivers)
        assert status_quo == pytest.approx(1.1, abs=1e-12)
        assert expected_send_gain(0.7, SecondOrderBelief.dirac(receivers), NARROW) < 0


class TestNu:
    def test_matches_manual_contribution(self):
        # receiver at 0.012 seen from own prior 0.9
        got = nu_value(0.012, 0.9, NARROW)
        assert got == pytest.approx((0.9 - 0.2) - (0.9 - 1 / 3), abs=1e-12)

    def test_gain_decomposes_into_contributions(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            xs = rng.uniform(0.011, 0.019, size=n)
            tau = float(rng.uniform(0.05, 0.95))
            total = sum(float(nu_value(float(x), tau, NARROW)) for x in xs)
            gain = expected_send_gain(tau, SecondOrderBelief.dirac(xs.tolist()), NARROW)
            assert gain == pytest.approx(total, abs=1e-12)

    def test_breakpoints_known_case(self):
        lo, hi = nu_breakpoints(0.5, WIDE)
        assert lo == pytest.approx(0.18, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)
        for tau in (0.0, 1.0, -0.1):
            with pytest.raises(RangeViolation, match="own prior"):
                nu_breakpoints(tau, WIDE)

    def test_three_region_shape_on_random_draws(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            a = float(rng.uniform(0.55, 0.95))
            b = float(rng.uniform(0.05, 0.4))
            mu = validate_evidence(a, b)
            tau = float(rng.uniform(0.05, 0.95))
            lo, hi = nu_breakpoints(tau, mu)
            assert b < lo <= hi < a
            grid = [float(x) for x in np.linspace(b + 1e-6, a - 1e-6, 2001)]
            vals = [nu_value(x, tau, mu) for x in grid]
            slack = 1e-9
            for left, right, u, v in zip(grid, grid[1:], vals, vals[1:]):
                mid = (left + right) / 2
                if mid <= lo - 1e-3:
                    assert v - u >= -slack
                if lo + 1e-3 <= mid <= hi - 1e-3:
                    assert v - u <= slack
                if mid >= hi + 1e-3:
                    assert v - u >= -slack


class TestDecideSend:
    def test_send_on_positive_gain(self):
        belief = SecondOrderBelief.dirac([0.019, 0.012])
        types = TypeSet.singleton(0.017)  # own prior 0.7
        assert decide_send(types, belief, NARROW) is SenderAction.SEND

    def test_no_send_when_gate_closed(self):
        belief = SecondOrderBelief.dirac([0.019, 0.012])
        types = TypeSet.singleton(0.017)
        assert decide_send(types, belief, NARROW, ell=1, disapproval_count=1) is SenderAction.NOSEND
        assert decide_send(types, belief, NARROW, ell=0) is SenderAction.NOSEND

    def test_no_send_when_any_type_loses(self):
        belief = SecondOrderBelief.dirac([0.019, 0.019, 0.019, 0.012])
        # prior 0.7 loses on the replica audience; adding a type cannot help
        types = TypeSet.finite([0.017, 0.015])
        assert decide_send(types, belief, NARROW) is SenderAction.NOSEND

    def test_exact_tie_stays_quiet(self):
        # one receiver whose posterior mirrors its prior around the sender:
        # tau exactly midway makes the gain zero
        mu = WIDE
        x = 0.3
        p = worldview_prior(x, mu)  # 0.25
        q = 0.75  # posterior of 0.3 under (0.9, 0.1)
        tau = (p + q) / 2
        belief = SecondOrderBelief.dirac([x])
        types = TypeSet.singleton(float(0.1 + tau * 0.8))
        assert decide_send(types, belief, mu) is SenderAction.NOSEND

    def test_interval_decision_binds_at_lower_end(self):
        # each receiver's contribution is nondecreasing in the own prior
        # (posterior >= prior), so the lowest type is the binding one
        mu = WIDE
        belief = SecondOrderBelief.dirac([0.14, 0.74])
        types = TypeSet.interval(0.42, 0.68)
        engine = decide_send(types, belief, mu)
        assert engine is decide_send(TypeSet.singleton(0.42), belief, mu)
        taus = np.linspace(worldview_prior(0.42, mu), worldview_prior(0.68, mu), 2001)
        gains = [expected_send_gain(float(t), belief, mu) for t in taus]
        assert min(gains) == pytest.approx(gains[0], abs=1e-12)
        assert (engine is SenderAction.SEND) == (min(gains) > 0)

    def test_interval_route_matches_grid_on_random_draws(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            a = float(rng.uniform(0.55, 0.95))
            b = float(rng.uniform(0.05, 0.4))
            mu = validate_evidence(a, b)
            dim = int(rng.integers(1, 4))
            xs = rng.uniform(b + 0.02, a - 0.02, size=dim).tolist()
            belief = SecondOrderBelief.dirac(xs)
            lo = float(rng.uniform(b + 0.02, a - 0.04))
            hi = float(rng.uniform(lo, a - 0.02))
            types = TypeSet.interval(lo, hi)
            engine = decide_send(types, belief, mu)
            taus = np.linspace(worldview_prior(lo, mu), worldview_prior(hi, mu), 801)
            worst = min(expected_send_gain(float(t), belief, mu) for t in taus)
            if abs(worst) > 1e-6:  # skip knife-edge draws the grid cannot settle
                assert (engine is SenderAction.SEND) == (worst > 0)
