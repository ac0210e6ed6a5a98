"""Evidence relations and the credence-to-worldview maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rumorcast import (
    DomainError,
    OrderingViolation,
    RangeViolation,
    credence_from_prior,
    validate_evidence,
    worldview_posterior,
    worldview_prior,
)


class TestValidateEvidence:
    def test_accepts_ordered_rates(self):
        mu = validate_evidence(0.9, 0.1)
        assert mu.mu_given_c == 0.9
        assert mu.mu_given_not_c == 0.1
        assert mu.spread == pytest.approx(0.8)

    def test_accepts_narrow_band(self):
        mu = validate_evidence(0.02, 0.01)
        assert mu.spread == pytest.approx(0.01)

    def test_equal_rates_rejected(self):
        with pytest.raises(OrderingViolation):
            validate_evidence(0.5, 0.5)

    def test_inverted_rates_rejected(self):
        with pytest.raises(OrderingViolation):
            validate_evidence(0.1, 0.9)

    def test_boundary_rates_rejected(self):
        with pytest.raises(RangeViolation):
            validate_evidence(1.0, 0.1)
        with pytest.raises(RangeViolation):
            validate_evidence(0.9, 0.0)

    def test_near_tie_rejected(self):
        with pytest.raises(OrderingViolation):
            validate_evidence(0.5 + 1e-12, 0.5)


class TestWorldviewMaps:
    def test_known_priors(self):
        mu = validate_evidence(0.9, 0.1)
        assert worldview_prior(0.26, mu) == pytest.approx(0.2, abs=1e-12)
        assert worldview_prior(0.5, mu) == pytest.approx(0.5, abs=1e-12)
        assert worldview_prior(0.74, mu) == pytest.approx(0.8, abs=1e-12)

    def test_known_priors_narrow_band(self):
        mu = validate_evidence(0.02, 0.01)
        assert worldview_prior(0.019, mu) == pytest.approx(0.9, abs=1e-12)
        assert worldview_prior(0.012, mu) == pytest.approx(0.2, abs=1e-12)

    def test_known_posteriors(self):
        mu = validate_evidence(0.9, 0.1)
        assert worldview_posterior(0.26, mu) == pytest.approx(9 / 13, abs=1e-12)
        assert worldview_posterior(0.5, mu) == pytest.approx(0.9, abs=1e-12)
        assert worldview_posterior(0.14, mu) == pytest.approx(9 / 28, abs=1e-12)
        assert worldview_posterior(0.74, mu) == pytest.approx(36 / 37, abs=1e-12)
        assert worldview_posterior(0.30, mu) == pytest.approx(0.75, abs=1e-12)

    def test_known_posteriors_narrow_band(self):
        mu = validate_evidence(0.02, 0.01)
        assert worldview_posterior(0.019, mu) == pytest.approx(18 / 19, abs=1e-12)
        assert worldview_posterior(0.012, mu) == pytest.approx(1 / 3, abs=1e-12)

    def test_credence_outside_band_rejected(self):
        mu = validate_evidence(0.9, 0.1)
        for theta in (0.1, 0.9, 0.05, 0.95, 0.1 + 1e-12, 0.9 - 1e-12):
            with pytest.raises(DomainError):
                worldview_prior(theta, mu)

    def test_prior_outside_unit_rejected(self):
        mu = validate_evidence(0.9, 0.1)
        for p in (0.0, 1.0, -0.2, 1.0 - 1e-12):
            with pytest.raises(RangeViolation):
                credence_from_prior(p, mu)


band = st.tuples(
    st.floats(min_value=0.02, max_value=0.45),
    st.floats(min_value=0.1, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.99),
)


@given(band)
def test_posterior_matches_single_expression(args):
    """posterior = mu_c * (theta - mu_nc) / (theta * (mu_c - mu_nc))."""
    lo, width, frac = args
    mu = validate_evidence(lo + width, lo)
    theta = lo + 0.01 + frac * (width - 0.02)
    expected = mu.mu_given_c * (theta - mu.mu_given_not_c) / (theta * mu.spread)
    assert worldview_posterior(theta, mu) == pytest.approx(expected, abs=1e-12)


@given(band)
def test_round_trip_prior_credence(args):
    lo, width, frac = args
    mu = validate_evidence(lo + width, lo)
    theta = lo + 0.01 + frac * (width - 0.02)
    assert credence_from_prior(worldview_prior(theta, mu), mu) == pytest.approx(theta, abs=1e-12)


@given(band)
def test_message_always_favors_claim(args):
    lo, width, frac = args
    mu = validate_evidence(lo + width, lo)
    theta = lo + 0.01 + frac * (width - 0.02)
    prior, posterior = worldview_prior(theta, mu), worldview_posterior(theta, mu)
    assert 0.0 < prior < 1.0
    assert prior < posterior < 1.0


def test_prior_strictly_increasing_in_credence():
    rng = np.random.default_rng(7)
    mu = validate_evidence(0.85, 0.15)
    draws = sorted(set(float(x) for x in rng.uniform(0.16, 0.84, size=500)))
    priors = [worldview_prior(x, mu) for x in draws]
    assert all(p < q for p, q in zip(priors, priors[1:]))
