"""The band checks on plain numbers against the ``numpy.all`` path they replace.

``belief._holds`` returns a plain comparison's bool as it is and calls
``.all()`` on anything else.  The reference here swaps in the former
``bool(numpy.all(cond))`` at both call-site bindings (``belief`` and
``sender``) and runs the same functions, so any input on which the two
paths differ, in value or in error type, shows up as a mismatch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

from rumorcast import belief, sender
from rumorcast.belief import (
    EPS,
    _holds,
    credence_from_prior,
    require_credence,
    validate_evidence,
)
from rumorcast.sender import nu_value

DRAWS = 600
FORMS = ("float", "float64", "0-d", "1-d")


def _numpy_holds(cond) -> bool:
    return bool(np.all(cond))


@contextmanager
def _numpy_path():
    saved = belief._holds, sender._holds
    belief._holds = sender._holds = _numpy_holds
    try:
        yield
    finally:
        belief._holds, sender._holds = saved


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
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=0.0, atol=0.0, equal_nan=True))
    return a == b or (math.isnan(a) and math.isnan(b))


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


def _shape(rng, form: str, lo: float, hi: float, tol: float):
    if form == "1-d":
        return np.array([_scalar(rng, lo, hi, tol) for _ in range(int(rng.integers(1, 6)))])
    x = _scalar(rng, lo, hi, tol)
    if form == "float64":
        return np.float64(x)
    if form == "0-d":
        return np.array(x)
    return x


def _evidence(rng):
    b = float(rng.uniform(0.01, 0.45))
    a = float(rng.uniform(b + 0.02, 0.99))
    return validate_evidence(a, b)


def _tol(rng) -> float:
    return float(rng.choice([EPS, 0.0, 1e-3]))


def _check(fn, *args) -> str:
    """Compare both paths on one input; return "value" or "error"."""
    new = _outcome(fn, *args)
    with _numpy_path():
        ref = _outcome(fn, *args)
    assert _same(new, ref), (fn.__name__, args, new, ref)
    return new[0]


@pytest.mark.parametrize("form", FORMS)
def test_require_credence_matches_numpy_path(form):
    rng = np.random.default_rng(601)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        theta = _shape(rng, form, mu.mu_given_not_c, mu.mu_given_c, tol)
        outcomes.add(_check(require_credence, theta, mu, tol))
    assert outcomes == {"value", "error"}


@pytest.mark.parametrize("form", FORMS)
def test_credence_from_prior_matches_numpy_path(form):
    rng = np.random.default_rng(602)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        prior = _shape(rng, form, 0.0, 1.0, tol)
        outcomes.add(_check(credence_from_prior, prior, mu, tol))
    assert outcomes == {"value", "error"}


@pytest.mark.parametrize("form", FORMS)
def test_nu_value_matches_numpy_path(form):
    rng = np.random.default_rng(603)
    outcomes = set()
    for _ in range(DRAWS):
        mu, tol = _evidence(rng), _tol(rng)
        x = _shape(rng, form, mu.mu_given_not_c, mu.mu_given_c, tol)
        # the own prior takes every form too, against a receiver of each form
        own = _shape(rng, FORMS[int(rng.integers(4))], 0.0, 1.0, tol)
        outcomes.add(_check(nu_value, x, own, mu, tol))
    assert outcomes == {"value", "error"}


def test_holds_matches_numpy_all():
    conds = [True, False, np.True_, np.False_, np.array(True), np.array(False),
             np.array([True, True]), np.array([True, False]), np.array([], dtype=bool)]
    for cond in conds:
        result = _holds(cond)
        assert type(result) is bool
        assert result == _numpy_holds(cond)
    assert _holds(0.5 > 0.1) is True
