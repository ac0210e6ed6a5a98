"""The one-pass room fold against the passes it replaced.

``chatroom.fold_room`` reads a room as one list of rows, (agent, index of
her sensitivity, type hull ends, peer distances d0, d05, d1, type
centroid), and returns in one pass every receiver's eligible set, the
canonical selection, the multiplicity and the number of selected
disapprovals.  ``_former_fold`` below keeps the former path as a
test-local copy: every eligible set first, then a check that none is
empty, then one selection per receiver from a separate dict of type
centroids, and the disapprovals counted again by the cascade.  Rows are
drawn on a dyadic grid, where utilities tie exactly, with empty sets
planted first, in the middle and last, rooms of receivers at ties, where
every set may hold several actions, sensitivity 0, and rooms of one
receiver.
"""

from __future__ import annotations

import numpy as np

from rumorcast import ReceiverAction, solve_chatroom
from rumorcast.belief import EPS
from rumorcast.chatroom import Multiplicity, eligible_actions, fold_room
from rumorcast.receiver import react

from helpers import random_chatroom_game

D = ReceiverAction.DISAPPROVE
GRID = 1.0 / 16.0
TOLS = (0.0, EPS, 1e-3, 0.2)


def _former_select(eligible, centroid):
    # closest eligible action to the type centroid; ties go to the lower action
    if len(eligible) == 1:
        return next(iter(eligible))
    return min(eligible, key=lambda a: (abs(float(a) - centroid), float(a)))


def _former_room(eligible, centroids):
    """(eligible, actions, multiplicity, disapprovals) from the eligible
    sets, as the former passes made them: checked, then selected, then the
    disapprovals counted."""
    if not all(eligible.values()):
        return eligible, None, Multiplicity.NONE, 0
    actions = {agent: _former_select(e, centroids[agent]) for agent, e in eligible.items()}
    unique = all(len(e) == 1 for e in eligible.values())
    disapprovals = sum(1 for agent in eligible if actions[agent] is D)
    return eligible, actions, Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE, disapprovals


def _former_eligible(lo, hi, lam, d0, d05, d1, tol):
    # the reactions at both ends of the type hull [lo, hi], to a peer
    # distance profile (d0, d05, d1); a singleton's ends coincide, so one decides
    low = react(lo, lam, d0, d05, d1, tol)
    return low if lo == hi else low & react(hi, lam, d0, d05, d1, tol)


def _former_fold(rows, lams, tol):
    # the eligible sets as network._fold built them, the centroids kept aside
    eligible = {r: _former_eligible(lo, hi, lams[i], d0, d05, d1, tol) for r, i, lo, hi, d0, d05, d1, _ in rows}
    return _former_room(eligible, {row[0]: row[7] for row in rows})


def _grid(rng: np.random.Generator, lo: int = 0, hi: int = 16) -> float:
    return float(rng.integers(lo, hi + 1)) * GRID


def _row(rng: np.random.Generator, agent, i: int) -> tuple:
    """A receiver on the grid: a point or an interval of types, her peer
    distances those of a peer mean on the grid or three grid values, and
    her centroid the middle of her hull, an end of it, or a grid value."""
    lo = _grid(rng)
    hi = lo if rng.random() < 0.5 else min(1.0, lo + _grid(rng, 1, 4))
    if rng.random() < 0.6:
        b = _grid(rng)
        d0, d05, d1 = b, abs(0.5 - b), 1.0 - b
    else:
        d0, d05, d1 = _grid(rng), _grid(rng), _grid(rng)
    centroid = (lo, hi, (lo + hi) / 2.0, _grid(rng))[int(rng.integers(0, 4))]
    return (agent, i, lo, hi, d0, d05, d1, centroid)


def _tie_row(rng: np.random.Generator, agent, i: int) -> tuple:
    """A receiver at a tie: types 0.25 or 0.75 with the same distance to
    every action (disapproval ties silence, or silence approval, at any
    sensitivity), or types 0.5 and silence alone costly (disapproval ties
    approval above sensitivity 0.5, all three tie at it); her centroid on
    a grid that holds the midpoints."""
    theta = (0.25, 0.75, 0.5)[int(rng.integers(0, 3))]
    if theta == 0.5:
        d0, d05, d1 = 0.0, 1.0, 0.0
    else:
        d0 = d05 = d1 = _grid(rng)
    return (agent, i, theta, theta, d0, d05, d1, float(rng.integers(0, 5)) / 4.0)


def _empty_row(agent, i: int) -> tuple:
    # at sensitivity 0, types 0 disapprove and types 1 approve: no action serves both
    return (agent, i, 0.0, 1.0, 0.5, 0.0, 0.5, 0.5)


def _assert_same(eq, want, draw) -> None:
    eligible, actions, multiplicity, disapprovals = want
    assert eq.eligible == eligible and list(eq.eligible) == list(eligible), draw
    if actions is None:
        assert eq.actions is None, draw
    else:
        assert eq.actions == actions and list(eq.actions) == list(actions), draw
    assert eq.multiplicity is multiplicity and eq.disapprovals == disapprovals, draw


def test_the_fold_matches_the_former_passes():
    rng = np.random.default_rng(2701)
    seen = dict.fromkeys(("empty first", "empty middle", "empty last", "all multiple", "one receiver",
                          "zero sensitivity", "centroid tie", "unique", "disapprovals"), 0)
    for draw in range(6000):
        k = 1 if draw % 5 == 0 else int(rng.integers(2, 9))
        agents = [str(a) for a in rng.permutation(3 * k)[:k]]  # room order is not id order
        lams = [(0.0, 0.5, 1.0, 2.0, 4.0, 1e300)[int(x)] for x in rng.integers(0, 6, size=k + 2)]
        if draw % 7 == 0:
            lams = [0.0] * (k + 2)
        slots = [int(x) for x in rng.integers(0, k + 2, size=k)]  # rows may share a sensitivity
        draw_row = _tie_row if draw % 8 == 7 else _row
        rows = [draw_row(rng, a, i) for a, i in zip(agents, slots)]
        plant = draw % 4
        if plant < 3:  # an empty set first, in the middle or last
            at = (0, k // 2, k - 1)[plant]
            lams[slots[at]] = 0.0
            rows[at] = _empty_row(agents[at], slots[at])
        tol = TOLS[int(rng.integers(0, len(TOLS)))]
        want = _former_fold(rows, lams, tol)
        _assert_same(fold_room(rows, lams, tol), want, draw)
        _assert_same(fold_room(iter(rows), lams, tol), want, draw)

        eligible, actions, multiplicity, disapprovals = want
        if multiplicity is Multiplicity.NONE:
            first = [not e for e in eligible.values()].index(True)
            seen[("empty first", "empty middle", "empty last")[(first > 0) + (first == k - 1 and k > 1)]] += 1
        else:
            seen["all multiple"] += all(len(e) > 1 for e in eligible.values())
            seen["unique"] += multiplicity is Multiplicity.UNIQUE
            seen["disapprovals"] += disapprovals > 0
            seen["centroid tie"] += any(
                len(e) > 1 and len({abs(float(a) - row[7]) for a in e}) < len(e)
                for e, row in zip(eligible.values(), rows)
            )
        seen["one receiver"] += k == 1
        seen["zero sensitivity"] += all(lams[i] == 0.0 for i in slots)
    assert min(seen.values()) >= 100, seen


def test_solve_chatroom_folds_its_specs_as_before():
    rng = np.random.default_rng(2702)
    seen = dict.fromkeys(Multiplicity, 0)
    for draw in range(1200):
        game = random_chatroom_game(rng)
        tol = TOLS[draw % len(TOLS)]
        want = _former_room(
            {spec.agent: eligible_actions(spec.type_set, spec.belief, spec.lam, tol) for spec in game.receivers},
            {spec.agent: spec.type_set.centroid for spec in game.receivers},
        )
        _assert_same(solve_chatroom(game, tol), want, draw)
        seen[want[2]] += 1
    assert min(seen.values()) >= 30, seen
