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

A wide room's known-type receivers who share a sensitivity fold as one
run, by stretches of receivers who react alike (``chatroom._segments``).
``_former_peers`` keeps the rows the room was read into before, so the run
path is checked against ``_former_fold`` on rooms aimed at the run's
thresholds: credences on a dyadic grid with the range's ends ``-EPS`` and
``1 + EPS``, room totals that put a receiver's peer mean at 0, 0.5 or 1 or
make a pair of actions tie on a whole piece, and sensitivities from 0 to
the float maximum, near the room's size (where some gaps barely move with
credence) and from 2**1000 up, where a utility overflows next to a peer mean
just off [0, 1], and the rounding band too with a tolerance of 1e300.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from collections import Counter

import numpy as np

from rumorcast import ReceiverAction, solve_chatroom
from rumorcast import chatroom, network
from rumorcast.belief import EPS
from rumorcast.chatroom import THRESHOLDS, Multiplicity, Room, TypeSet, eligible_actions, fold_room
from rumorcast.cli import main
from rumorcast.errors import RangeViolation, RumorcastError
from rumorcast.network import AgentProfile, BeliefOverride, OrderedTree, TreeProfiles
from rumorcast.receiver import PeerDistanceProfile, SecondOrderBelief, react

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


# ---------------------------------------------------------------------------
# wide rooms: runs of known types


def _former_peers(profiles: TreeProfiles, sender, receivers) -> list:
    """The rows ``network._room_peers`` read a room into before runs: per
    receiver, from her explicit belief or from her peer mean, the room's
    credence total less her own."""
    theta, row = profiles.theta, profiles.attrs._index
    parts, k = network._exact_parts([theta[sender], *(theta[r] for r in receivers)]), len(receivers)
    rows = []
    for r in receivers:
        belief = profiles.receiver_belief(r)
        if belief is None:
            t = theta[r]
            b = math.fsum([*parts, -t]) / k
            if not -EPS <= b <= 1.0 + EPS:
                PeerDistanceProfile.from_dirac(b)
            rows.append((r, row[r], t, t, abs(b), abs(0.5 - b), abs(1.0 - b), t))
        else:
            rows.append(chatroom._row(r, row[r], profiles.attrs.type_set(r), belief))
    return rows


#: Credences a wide room draws from: a 1/16 grid and the range's ends
WIDE_GRID = (-EPS, 1.0 + EPS) + tuple(j / 16.0 for j in range(17))

#: Sensitivities where a run's utilities or its rounding band may overflow
HUGE = (sys.float_info.max, sys.float_info.max / 2, 2.0**1000, math.nextafter(2.0**1000, 0.0),
        math.nextafter(2.0**1000, math.inf))

#: Room sizes k at which k + 1 agents at -EPS round each receiver's peer
#: mean below -EPS
OFF_RANGE = (125, 250, 500, 1000, 2000)


def _aimed_credences(rng: np.random.Generator, k: int) -> tuple[float, list[float], str]:
    """A sender's and ``k`` receivers' credences, and what they aim at: a
    room total at which some receiver's peer mean is 0, 0.5 or 1, one at
    which a pair of actions ties across a whole piece when the sensitivity
    is the room's size, or none."""
    aim = ("b=0", "b=0.5", "b=1", "flat", "flat", "grid", "random")[int(rng.integers(0, 7))]
    if k in OFF_RANGE and rng.random() < 0.5:
        return -EPS, [-EPS] * k, "off"
    if aim == "random":
        return float(rng.uniform(0.1, 0.9)), [round(float(x), 6) for x in rng.uniform(0.0, 1.0, k)], aim
    if aim in ("b=0", "b=1"):
        # every peer at the end but one receiver: her peer mean is the end
        # itself, or just past it with peers at the range's end or a sender
        # a hair inside it (at 0, T - θ then rounds to her θ, not below it)
        end, edge, hair = (0.0, -EPS, -1e-20) if aim == "b=0" else (1.0, 1.0 + EPS, 1.0 - 2.0**-53)
        ts = [end] * k
        for j in rng.choice(k, size=int(rng.integers(0, 4)), replace=False):
            ts[int(j)] = edge
        ts[int(rng.integers(0, k))] = float(rng.choice(WIDE_GRID))
        return (end, edge, hair)[int(rng.integers(0, 3))], ts, aim
    centre = 0.5 if aim == "b=0.5" else float(rng.choice([0.25, 0.5, 0.75]))
    near = [x for x in WIDE_GRID if abs(x - centre) <= 0.25 + 2 * EPS]
    ts = [near[j] for j in rng.integers(0, len(near), size=k)]
    if aim == "grid":
        return float(rng.choice(WIDE_GRID)), ts, aim
    if aim == "flat":
        # at sensitivity k, f_a - f_a' is |a - T + k a| - |a' - T + k a'| on a
        # whole piece: it is 0 at T = (k a + k a' + a + a') / 2
        target = (k + 1) * centre
    else:
        target = k * centre + ts[int(rng.integers(0, k))]
    for _ in range(4 * k):  # move receivers along the grid until the sender fits
        need = math.fsum([target, *(-t for t in ts)])
        if 0.0 <= need <= 1.0:
            return need, ts, aim
        j = int(rng.integers(0, k))
        step = 1.0 / 16.0 if need > 1.0 else -1.0 / 16.0
        ts[j] = min(1.0, max(0.0, ts[j] + step))
    return float(rng.choice(WIDE_GRID)), ts, "none"


def _wide_room(rng: np.random.Generator, k: int, explicit: int):
    """A star of ``k`` receivers with aimed credences, ``explicit`` of them
    with an explicit belief: the truth, as two atoms."""
    sender, ts, aim = _aimed_credences(rng, k)
    agents = [str(i) for i in range(k + 1)]
    tree = OrderedTree.from_edges("0", [("0", a) for a in agents[1:]])
    order = [int(x) for x in rng.permutation(k)]  # child order is not credence order
    attrs = {"0": AgentProfile(TypeSet.singleton(sender), 1.0)}
    attrs.update((agents[1 + j], AgentProfile(TypeSet.singleton(ts[order[j]]), 1.0)) for j in range(k))
    overrides = {}
    for a in rng.choice(agents[1:], size=explicit, replace=False):
        peers = [attrs[p].type_set.value for p in agents if p != a]
        overrides[str(a)] = BeliefOverride(receiver=SecondOrderBelief.mixture([(peers, 0.5), (peers, 0.5)]))
    return TreeProfiles(tree, attrs, overrides), tree.children_of("0"), aim


def _column(rng: np.random.Generator, k: int, aim: str) -> tuple[list[float], str]:
    """The room's sensitivities, one per table row: all one value, near
    the room's size for a room aimed at a flat piece, or a second group of
    more than THRESHOLDS receivers and a few of their own."""
    near_k = [k, k * (1 + 2.0**-45), k * (1 - 2.0**-45)]
    if aim == "flat" and rng.random() < 0.8:
        lam = near_k[int(rng.integers(0, 3))]
    else:
        lam = float(rng.choice([0.0, 1e-3, *near_k, 0.5, 1.0, 1e300, 1.5e89, 1e305, *HUGE]))
    column = [lam] * (k + 1)
    if k > 3 * THRESHOLDS and rng.random() < 0.3:
        other = float(rng.choice([0.0, 1.0, 2.0 * k, 1e300]))
        for j in rng.choice(np.arange(1, k + 1), size=int(rng.integers(THRESHOLDS + 1, k // 2)), replace=False):
            column[int(j)] = other
        for j in rng.choice(np.arange(1, k + 1), size=3, replace=False):
            column[int(j)] = float(rng.uniform(0.0, 4.0))
        return column, "two groups"
    return column, "one group"


def _folded(call):
    try:
        return call()
    except RumorcastError as exc:
        return type(exc), str(exc)


def test_runs_fold_as_the_receivers_did_one_by_one(monkeypatch):
    kinds: Counter = Counter()
    segments = chatroom._segments

    def counted(*args):
        out = segments(*args)
        kinds.update("stretch" if is_stretch else "one by one" for _, _, is_stretch in out)
        return out

    monkeypatch.setattr(chatroom, "_segments", counted)
    rng = np.random.default_rng(2801)
    seen: Counter = Counter()
    for draw in range(800):
        k = int(round(math.exp(rng.uniform(math.log(20), math.log(600))))) if draw % 80 else 3000
        if draw % 40 == 1:
            k = OFF_RANGE[draw // 40 % len(OFF_RANGE)]
        explicit = int(rng.integers(1, 4)) if draw % 4 == 0 else 0
        profiles, receivers, aim = _wide_room(rng, k, explicit)
        lams, groups = _column(rng, k, aim)
        tol = 1e300 if draw % 25 == 2 else (0.0, 1e-9)[draw % 2]
        room = _folded(lambda: network._room_peers(profiles, "0", receivers))
        want = _folded(lambda: _former_fold(_former_peers(profiles, "0", receivers), lams, tol))
        if isinstance(want[0], type):  # a peer mean off the range
            assert room == want, draw
            assert want[0] is RangeViolation and want[1].startswith("peer mean -1.0"), want
            seen["peer mean error"] += 1
            continue
        assert (type(room) is Room) == (k - explicit > THRESHOLDS), draw
        _assert_same(fold_room(room, lams, tol), want, draw)
        seen[aim] += 1
        seen[groups] += 1
        seen["explicit"] += explicit > 0
        seen["multiple"] += want[2] is Multiplicity.MULTIPLE
        seen["huge"] += max(lams) >= 2.0**1000
        seen["tol 1e300"] += tol == 1e300
    print(kinds, seen)
    assert min(kinds["stretch"], kinds["one by one"]) >= 100, kinds
    keys = ("b=0", "b=0.5", "b=1", "flat", "two groups", "explicit", "multiple", "huge", "tol 1e300")
    assert min(seen[key] for key in keys) >= 20, seen
    assert seen["peer mean error"] >= 5, seen


def test_a_run_beside_an_empty_set_leaves_no_equilibrium():
    # a Room may hold receivers with type intervals beside its run; one with
    # no action serving both ends leaves the room without an equilibrium
    rng = np.random.default_rng(2802)
    for draw in range(40):
        k = int(rng.integers(THRESHOLDS + 1, 200))
        ts = [float(x) / 16.0 for x in rng.integers(0, 17, size=k)]
        parts = network._exact_parts([0.5, *ts])
        known = []
        for j, t in enumerate(ts):
            b = math.fsum([*parts, -t]) / (k + 1)
            known.append((str(j), 0, t, t, abs(b), abs(0.5 - b), abs(1.0 - b), t))
        at = int(rng.integers(0, k + 1))
        other = _empty_row("x", 1) if draw % 2 else _row(rng, "x", 1)
        rows = known[:at] + [other] + known[at:]
        lams = [float(rng.choice([0.0, 1.0, 1e300])), 0.0]
        room = Room([row[0] for row in rows], [row[0] for row in known], [0] * k, ts, parts, [other])
        _assert_same(fold_room(room, lams, 0.0), _former_fold(rows, lams, 0.0), draw)


def _assert_same_map(ours, want: dict, draw) -> None:
    # a fold's Mapping reads as the dict: equal both ways, in child order,
    # item by item, by size, membership and repr, and filled into a dict
    assert ours == want and want == ours and not ours != want, draw
    assert list(ours) == list(want) and list(ours.items()) == list(want.items()), draw
    assert list(ours.fill({}).items()) == list(want.items()), draw
    assert len(ours) == len(want) and repr(ours) == repr(want), draw
    assert ours != list(want.items()) and ours != None, draw  # noqa: E711  a Mapping equals only a Mapping
    assert all(agent in ours for agent in want) and "stranger" not in ours and ours.get("stranger") is None, draw


def test_a_room_folds_as_its_rows_built_eagerly():
    # a Room's fold against _fold_rows on the rows its room was read into
    # before, all built up front (_former_peers): explicit receivers, ties,
    # sensitivities 0 to 1e300 in one group, two or none, tolerances 0,
    # 1e-9 and 1e300.  Two folds of one room compare as their dicts do
    rng = np.random.default_rng(3301)
    seen: Counter = Counter()
    for draw in range(300):
        k = int(round(math.exp(rng.uniform(math.log(THRESHOLDS + 4), math.log(600)))))
        explicit = int(rng.integers(1, 4)) if draw % 4 == 0 else 0
        profiles, receivers, aim = _wide_room(rng, k, explicit)
        rows = _folded(lambda: _former_peers(profiles, "0", receivers))
        if isinstance(rows[0], type):  # a peer mean off the range
            continue
        room = network._room_peers(profiles, "0", receivers)
        assert type(room) is Room and room.k == k and list(room) == rows, draw
        folds = []
        for _ in range(2):
            lams, groups = _column(rng, k, aim)
            if rng.random() < 0.1:  # each receiver her own sensitivity: no group
                lams, groups = [float(x) for x in rng.uniform(0.0, 4.0, k + 1)], "no group"
            elif rng.random() < 0.3 and folds:  # the last column, nudged
                lams = [lam * (1.0 + 2.0**-40) for lam in folds[-1][0]]
            tol = (0.0, 1e-9, 1e300)[int(rng.integers(0, 3))]
            eligible, actions, unique, disapprovals = chatroom._fold_rows(rows, lams, tol)
            eq = fold_room(room, lams, tol)
            assert len(actions) == len(eligible) and eq.actions is not None, draw  # one type each
            _assert_same_map(eq.eligible, eligible, draw)
            _assert_same_map(eq.actions, actions, draw)
            assert eq.multiplicity is (Multiplicity.UNIQUE if unique else Multiplicity.MULTIPLE), draw
            assert eq.disapprovals == disapprovals, draw
            folds.append((lams, eq, eligible, actions))
            seen[groups] += 1
            seen["multiple"] += not unique
            seen["tol 1e300"] += tol == 1e300
            seen["zero"] += max(lams) == 0.0
            seen["huge"] += max(lams) >= 1e300
        (_, first, *want1), (_, second, *want2) = folds
        pairs = zip((first.eligible, first.actions), (second.eligible, second.actions), want1, want2)
        for ours1, ours2, w1, w2 in pairs:
            assert (ours1 == ours2) is (w1 == w2) and (ours1 != ours2) is (w1 != w2), draw
            seen["equal folds" if w1 == w2 else "unequal folds"] += 1
        seen["explicit"] += explicit > 0
    print(seen)
    keys = ("one group", "two groups", "no group", "multiple", "tol 1e300", "huge", "explicit", "equal folds",
            "unequal folds")
    assert min(seen[key] for key in keys) >= 20 and seen["zero"] >= 5, seen


def test_a_fold_builds_rows_only_at_stretch_ends_bands_and_loose_receivers(monkeypatch):
    # a stretch reads the rows at its two ends; a band, and a receiver
    # whose sensitivity too few share, folds row by row
    built: Counter = Counter()
    cuts: list = []
    known_rows, segments = chatroom.known_rows, chatroom._segments

    def counted(*args):
        rows = known_rows(*args)
        built["row"] += len(rows)
        return rows

    monkeypatch.setattr(chatroom, "known_rows", counted)
    monkeypatch.setattr(chatroom, "_segments", lambda *args: cuts.append(segments(*args)) or cuts[-1])
    rng = np.random.default_rng(3302)
    rows_built = receivers_folded = 0
    for draw in range(200):
        k = int(round(math.exp(rng.uniform(math.log(THRESHOLDS + 4), math.log(3000)))))
        explicit = int(rng.integers(1, 4)) if draw % 4 == 0 else 0
        profiles, receivers, aim = _wide_room(rng, k, explicit)
        lams, _ = _column(rng, k, aim)
        built.clear()
        room = _folded(lambda: network._room_peers(profiles, "0", receivers))
        if type(room) is not Room:  # a peer mean off the range
            continue
        assert not built, draw  # a Room is built with no row of its run
        cuts.clear()
        fold_room(room, lams, (0.0, 1e-9, 1e300)[draw % 3])
        stretches = sum(is_stretch for out in cuts for _, _, is_stretch in out)
        banded = sum(j - i for out in cuts for i, j, is_stretch in out if not is_stretch)
        shared = Counter(map(lams.__getitem__, room.rows))
        loose = 0 if len(shared) == 1 else sum(n for n in shared.values() if n <= THRESHOLDS)
        assert built["row"] <= 2 * stretches + banded + loose, (draw, built, stretches, banded, loose)
        rows_built += built["row"]
        receivers_folded += k
    print(rows_built, receivers_folded)
    assert 4 * rows_built < receivers_folded, (rows_built, receivers_folded)  # most receivers get no row


def test_a_sweep_compares_a_rooms_folds_by_their_stretches(monkeypatch):
    # sweep_lambda keeps a room's last fold when a refold equals it, and
    # tells so from the stretches: no receiver is looked up, and each walk
    # fills her room's actions into the cascade's once
    from helpers import canonical_mu

    calls: Counter = Counter()
    getitem, fill = chatroom.RoomMap.__getitem__, chatroom.RoomMap.fill
    monkeypatch.setattr(chatroom.RoomMap, "__getitem__", lambda *args: calls.update(["lookup"]) or getitem(*args))
    monkeypatch.setattr(chatroom.RoomMap, "fill", lambda *args: calls.update(["fill"]) or fill(*args))
    rng, mu = np.random.default_rng(3303), canonical_mu()
    kept = 0
    for draw in range(20):
        k = int(rng.integers(THRESHOLDS + 1, 800))
        tree = OrderedTree.from_edges("0", [("0", str(j)) for j in range(1, k + 1)])
        attrs = {"0": AgentProfile(TypeSet.singleton(0.895), 1.0)}
        attrs.update((str(j), AgentProfile(TypeSet.singleton(round(float(x), 6)), 1.0))
                     for j, x in zip(range(1, k + 1), rng.uniform(0.15, 0.85, k)))
        lams = [float(rng.choice([0.0, 0.5, 1.0, 2.0, 1e300]))]
        for _ in range(5):  # values equal to, nudged from or far from the last
            lams.append(rng.choice([lams[-1], lams[-1] * (1.0 + 2.0**-40), float(rng.uniform(0.0, 3.0))]))
        calls.clear()
        results = list(network.sweep_lambda(tree, TreeProfiles(tree, attrs), mu, lams))
        walks = len({id(result) for result in results})
        assert calls == Counter(fill=walks), (draw, calls, walks)
        kept += len(results) - walks
        for lam, result in zip(lams, results):
            at = {a: AgentProfile(p.type_set, lam) for a, p in attrs.items()}
            want = network.solve_global(tree, TreeProfiles(tree, at), mu)
            assert result.receiver_actions == want.receiver_actions, draw
            assert list(result.receiver_actions) == list(want.receiver_actions), draw
    assert kept >= 10, kept


# ---------------------------------------------------------------------------
# how many reactions a command computes


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_a_wide_star_folds_in_a_few_reactions(tmp_path, monkeypatch):
    # the root of a star at 0.895 sends to 3,000 receivers at credences from
    # U(0.15, 0.85), all at sensitivity 1: one run, cut into a few stretches
    rng, n = np.random.default_rng(2803), 3000
    agents = {"1": {"types": 0.895, "lambda": 1.0, "ell": 1}}
    agents.update((str(k + 2), {"types": round(float(x), 6), "lambda": 1.0, "ell": 1})
                  for k, x in enumerate(rng.uniform(0.15, 0.85, n)))
    doc = {
        "evidence": {"mu_given_c": 0.9, "mu_given_not_c": 0.1},
        "topology": {"kind": "tree", "root": "1", "edges": [["1", a] for a in agents if a != "1"]},
        "agents": agents,
        "beliefs": "dirac-truth",
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls: Counter = Counter()
    react = chatroom.react
    monkeypatch.setattr(chatroom, "react", lambda *args: calls.update(["react"]) or react(*args))
    argv = ["solve", str(path), "--format", "json-lines"]
    got = _run(argv)
    assert got[0] == 0 and '"reach_count": 3001' in got[1]
    assert calls["react"] < 100, calls
    # receiver by receiver, the same report from one reaction each
    calls.clear()
    monkeypatch.setattr(network, "THRESHOLDS", n)
    assert _run(argv) == got
    assert calls["react"] == n


def test_sweep_root_on_small_rooms_reacts_once_per_receiver(tmp_path, monkeypatch):
    # block_sweep's rooms hold at most 12 receivers, so each folds one by one
    from test_room_kernel import _load_workloads

    workloads = _load_workloads()
    path = tmp_path / "blocks.json"
    path.write_text(workloads.scenario_text(workloads.WORKLOADS["block_sweep"], 1), encoding="utf-8")
    calls: Counter = Counter()
    react, fold = chatroom.react, network.fold_room
    monkeypatch.setattr(chatroom, "react", lambda *args: calls.update(["react"]) or react(*args))
    monkeypatch.setattr(
        network, "fold_room", lambda rows, lams, tol: calls.update(receivers=len(rows)) or fold(rows, lams, tol)
    )
    assert _run(["sweep-root", str(path), "--format", "json-lines"])[0] == 0
    assert calls["react"] == calls["receivers"] == 525, calls


def test_the_bench_wide_sweep_folds_in_36_reactions(tmp_path, monkeypatch):
    # wide_sweep's two rooms of 400 receivers fold as runs, over 4 λ: the
    # figure the README states for seed 1
    from test_room_kernel import _load_workloads

    workloads = _load_workloads()
    workload = workloads.WORKLOADS["wide_sweep"]
    path = tmp_path / "wide.json"
    path.write_text(workloads.scenario_text(workload, 1), encoding="utf-8")
    calls: Counter = Counter()
    react = chatroom.react
    monkeypatch.setattr(chatroom, "react", lambda *args: calls.update(["react"]) or react(*args))
    assert _run(workload.argv(str(path)))[0] == 0
    assert calls["react"] == 36, calls
