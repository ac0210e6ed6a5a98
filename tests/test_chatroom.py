"""Local chatroom games: type sets, eligibility, solving, robustness."""

from __future__ import annotations

import numpy as np
import pytest

from rumorcast import (
    ChatroomGame,
    InvariantViolation,
    Multiplicity,
    RangeViolation,
    ReceiverAction,
    ReceiverSpec,
    SecondOrderBelief,
    TypeSet,
    eligible_actions,
    solve_chatroom,
)

from helpers import random_chatroom_game

D = ReceiverAction.DISAPPROVE
S = ReceiverAction.SILENCE
A = ReceiverAction.APPROVE


class TestTypeSet:
    def test_finite_sorts_and_dedupes(self):
        ts = TypeSet.finite([0.8, 0.2, 0.8])
        assert ts.values == (0.2, 0.8)
        assert ts.centroid == pytest.approx(0.5)

    def test_singleton(self):
        ts = TypeSet.singleton(0.26)
        assert ts.is_singleton and ts.value == 0.26
        for other in (TypeSet.finite([0.2, 0.3]), TypeSet.interval(0.2, 0.3)):
            with pytest.raises(InvariantViolation, match="not a singleton"):
                other.value

    def test_interval(self):
        ts = TypeSet.interval(0.2, 0.4)
        assert not ts.is_finite
        assert ts.centroid == pytest.approx(0.3)
        assert ts.contains(0.2) and ts.contains(0.4) and not ts.contains(0.41)

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            TypeSet(values=(0.5,), bounds=(0.1, 0.2))
        with pytest.raises(InvariantViolation):
            TypeSet(values=None, bounds=None)
        with pytest.raises(InvariantViolation):
            TypeSet.finite([])
        with pytest.raises(InvariantViolation):
            TypeSet.interval(0.5, 0.4)

    def test_unit_range_enforced(self):
        from rumorcast import RangeViolation

        with pytest.raises(RangeViolation):
            TypeSet.singleton(1.2)
        with pytest.raises(RangeViolation):
            TypeSet.interval(-0.1, 0.5)

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda: TypeSet.singleton(True), "True"),
            (lambda: TypeSet.finite([True, 0.5]), "True"),
            (lambda: TypeSet.interval(False, 0.5), "False"),
            (lambda: TypeSet.finite(["a"]), "'a'"),
            (lambda: TypeSet.interval(0.2, None), "None"),
        ],
    )
    def test_bools_and_non_numbers_are_refused(self, build, value):
        with pytest.raises(RangeViolation, match=f"^credence must be a number, got {value}$"):
            build()

    def test_an_int_too_large_for_a_float_is_out_of_range(self):
        with pytest.raises(RangeViolation, match="^credence 1000+ outside"):
            TypeSet.finite([10**400])
        assert TypeSet.finite([0, 1]).values == (0.0, 1.0)


def _game(receiver_types, lam, belief_profile=(0.8, 0.8), sender_types=None):
    """Two-receiver room with shared Dirac beliefs at belief_profile."""
    sender_ts = sender_types or TypeSet.singleton(belief_profile[0])
    specs = []
    for i, ts in enumerate(receiver_types):
        specs.append(
            ReceiverSpec(
                agent=f"r{i}",
                type_set=ts,
                lam=lam,
                belief=SecondOrderBelief.dirac(belief_profile),
            )
        )
    return ChatroomGame(sender="s", sender_types=sender_ts, receivers=tuple(specs))


class TestGameInvariants:
    def test_duplicate_receiver_rejected(self):
        spec = ReceiverSpec(
            agent="r0",
            type_set=TypeSet.singleton(0.8),
            lam=1.0,
            belief=SecondOrderBelief.dirac([0.8, 0.8]),
        )
        with pytest.raises(InvariantViolation):
            ChatroomGame(sender="s", sender_types=TypeSet.singleton(0.8), receivers=(spec, spec))
        with pytest.raises(InvariantViolation, match="at least one receiver"):
            ChatroomGame(sender="s", sender_types=TypeSet.singleton(0.8), receivers=())

    def test_belief_dimension_must_match_room_size(self):
        spec = ReceiverSpec(
            agent="r0",
            type_set=TypeSet.singleton(0.8),
            lam=1.0,
            belief=SecondOrderBelief.dirac([0.8, 0.8]),  # two peers, room has one
        )
        with pytest.raises(InvariantViolation):
            ChatroomGame(sender="s", sender_types=TypeSet.singleton(0.8), receivers=(spec,))

    def test_belief_support_must_sit_in_type_sets(self):
        # both receivers are sure everyone sits at 0.8, but the type sets
        # only allow [0, 0.6]: the model is self-contradictory
        low = TypeSet.interval(0.0, 0.6)
        with pytest.raises(InvariantViolation):
            _game([low, low], lam=3.0, belief_profile=(0.8, 0.8), sender_types=low)


    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_sensitivity_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(RangeViolation, match="sensitivity"):
            ReceiverSpec(agent="r0", type_set=TypeSet.singleton(0.8), lam=lam, belief=SecondOrderBelief.dirac([0.8]))


class TestEligibleActions:
    def test_finite_types_intersect_best_responses(self):
        belief = SecondOrderBelief.dirac([0.8, 0.8])
        got = eligible_actions(TypeSet.finite([0.62, 0.8]), belief, lam=3.0)
        assert got == {A}

    def test_silence_unsupportable_above_its_window(self):
        belief = SecondOrderBelief.dirac([0.8, 0.8])
        for ts in (TypeSet.singleton(0.8), TypeSet.interval(0.65, 0.9), TypeSet.finite([0.61, 0.7])):
            assert S not in eligible_actions(ts, belief, lam=3.0)

    def test_interval_needs_full_containment(self):
        belief = SecondOrderBelief.dirac([0.8, 0.8])
        # silence is optimal only on [0, 0.6]; approve only on [0.6, 1]
        assert eligible_actions(TypeSet.interval(0.55, 0.85), belief, lam=3.0) == frozenset()
        assert eligible_actions(TypeSet.interval(0.61, 0.99), belief, lam=3.0) == {A}
        assert eligible_actions(TypeSet.interval(0.1, 0.59), belief, lam=3.0) == {S}

    def test_interval_route_agrees_with_dense_sampling(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            profile = rng.uniform(0.0, 1.0, size=dim).tolist()
            belief = SecondOrderBelief.dirac(profile)
            lo = float(rng.uniform(0.0, 0.8))
            hi = float(rng.uniform(lo, min(lo + 0.5, 1.0)))
            lam = float(rng.uniform(0.0, 5.0))
            via_interval = eligible_actions(TypeSet.interval(lo, hi), belief, lam)
            sample = TypeSet.finite(np.linspace(lo, hi, 41).tolist())
            via_points = eligible_actions(sample, belief, lam)
            assert via_interval <= via_points


class TestSolveChatroom:
    def test_unique_equilibrium_flagged(self):
        game = _game([TypeSet.singleton(0.8), TypeSet.singleton(0.8)], lam=6.0)
        eq = solve_chatroom(game)
        assert eq.multiplicity is Multiplicity.UNIQUE
        assert eq.actions == {"r0": A, "r1": A}

    def test_unique_across_type_variants(self):
        for ts in (TypeSet.finite([0.8]), TypeSet.finite([0.7, 0.8, 0.9]), TypeSet.interval(0.7, 0.9)):
            game = _game([ts, ts], lam=6.0)
            eq = solve_chatroom(game)
            assert eq.multiplicity is Multiplicity.UNIQUE
            assert set(eq.actions.values()) == {A}

    def test_no_equilibrium_reported_not_raised(self):
        game = _game([TypeSet.interval(0.55, 0.85)], lam=3.0, belief_profile=(0.8,))
        eq = solve_chatroom(game)
        assert eq.multiplicity is Multiplicity.NONE
        assert eq.actions is None
        assert eq.eligible["r0"] == frozenset()

    def test_selection_prefers_centroid_then_lower(self):
        # types at the split point 0.25 make disapprove and silence tie
        game = _game([TypeSet.singleton(0.25)], lam=1.0, belief_profile=(0.25,))
        eq = solve_chatroom(game)
        assert eq.eligible["r0"] == {D, S}
        assert eq.multiplicity is Multiplicity.MULTIPLE
        assert eq.actions == {"r0": D}

    def test_relabeling_receivers_does_not_change_outcomes(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            game = random_chatroom_game(rng)
            eq = solve_chatroom(game)
            n = len(game.receivers)
            if n < 2:
                continue
            perm = rng.permutation(n)
            # peers of receiver i are [sender] + others in room order, so a
            # room permutation reorders belief coordinates past the sender
            reordered = []
            for new_pos, old_idx in enumerate(perm):
                spec = game.receivers[old_idx]
                others_old = [j for j in range(n) if j != old_idx]
                others_new = [int(j) for j in perm if j != old_idx]
                coord_map = [0] + [1 + others_old.index(j) for j in others_new]
                atoms = [
                    (tuple(atom.profile[k] for k in coord_map), atom.weight)
                    for atom in spec.belief.atoms
                ]
                reordered.append(
                    ReceiverSpec(
                        agent=spec.agent,
                        type_set=spec.type_set,
                        lam=spec.lam,
                        belief=SecondOrderBelief.mixture(atoms),
                    )
                )
            shuffled = ChatroomGame(
                sender=game.sender,
                sender_types=game.sender_types,
                receivers=tuple(reordered),
            )
            eq2 = solve_chatroom(shuffled)
            assert eq.multiplicity == eq2.multiplicity
            assert eq.eligible == eq2.eligible
            if eq.actions is not None:
                assert eq.actions == eq2.actions


class TestAllTypesRobustness:
    """Whether a receiver has an equilibrium action whatever her credence in
    the admissible band: the eligible set of the band as one interval type."""

    BAND = TypeSet.interval(0.1, 0.9)

    def test_high_sensitivity_survives_any_types(self):
        belief = SecondOrderBelief.dirac((0.9,))
        assert eligible_actions(self.BAND, belief, 10.0) == {A}

    def test_moderate_sensitivity_fails_somewhere(self):
        belief = SecondOrderBelief.dirac((0.9,))
        assert eligible_actions(self.BAND, belief, 1.0) == frozenset()
