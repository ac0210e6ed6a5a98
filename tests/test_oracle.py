"""Brute-force cross-checks: the oracle enumerates, the engine must agree."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from rumorcast import (
    ACTIONS,
    AgentProfile,
    ChatroomGame,
    GridSpec,
    InstanceTooLarge,
    InvariantViolation,
    Multiplicity,
    OrderedTree,
    PeerDistanceProfile,
    ReceiverAction,
    ReceiverSpec,
    SecondOrderBelief,
    SenderAction,
    TypeSet,
    best_actions,
    canonicalize_result,
    dirac_truth_profiles,
    eligible_actions,
    oracle_best_actions,
    oracle_chatroom_profiles,
    oracle_global,
    oracle_min_lambda,
    oracle_support_points,
    peer_distance,
    solve_chatroom,
    solve_global,
    validate_evidence,
)

from helpers import (
    canonical_mu,
    random_belief,
    random_chatroom_game,
    random_dirac_instance,
)

D = ReceiverAction.DISAPPROVE
S = ReceiverAction.SILENCE
A = ReceiverAction.APPROVE
WIDE = validate_evidence(0.9, 0.1)


class TestReactionOracle:
    def test_matches_engine_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            theta = rng.uniform(0, 1)
            belief = random_belief(rng, dim=int(rng.integers(1, 4)))
            d = peer_distance(belief)
            lam = rng.uniform(0, 5)
            assert oracle_best_actions(theta, d, lam) == best_actions(theta, d, lam)

    def test_support_points_sit_inside_engine_intervals(self):
        from rumorcast import support_interval

        rng = np.random.default_rng(12)
        grid = GridSpec(step=1e-3)
        for _ in range(40):
            d = PeerDistanceProfile.from_dirac(rng.uniform(0, 1))
            lam = rng.uniform(0, 6)
            for action in ACTIONS:
                points = oracle_support_points(action, d, lam, grid)
                interval = support_interval(action, d, lam)
                for t in points:
                    assert interval.contains(t, tol=1e-9)

    def test_min_lambda_grid_scan(self):
        d = PeerDistanceProfile.from_dirac(0.8)
        found = oracle_min_lambda(0.0, d, A)
        assert found == pytest.approx(5.0, abs=1e-3)
        # approval never wins here no matter how large the weight
        d_low = PeerDistanceProfile.from_dirac(0.2)
        assert oracle_min_lambda(0.4, d_low, A, lam_hi=3.0) is None
        assert oracle_min_lambda(0.9, d_low, A, lam_hi=3.0) == 0.0


class TestChatroomOracle:
    def test_profiles_are_product_of_eligible_sets(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            game = random_chatroom_game(rng)
            profiles = oracle_chatroom_profiles(game)
            eligible = [
                eligible_actions(r.type_set, r.belief, r.lam) for r in game.receivers
            ]
            expected = set(itertools.product(*eligible)) if all(eligible) else set()
            assert set(profiles) == expected

    def test_engine_selection_is_enumerated(self):
        rng = np.random.default_rng(14)
        hits = {Multiplicity.UNIQUE: 0, Multiplicity.MULTIPLE: 0, Multiplicity.NONE: 0}
        for _ in range(500):
            game = random_chatroom_game(rng)
            eq = solve_chatroom(game)
            profiles = oracle_chatroom_profiles(game)
            hits[eq.multiplicity] += 1
            if eq.multiplicity is Multiplicity.NONE:
                assert eq.actions is None and not profiles
            else:
                chosen = tuple(eq.actions[r.agent] for r in game.receivers)
                assert chosen in profiles
                assert (len(profiles) == 1) == (eq.multiplicity is Multiplicity.UNIQUE)
        assert hits[Multiplicity.UNIQUE] > 100

    def test_size_caps(self):
        def game_with(n_recv, type_set):
            specs = tuple(
                ReceiverSpec(
                    agent=f"r{i}",
                    type_set=type_set,
                    lam=1.0,
                    belief=SecondOrderBelief.dirac([0.5] * n_recv),
                )
                for i in range(n_recv)
            )
            return ChatroomGame(
                sender="s", sender_types=TypeSet.singleton(0.5), receivers=specs
            )

        with pytest.raises(InstanceTooLarge):
            oracle_chatroom_profiles(game_with(4, TypeSet.singleton(0.5)))
        with pytest.raises(InstanceTooLarge):
            oracle_chatroom_profiles(game_with(2, TypeSet.interval(0.4, 0.6)))
        with pytest.raises(InstanceTooLarge, match="4 types > 3"):
            oracle_chatroom_profiles(game_with(2, TypeSet.finite([0.4, 0.45, 0.5, 0.55])))


class TestGlobalOracle:
    def test_canonical_subtree_equivalence(self):
        """Top two rooms of the ten-agent example, small enough to enumerate."""
        tree = OrderedTree.from_edges(
            "1", [("1", "2"), ("1", "3"), ("1", "4"), ("2", "5"), ("2", "6")]
        )
        theta = {"1": 0.5, "2": 0.26, "3": 0.26, "4": 0.74, "5": 0.14, "6": 0.14}
        attrs = {
            a: AgentProfile(type_set=TypeSet.singleton(t), lam=1.0)
            for a, t in theta.items()
        }
        profiles = dirac_truth_profiles(tree, attrs)
        engine = solve_global(tree, profiles, canonical_mu())
        enumerated = oracle_global(tree, profiles, canonical_mu())
        assert engine.exists and engine.unique
        assert engine.reach == frozenset(theta)
        assert canonicalize_result(tree, engine) in enumerated
        assert len(enumerated) == 1

    def test_multiplicity_is_counted(self):
        """A knife-edge receiver (type 0.25, peer mean 0.25) is indifferent
        between disapproving and staying silent at every sensitivity."""
        tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3")])
        attrs = {
            "1": AgentProfile(type_set=TypeSet.singleton(0.36), lam=1.0),
            "2": AgentProfile(type_set=TypeSet.singleton(0.25), lam=1.0),
            "3": AgentProfile(type_set=TypeSet.singleton(0.14), lam=1.0),
        }
        profiles = dirac_truth_profiles(tree, attrs)
        engine = solve_global(tree, profiles, WIDE)
        assert engine.exists and not engine.unique
        assert engine.multiple_rooms == ("1",)
        assert engine.send_of("1") is SenderAction.SEND
        assert engine.reaction_of("2") is D  # tie resolved toward the lower action
        assert engine.reaction_of("3") is D

        enumerated = oracle_global(tree, profiles, WIDE)
        assert len(enumerated) == 2
        assert canonicalize_result(tree, engine) in enumerated

    def test_random_equivalence(self):
        rng = np.random.default_rng(16)
        uniques = 0
        for _ in range(200):
            tree, profiles, mu = random_dirac_instance(rng)
            engine = solve_global(tree, profiles, mu)
            enumerated = oracle_global(tree, profiles, mu)
            assert engine.exists
            assert canonicalize_result(tree, engine) in enumerated
            if engine.unique:
                uniques += 1
                assert len(enumerated) == 1
            else:
                assert len(enumerated) > 1
        assert uniques > 120

    def test_agent_cap(self):
        tree = OrderedTree.from_edges(
            "1", [("1", str(k)) for k in range(2, 9)]
        )
        attrs = {
            a: AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0)
            for a in tree.agents
        }
        profiles = dirac_truth_profiles(tree, attrs)
        with pytest.raises(InstanceTooLarge):
            oracle_global(tree, profiles, WIDE)

    def test_needs_singleton_types_and_every_belief(self):
        tree = OrderedTree.from_edges("1", [("1", "2")])
        base = dirac_truth_profiles(tree, {a: AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0) for a in "12"})
        for agent, change, said in (
            ("2", {"type_set": TypeSet.finite([0.4, 0.5])}, "needs singleton type sets"),
            ("2", {"receiver_belief": None}, "agent '2' has no receiver belief"),
            ("1", {"sender_belief": None}, "agent '1' has no sender belief"),
        ):
            changed = {**base, agent: dataclasses.replace(base[agent], **change)}
            with pytest.raises(InvariantViolation, match=said):
                oracle_global(tree, changed, WIDE)
