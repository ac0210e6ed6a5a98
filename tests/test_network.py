"""Trees, cascades, graph validation, and rooting sweeps."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from rumorcast import (
    AgentProfile,
    DomainError,
    InvalidGraph,
    InvariantViolation,
    OrderedTree,
    RangeViolation,
    ReceiverAction,
    SecondOrderBelief,
    SenderAction,
    SocialGraph,
    TypeSet,
    chatrooms_of,
    dirac_truth_profiles,
    reach_by_root,
    root_tree,
    solve_global,
    undirected_closure,
    validate_evidence,
    validate_graph,
)

from helpers import (
    CANONICAL_THETA,
    canonical_attrs,
    canonical_mu,
    canonical_profiles,
    canonical_tree,
    random_dirac_instance,
)

D = ReceiverAction.DISAPPROVE
S = ReceiverAction.SILENCE
A = ReceiverAction.APPROVE
WIDE = validate_evidence(0.9, 0.1)


class TestOrderedTree:
    def test_structure_and_orders(self):
        tree = canonical_tree()
        assert tree.agents[0] == "1"
        assert tree.children_of("1") == ("2", "3", "4")
        assert tree.children_of("2") == ("5", "6")
        assert tree.parent_of("9") == "4"
        assert tree.is_terminal("10") and not tree.is_terminal("3")
        assert tree.non_terminals == ("1", "2", "3", "4")

    def test_chatrooms_follow_the_tree(self):
        rooms = chatrooms_of(canonical_tree())
        assert [(r.sender, r.receivers) for r in rooms] == [
            ("1", ("2", "3", "4")),
            ("2", ("5", "6")),
            ("3", ("7", "8")),
            ("4", ("9", "10")),
        ]
        assert rooms[0].members == ("1", "2", "3", "4")

    def test_rejects_malformed_edge_lists(self):
        with pytest.raises(InvalidGraph):
            OrderedTree.from_edges("1", [("1", "1")])
        with pytest.raises(InvalidGraph):
            OrderedTree.from_edges("1", [("1", "2"), ("3", "2")])
        with pytest.raises(InvalidGraph):
            OrderedTree.from_edges("1", [("2", "1")])
        with pytest.raises(InvalidGraph):
            OrderedTree.from_edges("1", [("1", "2"), ("4", "5")])


class TestDiracTruthProfiles:
    def test_peer_order_is_sender_first(self):
        profiles = canonical_profiles()
        # agent 3 receives in room (1; 2,3,4): peers are 1 then 2 then 4
        belief = profiles["3"].receiver_belief
        assert belief.atoms[0].profile == (0.5, 0.26, 0.74)
        # agent 3 sends to 7 and 8
        assert profiles["3"].sender_belief.atoms[0].profile == (0.14, 0.14)
        assert profiles["7"].sender_belief is None
        assert profiles["1"].receiver_belief is None

    def test_requires_singleton_types(self):
        tree = OrderedTree.from_edges("1", [("1", "2")])
        attrs = {
            "1": AgentProfile(type_set=TypeSet.finite([0.3, 0.5]), lam=1.0),
            "2": AgentProfile(type_set=TypeSet.singleton(0.3), lam=1.0),
        }
        with pytest.raises(InvariantViolation):
            dirac_truth_profiles(tree, attrs)


class TestSolveGlobal:
    def test_canonical_cascade_full_profile(self):
        result = solve_global(canonical_tree(), canonical_profiles(), canonical_mu())
        assert result.exists and result.unique
        assert result.failing_room is None
        assert result.multiple_rooms == ()
        assert result.reach == frozenset(CANONICAL_THETA)
        assert {a: result.send_of(a) for a in ("1", "2", "3", "4")} == {
            a: SenderAction.SEND for a in ("1", "2", "3", "4")
        }
        assert {a: result.reaction_of(a) for a in "234"} == {"2": S, "3": S, "4": S}
        assert all(result.reaction_of(a) is D for a in ("5", "6", "7", "8"))
        assert all(result.reaction_of(a) is S for a in ("9", "10"))
        assert result.reaction_of("1") is None

    def test_single_agent_keeps_the_message(self):
        tree = OrderedTree.from_edges("1", [])
        prof = {"1": AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0)}
        result = solve_global(tree, prof, WIDE)
        assert result.exists and result.unique
        assert result.reach == frozenset({"1"})
        assert result.sender_actions == {} and result.receiver_actions == {}

    def test_missing_profile_rejected(self):
        tree = OrderedTree.from_edges("1", [("1", "2")])
        prof = {"1": AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0)}
        with pytest.raises(InvariantViolation, match="agent '1' can send but has no sender belief"):
            solve_global(tree, prof, WIDE)
        prof["1"] = dataclasses.replace(prof["1"], sender_belief=SecondOrderBelief.dirac([0.5]))
        with pytest.raises(InvariantViolation, match="no profile for agent '2'"):
            solve_global(tree, prof, WIDE)

    def test_off_band_credence_names_the_agent_and_the_field(self):
        # 1 -> 2, 3 and 2 -> 4: agent 1's belief over her receivers holds 0.05
        tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3"), ("2", "4")])
        theta = {"1": 0.85, "2": 0.5, "3": 0.05, "4": 0.95}
        attrs = {a: AgentProfile(type_set=TypeSet.singleton(x), lam=1.0) for a, x in theta.items()}
        band = "outside the open interval (0.1, 0.9)"
        with pytest.raises(DomainError) as caught:
            solve_global(tree, dirac_truth_profiles(tree, attrs), WIDE)
        assert str(caught.value) == f"agent '1': sender belief: credence 0.05 {band}"
        at_half = SecondOrderBelief.dirac([0.5])
        profiles = {
            "1": AgentProfile(type_set=TypeSet.finite([0.5, 0.95]), lam=1.0, sender_belief=at_half),
            "2": AgentProfile(type_set=TypeSet.singleton(0.5), lam=1.0, receiver_belief=at_half),
        }
        with pytest.raises(DomainError) as caught:
            solve_global(OrderedTree.from_edges("1", [("1", "2")]), profiles, WIDE)
        assert str(caught.value) == f"agent '1': types: credence 0.95 {band}"
        # a tolerance that narrows the band says so
        attrs = {a: AgentProfile(type_set=TypeSet.singleton(x), lam=1.0) for a, x in CANONICAL_THETA.items()}
        with pytest.raises(DomainError) as caught:
            solve_global(canonical_tree(), dirac_truth_profiles(canonical_tree(), attrs), WIDE, tol=0.2)
        assert str(caught.value) == (
            f"agent '1': sender belief: credence 0.26 {band} narrowed by the tolerance 0.2 at each end"
        )

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_sensitivity_rejected(self, lam):
        # agent 2 of the tree 1 -> {2, 3}: NaN used to read as "no equilibrium"
        # in the room the sending root opens, and inf as multiple equilibria there
        tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3")])
        theta = {"1": 0.85, "2": 0.3, "3": 0.3}
        with pytest.raises(RangeViolation, match="sensitivity"):
            prof = {
                a: AgentProfile(type_set=TypeSet.singleton(theta[a]), lam=lam if a == "2" else 1.0)
                for a in tree.agents
            }
            solve_global(tree, dirac_truth_profiles(tree, prof), WIDE)

    def test_disapproval_gate_opens_with_sensitivity(self):
        """An early disapprover falls silent at higher sensitivity, which
        unlocks her own sending downstream."""
        tree = OrderedTree.from_edges("1", [("1", "2"), ("1", "3"), ("2", "4")])
        theta = {"1": 0.6, "2": 0.14, "3": 0.55, "4": 0.105}

        def run(lam):
            attrs = {
                a: AgentProfile(type_set=TypeSet.singleton(t), lam=lam, ell=1)
                for a, t in theta.items()
            }
            return solve_global(tree, dirac_truth_profiles(tree, attrs), WIDE)

        low = run(0.2)
        assert low.send_of("1") is SenderAction.SEND
        assert low.reaction_of("2") is D
        assert low.send_of("2") is SenderAction.NOSEND  # own disapproval shuts the gate
        assert low.reach == frozenset({"1", "2", "3"})

        high = run(1.0)
        assert high.reaction_of("2") is S
        assert high.send_of("2") is SenderAction.SEND
        assert high.reach == frozenset({"1", "2", "3", "4"})
        assert high.reaction_of("4") is D

    def test_raising_thresholds_weakly_extends_reach(self):
        rng = np.random.default_rng(67)
        checked = 0
        for _ in range(150):
            tree, profiles, mu = random_dirac_instance(rng)
            base = solve_global(tree, profiles, mu)
            bumped_profiles = {
                a: dataclasses.replace(p, ell=p.ell + 2) for a, p in profiles.items()
            }
            bumped = solve_global(tree, bumped_profiles, mu)
            if not (base.exists and bumped.exists):
                continue
            checked += 1
            assert base.reach <= bumped.reach
        assert checked > 100


class TestGraphValidation:
    def test_glued_cliques_pass(self):
        g = SocialGraph.from_edges(
            [("1", "2"), ("2", "3"), ("3", "1"), ("3", "4"), ("4", "5"), ("5", "3")]
        )
        assert validate_graph(g).ok

    def test_canonical_closure_passes(self):
        g = undirected_closure(canonical_tree())
        assert len(g.edges()) == 15
        assert validate_graph(g).ok

    def test_square_reports_overlapping_circles_first(self):
        g = SocialGraph.from_edges([("1", "2"), ("2", "4"), ("4", "3"), ("3", "1")])
        report = validate_graph(g)
        assert not report.ok
        assert report.violations[0].kind == "overlapping-circles"
        assert set(report.violations[0].witness) == {"1", "2", "3", "4"}

    def test_five_cycle_reports_open_circle(self):
        g = SocialGraph.from_edges(
            [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1")]
        )
        report = validate_graph(g)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"open-circle"}

    def test_disconnected_and_loops_reported(self):
        g = SocialGraph.from_edges([("1", "2"), ("3", "4"), ("2", "2")])
        kinds = [v.kind for v in validate_graph(g).violations]
        assert "self-loop" in kinds and "disconnected" in kinds


class TestRooting:
    def test_reroot_canonical_closure_at_leaf(self):
        g = undirected_closure(canonical_tree())
        tree = root_tree(g, "5")
        assert tree.root == "5"
        assert tree.children_of("5") == ("2", "6")
        assert tree.children_of("2") == ("1", "3", "4")
        assert tree.children_of("3") == ("7", "8")
        assert tree.children_of("4") == ("9", "10")
        assert tree.is_terminal("1") and tree.is_terminal("6")

    def test_invalid_graph_refuses_to_root(self):
        g = SocialGraph.from_edges([("1", "2"), ("2", "4"), ("4", "3"), ("3", "1")])
        with pytest.raises(InvalidGraph):
            root_tree(g, "1")
        with pytest.raises(InvalidGraph):
            root_tree(undirected_closure(canonical_tree()), "99")

    def test_reach_depends_on_where_the_message_starts(self):
        g = undirected_closure(canonical_tree())
        sweep = reach_by_root(g, canonical_attrs(), canonical_mu())
        counts = {root: res.reach_count for root, res in sweep.items()}
        assert counts["1"] == 10
        assert counts["5"] == 1
        assert sweep["5"].send_of("5") is SenderAction.NOSEND
        assert sweep["5"].exists and sweep["5"].unique
        # every cascade exists; reach collapses to 1 wherever the root balks
        assert all(res.exists for res in sweep.values())
        assert counts == {
            "1": 10, "2": 1, "3": 1, "4": 10, "5": 1,
            "6": 1, "7": 1, "8": 1, "9": 1, "10": 1,
        }
