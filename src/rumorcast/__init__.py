"""rumorcast: equilibrium engine for peer-pressured message cascades.

The package models agents who pass a dubious message down a tree of
chatrooms.  Receivers react (disapprove, stay silent, approve) balancing
their own credence against expected peer positions; senders forward only
when doing so pulls their audience's worldviews closer to their own and
recent disapproval has not shut them down.  Modules:

- :mod:`rumorcast.belief`: evidence relation and worldview maps.
- :mod:`rumorcast.receiver`: the three-action reaction game.
- :mod:`rumorcast.chatroom`: local games and their equilibria.
- :mod:`rumorcast.sender`: forwarding payoffs and the send rule.
- :mod:`rumorcast.network`: trees, cascades, acquaintance graphs.
- :mod:`rumorcast.oracle`: brute-force cross-checks.
- :mod:`rumorcast.scenario` / :mod:`rumorcast.cli`: file format and tool.
"""

from .belief import (
    EPS,
    EvidenceRelation,
    credence_from_prior,
    validate_evidence,
    worldview_posterior,
    worldview_prior,
)
from .chatroom import (
    ChatroomEquilibrium,
    ChatroomGame,
    Multiplicity,
    ReceiverSpec,
    TypeSet,
    eligible_actions,
    solve_chatroom,
)
from .errors import (
    DomainError,
    EmptySupport,
    Infeasible,
    InstanceTooLarge,
    InvalidGraph,
    InvariantViolation,
    OrderingViolation,
    ParseError,
    RangeViolation,
    RumorcastError,
    SchemaError,
)
from .network import (
    AgentProfile,
    CascadeResult,
    Chatroom,
    OrderedTree,
    SocialGraph,
    TreeProfiles,
    chatrooms_of,
    dirac_truth_profiles,
    reach_by_root,
    root_tree,
    solve_global,
    undirected_closure,
    validate_graph,
)
from .oracle import (
    Assignment,
    GridSpec,
    canonicalize_result,
    oracle_best_actions,
    oracle_chatroom_profiles,
    oracle_global,
    oracle_min_lambda,
    oracle_support_points,
)
from .receiver import (
    ACTIONS,
    PeerDistanceProfile,
    ReceiverAction,
    SecondOrderBelief,
    SupportInterval,
    best_actions,
    lambda_star,
    min_lambda_for_action,
    peer_distance,
    support_interval,
    utility,
)
from .scenario import (
    DIRAC_TRUTH,
    BeliefOverride,
    Diagnostic,
    Scenario,
    Topology,
    load_scenario,
    normalize_scenario,
    parse_scenario,
    scenario_diagnostics,
    scenario_to_obj,
)
from .sender import (
    SenderAction,
    decide_send,
    expected_send_gain,
    nu_breakpoints,
    nu_value,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "AgentProfile",
    "Assignment",
    "BeliefOverride",
    "CascadeResult",
    "Chatroom",
    "ChatroomEquilibrium",
    "ChatroomGame",
    "DIRAC_TRUTH",
    "Diagnostic",
    "DomainError",
    "EPS",
    "EmptySupport",
    "EvidenceRelation",
    "GridSpec",
    "Infeasible",
    "InstanceTooLarge",
    "InvalidGraph",
    "InvariantViolation",
    "Multiplicity",
    "OrderedTree",
    "OrderingViolation",
    "ParseError",
    "PeerDistanceProfile",
    "RangeViolation",
    "ReceiverAction",
    "ReceiverSpec",
    "RumorcastError",
    "Scenario",
    "SchemaError",
    "SecondOrderBelief",
    "SenderAction",
    "SocialGraph",
    "SupportInterval",
    "Topology",
    "TreeProfiles",
    "TypeSet",
    "best_actions",
    "canonicalize_result",
    "chatrooms_of",
    "credence_from_prior",
    "decide_send",
    "dirac_truth_profiles",
    "eligible_actions",
    "expected_send_gain",
    "lambda_star",
    "load_scenario",
    "min_lambda_for_action",
    "normalize_scenario",
    "nu_breakpoints",
    "nu_value",
    "oracle_best_actions",
    "oracle_chatroom_profiles",
    "oracle_global",
    "oracle_min_lambda",
    "oracle_support_points",
    "parse_scenario",
    "peer_distance",
    "reach_by_root",
    "root_tree",
    "scenario_diagnostics",
    "scenario_to_obj",
    "solve_chatroom",
    "solve_global",
    "support_interval",
    "undirected_closure",
    "utility",
    "validate_evidence",
    "validate_graph",
    "worldview_posterior",
    "worldview_prior",
]
