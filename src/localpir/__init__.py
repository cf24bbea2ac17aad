"""Local private information retrieval on edge-replicated storage.

Servers are graph vertices; each message is an edge, stored at exactly its
two endpoint servers.  The privacy requirement is local: a server must not
learn which message is wanted whenever that message is one it stores.  The
package builds the known achievable schemes, decides privacy exactly by
grouping each server's views into canonical view classes, simulates
retrievals, and computes capacity bounds.
"""

from .capacity import (
    BoundReport,
    BoundValue,
    Comparator,
    equal_degree_bound,
    et_download_cost,
    et_lower_bound,
    et_rate,
    family_bounds,
    graph_bounds,
    subpacketization,
    union_capacity,
)
from .errors import LocalPIRError
from .graphs import (
    Graph,
    bipartition,
    build_graph,
    components,
    detect_family,
    family,
    graph_from_json,
    graph_to_json,
)
from .scheme import (
    PlanConfig,
    SchemePlan,
    bipartite_config,
    build_bipartite_plan,
    build_et_plan,
    build_plan,
    build_plan_family,
    build_union_plan,
    derive_recipe,
    et_config,
    fixture_config,
    union_config,
)
from .sim import RateReport, Transcript, execute_plan, measure_rate, run_retrieval
from .verify import (
    DEFAULT_CAP,
    PrivacyReport,
    SchemeReport,
    canonical_privacy_probe,
    check_scheme,
    cost_audit,
    decode_check,
    privacy_check,
    view_classes,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "BoundValue", "Comparator", "DEFAULT_CAP", "Graph",
    "LocalPIRError", "PlanConfig", "PrivacyReport", "RateReport", "SchemePlan",
    "SchemeReport", "Transcript", "bipartite_config", "bipartition",
    "build_bipartite_plan", "build_et_plan", "build_graph", "build_plan",
    "build_plan_family", "build_union_plan", "canonical_privacy_probe",
    "check_scheme", "components", "cost_audit", "decode_check",
    "derive_recipe", "detect_family", "equal_degree_bound", "et_config",
    "et_download_cost", "et_lower_bound", "et_rate", "execute_plan", "family",
    "family_bounds", "fixture_config", "graph_bounds", "graph_from_json",
    "graph_to_json", "measure_rate", "privacy_check", "run_retrieval",
    "subpacketization", "union_capacity", "union_config", "view_classes",
]
