"""Spectral conditions for regular factors, checked empirically.

Library layout:
  graph / graph6      bitmask graphs and the ASCII interchange format
  constructions       named families, including the extremal members
  spectral            eigenvalues, quotient matrices, threshold values
  matching / factors  blossom matching and the f-factor gadget engine
  oracle              exhaustive Tutte-condition ground truth
  corpus              exhaustive enumeration and seeded random models
  theorems            verification campaigns and structural checks
  cli                 the `specfactor` command
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    complement,
    connected_components,
    disjoint_union,
    induced_subgraph,
    join,
)
from .graph6 import Graph6Error, parse_graph6, to_graph6
from .constructions import build
from .spectral import (
    SpectralThreshold,
    cubic_family,
    eigenvalues,
    is_equitable,
    largest_root,
    quotient_matrix,
    rho1,
    rho2,
)
from .matching import matching_number, max_matching
from .factors import (
    FactorReport,
    deficiency,
    has_f_factor,
    is_k_critical,
    k_factor,
)
from .oracle import (
    DeltaBreakdown,
    STPair,
    brute_force_deficiency,
    brute_force_has_k_factor,
    delta,
)
from .corpus import (
    enumerate_connected_graphs,
    enumerate_connected_regular,
    random_class_member,
    random_regular,
)
from .theorems import (
    CampaignReport,
    HypothesisProfile,
    Lemma31Result,
    check_lemma_3_1,
    classify_hypothesis,
    ordering_report,
    verify_thm_2_1,
    verify_thm_2_2,
    verify_thm_3_2,
    verify_thm_3_3,
)

__all__ = [
    "Graph",
    "Graph6Error",
    "SpectralThreshold",
    "FactorReport",
    "DeltaBreakdown",
    "STPair",
    "CampaignReport",
    "HypothesisProfile",
    "Lemma31Result",
    "__version__",
    "build",
    "brute_force_deficiency",
    "brute_force_has_k_factor",
    "check_lemma_3_1",
    "classify_hypothesis",
    "complement",
    "connected_components",
    "cubic_family",
    "deficiency",
    "delta",
    "disjoint_union",
    "eigenvalues",
    "enumerate_connected_graphs",
    "enumerate_connected_regular",
    "has_f_factor",
    "induced_subgraph",
    "is_equitable",
    "is_k_critical",
    "join",
    "k_factor",
    "largest_root",
    "matching_number",
    "max_matching",
    "ordering_report",
    "parse_graph6",
    "quotient_matrix",
    "random_class_member",
    "random_regular",
    "rho1",
    "rho2",
    "to_graph6",
    "verify_thm_2_1",
    "verify_thm_2_2",
    "verify_thm_3_2",
    "verify_thm_3_3",
]
