"""Cohomological invariants and minimal-b2 bounds for graph groups.

A finite simple graph presents a right-angled Artin group; this package
computes its Betti numbers, the mod-2 cup-product pairing on degree-2
cohomology, the maximal substituted rank m2, and the resulting bounds and
(where certified) exact values of h, the smallest second Betti number of a
closed oriented 4-manifold with that fundamental group.
"""

from .form import (AlphaVector, CupFormTemplate, Gf2Matrix,
                   SymplecticDecomposition, build_cup_form, dump_matrix,
                   dump_template, kernel_basis, max_isotropic, rank_gf2,
                   render_vector, substitute, symplectic_reduce)
from .graphs import (FORMATS, CliqueIndex, FamilyCertificate, Graph,
                     ParseError, betti, canonical_key, enumerate_cliques,
                     generate_family, induced_subgraph, is_isomorphic,
                     make_graph, maximal_cliques, parse_graph,
                     recognize_family, serialize_graph, to_dot,
                     verify_certificate)
from .hbounds import (CERTIFIED_EXAMPLE, CONJECTURAL_MINIMAL,
                      DECOMPOSITION_AGGREGATE, FREE_ABELIAN, GRID_THEOREM,
                      HEX_THEOREM, STRING_THEOREM, THEOREM_GRADE, TRIVIAL_H4,
                      DecompositionPiece, DecompositionReport, ExactValue,
                      HReport, certified_h, compute_h, decompose_h, h_family,
                      h_free_abelian)
from .solver import (CapExceeded, M2Result, RadicalBasis, SolverConfig,
                     compute_m2, m2_heuristic, parity_ceiling, radical_at)

__version__ = "0.1.0"

__all__ = [
    "AlphaVector", "CERTIFIED_EXAMPLE", "CONJECTURAL_MINIMAL", "CapExceeded",
    "CliqueIndex", "CupFormTemplate", "DECOMPOSITION_AGGREGATE",
    "DecompositionPiece", "DecompositionReport", "ExactValue", "FORMATS",
    "FREE_ABELIAN", "FamilyCertificate", "GRID_THEOREM", "Gf2Matrix", "Graph",
    "HEX_THEOREM", "HReport", "M2Result", "ParseError", "RadicalBasis",
    "STRING_THEOREM", "SolverConfig", "SymplecticDecomposition",
    "THEOREM_GRADE", "TRIVIAL_H4", "betti", "build_cup_form", "canonical_key",
    "certified_h", "compute_h", "compute_m2", "decompose_h", "dump_matrix",
    "dump_template", "enumerate_cliques", "generate_family", "h_family",
    "h_free_abelian", "induced_subgraph", "is_isomorphic", "kernel_basis",
    "m2_heuristic", "make_graph", "max_isotropic", "maximal_cliques",
    "parity_ceiling", "parse_graph", "radical_at", "rank_gf2",
    "recognize_family", "render_vector", "serialize_graph", "substitute",
    "symplectic_reduce", "to_dot", "verify_certificate",
]
