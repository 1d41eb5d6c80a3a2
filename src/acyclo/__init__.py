"""Exact-arithmetic volumes, Ehrhart polynomials, lattice-point counts and
face lattices of hypergraphic zonotopes and acyclohedra, with independent
brute-force oracles."""

from .census import (
    CensusReport,
    EhrhartPolynomial,
    duality_volume_check,
    ehrhart,
    enumerate_spanning_hyperforests,
    hypertree_census,
    kalai_census,
    lattice_point_count,
    merge_census_reports,
    volume,
)
from .complexes import (
    Chain,
    Hypergraph,
    SimplexIndex,
    boundary_column,
    boundary_matrix,
    coboundary_apply,
    complete_hypergraph,
    cycle_space_dim,
    edge_columns,
    permutation_sign,
)
from .errors import BudgetExceededError, HypergraphParseError
from .exactalg import IntMatrix, Rational, SnfResult, nullspace, rank, saturation_index, snf
from .faces import (
    FaceDescriptor,
    FaceLattice,
    Hypertournament,
    SignPattern,
    enumerate_vertices,
    face_lattice,
    facets,
    is_acyclic_hypertournament,
    partition_pattern,
    validity_check,
    vertex_adjacency,
    vertex_point,
)
from .homology import (
    SubcomplexSelection,
    betti,
    is_hyperforest,
    is_spanning_hypertree,
    restricted_boundary_matrix,
    torsion_order,
)
from .oracle import (
    OracleReport,
    ehrhart_fit_check,
    kirchhoff_tree_count,
    lattice_points_direct,
    matrix_tree_sum,
    signpattern_bruteforce,
    torsion_rowreduce,
)

__version__ = "0.1.0"
