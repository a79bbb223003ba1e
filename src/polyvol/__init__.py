"""Exact volumes of graph polytopes by several independent methods.

numpy, the one runtime dependency, is imported inside the kernels that use
it (the rvf table, the lattice-count table, Monte Carlo and the trace
quadrature), so importing the package, and running the methods that do not
need it, does not load it. The series check runs on the standard library.
"""

from .bipartite import (
    BipartiteGraph,
    alpha_profile,
    from_graph,
    is_side_symmetric,
    perm_volume,
    symmetric_volume,
)
from .closed import (
    altsum_identity,
    euler_numbers,
    family_volume,
    path_generating_coefficients,
)
from .ehrhart import (
    EhrhartFit,
    HStar,
    ehrhart_fit,
    ehrhart_volume,
    hstar,
    hstar_volume,
    lattice_count,
)
from .errors import (
    DSLError,
    MethodNotApplicable,
    ParameterError,
    PolyvolError,
    SizeError,
)
from .graphs import (
    FamilySpec,
    Graph,
    bipartition,
    build_family,
    from_edges,
    graph_from_dsl,
    join_graphs,
    load_edge_list,
    parse_spec,
)
from .mc import mc_volume
from .poly import Polynomial, interpolate
from .rational import format_rational
from .rvf import rvf_volume
from .series import eigen_residual, series_partial, series_target, trace_quadrature
from .slices import (
    SlicedVolume,
    sliced_complete_bipartite,
    sliced_eval,
    sliced_join,
    sliced_multiple,
    sliced_null,
)

__all__ = [
    "BipartiteGraph", "alpha_profile", "from_graph", "is_side_symmetric",
    "perm_volume", "symmetric_volume", "altsum_identity", "euler_numbers",
    "family_volume", "path_generating_coefficients", "EhrhartFit", "HStar",
    "ehrhart_fit", "ehrhart_volume", "hstar", "hstar_volume", "lattice_count",
    "DSLError", "MethodNotApplicable", "ParameterError", "PolyvolError",
    "SizeError", "FamilySpec", "Graph", "bipartition", "build_family",
    "from_edges", "graph_from_dsl", "join_graphs", "load_edge_list",
    "parse_spec", "mc_volume",
    "Polynomial", "interpolate", "format_rational", "rvf_volume",
    "eigen_residual", "series_partial", "series_target", "trace_quadrature",
    "SlicedVolume", "sliced_complete_bipartite", "sliced_eval", "sliced_join",
    "sliced_multiple", "sliced_null",
]
