"""wdlab: sector digraphs, Eulerian parity counts, and additive list coloring.

Build the derived sector digraph W(D) of any orientation D, count its even
and odd spanning Eulerian subdigraphs two independent ways, extract the
matching coefficients of the classical and additive orientation
polynomials, and use them to certify and construct additive list
colorings.
"""

from .coloring import (
    SweepReport,
    check_simplicial_sink_hypothesis,
    check_tripartite_hypothesis,
    conjecture_sweep,
    find_additive_coloring,
    induced_sums,
    is_additive_coloring,
)
from .errors import BoundExceededError, ParseError
from .eulerian import (
    EulerianCount,
    count_ee_eo_bruteforce,
    count_ee_eo_classic,
    count_ee_eo_wd,
    enumerate_eulerian_spanning,
)
from .graphs import (
    Graph,
    Orientation,
    VertexPartition,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    orientation_from_index,
    parse,
    simplicial_vertices,
    to_text,
)
from .polynomials import (
    CappedPolynomial,
    LinearFactor,
    additive_coefficient,
    additive_factors,
    classical_coefficient,
    classical_factors,
    expand_capped,
)
from .wd import (
    GammaPath,
    SectorX,
    SectorY,
    Star,
    WDigraph,
    build_wd,
    gamma_paths_for_arc,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "CappedPolynomial",
    "EulerianCount",
    "GammaPath",
    "Graph",
    "LinearFactor",
    "Orientation",
    "ParseError",
    "SectorX",
    "SectorY",
    "Star",
    "SweepReport",
    "VertexPartition",
    "WDigraph",
    "additive_coefficient",
    "additive_factors",
    "build_wd",
    "check_simplicial_sink_hypothesis",
    "check_tripartite_hypothesis",
    "classical_coefficient",
    "classical_factors",
    "conjecture_sweep",
    "count_ee_eo_bruteforce",
    "count_ee_eo_classic",
    "count_ee_eo_wd",
    "enumerate_eulerian_spanning",
    "expand_capped",
    "find_additive_coloring",
    "gamma_paths_for_arc",
    "gen_complete",
    "gen_complete_bipartite",
    "gen_cycle",
    "gen_sun",
    "induced_sums",
    "is_additive_coloring",
    "orientation_from_index",
    "parse",
    "simplicial_vertices",
    "to_text",
]
