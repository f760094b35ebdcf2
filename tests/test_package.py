"""The package's shape: its exported names and the imports that keep the
two certificate routes independent."""

from __future__ import annotations

import ast
from pathlib import Path

import wdlab

EXPORTS = {
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
}


def package_imports(module: str) -> set[str]:
    """Sibling modules of the package that `module` imports."""
    tree = ast.parse((Path(wdlab.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "")
            elif (node.module or "").split(".")[0] == "wdlab":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "wdlab")
    return found


def test_exports_sorted_unique_and_pinned():
    names = wdlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == EXPORTS
    assert all(hasattr(wdlab, name) for name in names)


def test_eulerian_route_shares_no_code_with_the_coefficient_route():
    # coefficient = ee - eo is a check only while the two routes are apart
    assert package_imports("eulerian") <= {"errors", "graphs"}
    assert package_imports("polynomials") <= {"graphs"}


def test_import_scan_sees_package_imports():
    assert package_imports("cli") >= {"coloring", "eulerian", "graphs", "polynomials", "wd"}
