"""The package's shape: its exported names, the imports that keep the
two certificate routes independent, the packed-key names that stay inside
`polynomials`, the names the benchmark's tracer binds to, and the layout
of the committed benchmark results."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
from pathlib import Path

import wdlab
from helpers import additive_factors
from wdlab import coloring, eulerian, graphs, polynomials, wd

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(wdlab.__file__).parent

EXPORTS = {
    "BoundExceededError",
    "CappedPolynomial",
    "EulerianCount",
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
    "build_wd",
    "check_simplicial_sink_hypothesis",
    "check_tripartite_hypothesis",
    "classical_coefficient",
    "conjecture_sweep",
    "count_ee_eo_classic",
    "count_ee_eo_wd",
    "expand_capped",
    "find_additive_coloring",
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


def module_tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def package_imports(module: str) -> set[str]:
    """Sibling modules of the package that `module` imports."""
    found = set()
    for node in ast.walk(module_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add(node.module or "")
            elif (node.module or "").split(".")[0] == "wdlab":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "wdlab")
    return found


def helpers_tree() -> ast.Module:
    return ast.parse((ROOT / "tests" / "helpers.py").read_text())


def helpers_imports() -> set[str]:
    """The dotted names `tests/helpers.py` imports, "wdlab.Graph" for
    `from wdlab import Graph`."""
    imported = set()
    for node in ast.walk(helpers_tree()):
        if isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_exports_sorted_unique_and_pinned():
    names = wdlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == EXPORTS
    assert all(hasattr(wdlab, name) for name in names)


def test_eulerian_route_shares_no_code_with_the_coefficient_route():
    # coefficient = ee - eo is a check only while the two routes are apart,
    # and ee and eo are checked only while the tests' brute-force oracle
    # shares no code with the frontier counter: it takes EulerianCount from
    # wdlab and nothing from wdlab.eulerian
    assert package_imports("eulerian") <= {"errors", "graphs"}
    assert package_imports("polynomials") <= {"graphs"}
    imported = helpers_imports()
    assert "wdlab.EulerianCount" in imported
    assert not [name for name in imported if name.startswith("wdlab.eulerian")]


#: All that the tests' gamma-path reference may take from `wdlab.wd`.
WD_NAMES_IN_HELPERS = {"SectorX", "SectorY", "Star", "WDigraph"}


def test_gamma_path_reference_shares_no_code_with_build_wd():
    # build_wd is held equal to the union of the helpers' gamma-paths, a
    # check only while the helpers spell the paths out on their own: they
    # take the vertex types and WDigraph from wdlab.wd and never call build_wd
    imported = helpers_imports()
    from_wd = {
        name.rpartition(".")[2]
        for name in imported
        if name.startswith("wdlab.wd.")  # or a wdlab name that wd defines
        or getattr(getattr(wdlab, name.removeprefix("wdlab."), None), "__module__", None)
        == wd.__name__
    }
    assert "Star" in from_wd
    assert from_wd <= WD_NAMES_IN_HELPERS
    assert "wdlab.wd" not in imported  # neither `import wdlab.wd` nor `from wdlab import wd`
    assert "build_wd" not in names_used(helpers_tree())


def test_import_scan_sees_package_imports():
    assert package_imports("cli") >= {"coloring", "eulerian", "graphs", "polynomials", "wd"}


#: The names that spell the packed-key layout of the expansions.
PACKED_LAYOUT = {"_bit_fields", "_packed", "_product", "_expand", "Field"}


def names_used(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name that `tree` spells."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_polynomials_knows_the_packed_layout():
    # the sweep takes its coefficients from one polynomials function, and
    # no other module can build or read a packed key
    imported = [
        alias.name
        for node in ast.walk(module_tree("coloring"))
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "polynomials"
        for alias in node.names
    ]
    assert len(imported) == 1, imported
    assert names_used(module_tree("polynomials")) >= PACKED_LAYOUT
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "polynomials":
            assert not names_used(module_tree(path.stem)) & PACKED_LAYOUT, path.name


def test_benchmark_tracer_hooks_bind_to_the_package():
    # the benchmark's tracer wraps its targets by module and name and reads
    # `support()` off expand_capped's first argument and `terms` off its
    # result; one call to each target must land in its counters
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = polynomials.expand_capped
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        G = graphs.parse("3\n1 -- 2\n2 -- 3\n1 -- 3\n")
        D = graphs.orientation_from_index(G, 0)
        wd.build_wd(D)
        eulerian.count_ee_eo_wd(D)
        eulerian.count_ee_eo_classic(D)
        polynomials.additive_coefficient(D)
        polynomials.classical_coefficient(D)
        polynomials.expand_capped(additive_factors(D), D.out_degrees())
        coloring.find_additive_coloring(G, {v: [1, 2, 3] for v in G.vertices()})
        coloring.conjecture_sweep(G)
        coloring.check_simplicial_sink_hypothesis(G, D)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for name in spans.NAMES:
        assert counts[name + ".calls"] >= 1, name
    assert counts["polynomials.factor_support"] > 0
    assert counts["polynomials.final_terms"] > 0
    # uninstalled, the package's own functions are back in place
    assert polynomials.expand_capped is original is wdlab.expand_capped


def test_committed_bench_files_share_one_layout():
    # every BENCH_*.json holds one correct, failure-free result per workload
    # with exactly the end-to-end metrics the benchmark declares, and every
    # change's file has its parent's beside it
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    assert workloads == {"thin", "dense", "sweep", "lists"}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        results = json.loads(path.read_text())
        assert set(results) == workloads, path.name
        for name, result in results.items():
            assert result["correct"] is True, (path.name, name)
            assert result["failed"] == 0, (path.name, name)
            assert set(result["metrics"]) == metrics, (path.name, name)
        tag = re.fullmatch(r"BENCH_(pr\d+)(_parent)?\.json", path.name)
        assert tag, path.name
        if not tag[2]:
            assert (ROOT / f"BENCH_{tag[1]}_parent.json").exists(), path.name
