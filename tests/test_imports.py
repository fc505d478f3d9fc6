"""The package's import set and import graph, and the tail probabilities
that replace scipy.stats: each call site returns what scipy.stats returned,
bit for bit."""
import ast
import graphlib
import math
import os
import pathlib
import subprocess
import sys

import pytest
from scipy import stats

import levquant
from levquant import QuantileFit, hausman_decision
from levquant.panel import _t_two_sided_p

STATISTICS = (0.0, -0.0, 1e-300, 0.5, 1.96, 3.3, 40.0, 1e6, math.inf, -math.inf, math.nan, -1.0)
DFS = (0, 1, 2, 28, 298)


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


def test_a_fresh_import_loads_neither_scipy_stats_nor_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(levquant.__file__)))
    code = "import sys, levquant, levquant.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "levquant.cli" in out
    assert [m for m in out if m.startswith(("scipy.stats", "scipy.optimize"))] == []


def package_imports():
    """module -> [(levquant module it imports, whether inside a function)]."""
    out = {}
    for path in sorted(pathlib.Path(levquant.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_function = {
            id(node) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        edges = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = "levquant." * (node.level > 0) + (node.module or "")
                names = [module] if node.module else [module + a.name for a in node.names]
            else:
                continue
            edges += [
                (name.split(".")[1], id(node) in in_function)
                for name in names if name.startswith("levquant.")
            ]
        out[path.stem] = edges
    return out


def test_no_package_import_runs_at_call_time_and_the_import_graph_is_acyclic():
    imports = package_imports()
    assert {"quantreg", "effects", "adjustment"} <= set(imports)
    late = {m: sorted({t for t, call in edges if call}) for m, edges in imports.items()}
    assert {m: t for m, t in late.items() if t} == {}
    graph = {m: {t for t, _ in edges} for m, edges in imports.items()}
    assert graph["quantreg"] == {"errors"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


@pytest.mark.parametrize("df", DFS)
def test_hausman_p_is_chi2_sf(df):
    for statistic in STATISTICS:
        p, _ = hausman_decision(statistic, df)
        assert same_bits(p, float(stats.chi2.sf(statistic, df))), (statistic, df, p)


@pytest.mark.parametrize("df", DFS)
def test_correlation_p_is_twice_t_sf(df):
    for t in STATISTICS:
        p = _t_two_sided_p(t, df)
        assert same_bits(p, 2.0 * float(stats.t.sf(abs(t), df))), (t, df, p)


@pytest.mark.parametrize("se", (1e-300, 0.3, 1.0, 7.5, math.inf))
def test_quantile_p_is_twice_norm_sf(se):
    estimates = {f"b{i}": value for i, value in enumerate(STATISTICS)}
    fit = QuantileFit(
        theta=0.5, coefficients=estimates, objective=0.0, pseudo_r2=0.0,
        n_neg=0, n_pos=0, n_zero=0, solver_meta={},
        std_errors=dict.fromkeys(estimates, se),
    )
    for name, p in fit.p_values.items():
        want = float(2.0 * stats.norm.sf(abs(estimates[name]) / se))
        assert same_bits(p, want), (estimates[name], se, p)
