"""The package's import set, and the tail probabilities that replace
scipy.stats: each call site returns what scipy.stats returned, bit for bit."""
import math
import os
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
