"""Full pipeline on a synthetic panel with a known adjustment speed.

Generates firm-year statements from a partial-adjustment process with
delta = 0.55, pushes them through ingestion and variable derivation, and
prints every report the toolkit produces: descriptives, the Hausman test,
per-quantile coefficient tables, and the speed table (whose median-quantile
entry should land near 55%).
"""
import numpy as np

from levquant import (
    RegimeRule,
    SynthConfig,
    TargetModelSpec,
    correlation_matrix,
    design_from_panel,
    estimate_speed,
    fit_fixed_effects,
    fit_quantile_fixed_effects,
    fit_random_effects,
    generate_panel,
    hausman_test,
    yearly_means,
)
from levquant.reports import (
    render_hausman,
    render_quantile_table,
    render_speed_table,
    render_validation,
    render_yearly_means,
    render_correlation,
)

config = SynthConfig(n_firms=200, t_max=12, delta=0.55, attrition=0.05, seed=42)
panel, truth = generate_panel(config)
print(render_validation(panel.validation))

determinants = ("profta", "liqta", "sizeat")
macro_vars = ("inflation", "gdp_rate")
thetas = (0.15, 0.35, 0.5, 0.75, 0.95)

print(render_yearly_means(yearly_means(panel)))
print(render_correlation(correlation_matrix(panel)))

# specification test: fixed vs random effects on the leverage level equation
design, firms, _ = design_from_panel(panel, "levb", determinants + macro_vars)
fe = fit_fixed_effects(design, firms)
re = fit_random_effects(design, firms, fe)
print(render_hausman(hausman_test(fe, re), "book_leverage"))

# per-quantile coefficient table (no bootstrap here, so sterrors print NA)
fits = {
    th: fit_quantile_fixed_effects(design, firms, th) for th in thetas
}
print(render_quantile_table("BOOK LEVERAGE", thetas, fits, determinants + macro_vars))

# adjustment speeds; truth is 0.55 at every quantile
results = []
for kind in ("market", "book"):
    spec = TargetModelSpec(
        leverage=kind, determinants=determinants, thetas=thetas,
        regime_split=RegimeRule(),
    )
    results += estimate_speed(panel, spec)
print(render_speed_table(results, thetas))
median_book = [r for r in results if r.leverage == "book" and r.theta == 0.5][0]
print(f"true speed 0.55, estimated at the median: {median_book.speed:.3f}")
