"""Text and delimited renderings of the estimation outputs.

Layouts follow the conventional quantile-table format: one column per
quantile, coefficient rows alternating with "sterrors" rows, a trailing
R-squared row; the speed table carries SPEED / R-squared row pairs per
leverage kind.  Missing cells always render as an explicit ``NA`` marker.
Machine-readable variants carry full float precision.
"""
from __future__ import annotations

import math

NA = "NA"

QREG_LABELS = {
    "liqta": "LIQUIDITY",
    "mbratio": "MBRATIO",
    "ndts": "NDTS",
    "profta": "PROFITABILITY",
    "sizeat": "SIZE",
    "growthat": "GROWTH",
    "invta": "INVESTMENTS",
    "inflation": "INFLATION",
    "gdp_rate": "GDPRATE",
    "levb_lag": "LAG_LEVB",
    "levm_lag": "LAG_LEVM",
    "fixed_effects_mean": "FIXED_EFFECTS",
}


def display_label(name):
    return QREG_LABELS.get(name, name.upper())


def fmt_theta(theta):
    return f"{theta:g}"


def fmt_coef(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return NA
    if value != 0.0 and abs(value) < 1e-3:
        return f"{value:.2E}"
    return f"{value:.4f}"


def fmt_pct(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return NA
    return f"{100.0 * value:.1f}%"


def stars(p_value):
    if p_value is None or (isinstance(p_value, float) and math.isnan(p_value)):
        return ""
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.10:
        return "*"
    return ""


def _table(rows, widths=None):
    if widths is None:
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    out = []
    for r in rows:
        cells = [c.ljust(w) if j == 0 else c.rjust(w) for j, (c, w) in enumerate(zip(r, widths))]
        out.append("  ".join(cells).rstrip())
    return out


def _csv_float(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


# ---------------------------------------------------------------------------
# quantile coefficient tables
# ---------------------------------------------------------------------------


def _fit_columns(thetas, fits):
    """(theta, estimates, standard errors, p-values) of each fit, read once
    per fit: every p-value costs a normal tail evaluation."""
    return [
        (t, fits[t].estimates, fits[t].std_errors or {}, fits[t].p_values or {})
        for t in thetas
    ]


def render_quantile_table(title, thetas, fits, variables):
    """Aligned-text coefficient table for fits keyed by theta.

    Each fit carries its estimates, standard errors and p-values; absent
    entries render as NA.  The FIXED_EFFECTS row reports the mean of the
    estimated group effects of each fit.
    """
    columns = _fit_columns(thetas, fits)
    header = [title, "QUANTILES"] + [""] * (len(thetas) - 1)
    rows = [header, [""] + [fmt_theta(t) for t in thetas]]
    for name in (*variables, "fixed_effects_mean"):
        rows.append([display_label(name)] + [
            fmt_coef(est.get(name)) + stars(p.get(name)) for _, est, _, p in columns
        ])
        rows.append(["sterrors"] + [fmt_coef(se.get(name)) for _, _, se, _ in columns])
    rows.append(["R-squared"] + [fmt_pct(fits[t].pseudo_r2) for t in thetas])
    return "\n".join(_table(rows)) + "\n"


def quantile_table_csv(thetas, fits, variables):
    columns = _fit_columns(thetas, fits)
    lines = ["variable,theta,coefficient,std_error,p_value"]
    for name in (*variables, "fixed_effects_mean"):
        for t, est, se, p in columns:
            lines.append(
                f"{name},{fmt_theta(t)},{_csv_float(est.get(name))},"
                f"{_csv_float(se.get(name))},{_csv_float(p.get(name))}"
            )
    for t in thetas:
        lines.append(f"r_squared,{fmt_theta(t)},{_csv_float(fits[t].pseudo_r2)},,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# adjustment-speed tables
# ---------------------------------------------------------------------------


def render_speed_table(results, thetas, title="ADJUSTMENT SPEED"):
    """SPEED / R-squared row pairs per leverage kind, columns by quantile."""
    rows = [[title, "QUANTILES"] + [""] * (len(thetas) - 1)]
    rows.append([""] + [fmt_theta(t) for t in thetas])
    for kind in ("market", "book"):
        by_theta = {r.theta: r for r in results if r.leverage == kind}
        if not by_theta:
            continue
        speed_cells, r2_cells = [], []
        for t in thetas:
            res = by_theta.get(t)
            if res is None:
                speed_cells.append(NA)
                r2_cells.append(NA)
            else:
                flag = " !" if res.out_of_range else ""
                speed_cells.append(fmt_pct(res.speed) + flag)
                r2_cells.append(fmt_pct(res.pseudo_r2))
        rows.append([f"SPEED {kind.upper()}"] + speed_cells)
        rows.append(["R-squared"] + r2_cells)
    lines = _table(rows)
    if any(r.out_of_range for r in results):
        lines.append("! lag coefficient outside [0, 1]; speed reported unclipped")
    return "\n".join(lines) + "\n"


def speed_table_csv(results):
    lines = ["leverage,regime,theta,speed,lag_coefficient,pseudo_r2,n_used,out_of_range"]
    for kind in ("market", "book"):
        for res in (r for r in results if r.leverage == kind):
            regime = res.regime.value if res.regime is not None else ""
            lines.append(
                f"{res.leverage},{regime},{fmt_theta(res.theta)},"
                f"{_csv_float(res.speed)},{_csv_float(res.lag_coefficient)},"
                f"{_csv_float(res.pseudo_r2)},{res.n_used},{int(res.out_of_range)}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Hausman report
# ---------------------------------------------------------------------------


def render_hausman(result, equation):
    prob = f"{result.p_value:.4f}"
    rows = _table(
        [
            ["Test Summary", "Chi-Sq. Statistic", "Chi-Sq. d.f.", "Prob."],
            ["Cross-section random", f"{result.statistic:.6f}", str(result.df), prob],
        ]
    )
    lines = [
        "Correlated Random Effects - Hausman Test",
        f"Equation: {equation}",
        "Test cross-section random effects",
        "",
        *rows,
        "",
        "H_0 : Random effects model is appropriate",
        "H_1 : Fixed effect model is appropriate.",
    ]
    if result.rank_deficient:
        lines.append(
            "Note: variance difference not positive definite; "
            f"pseudo-inverse used with df = {result.df}."
        )
    if result.decision.value == "fixed_effects":
        lines.append(
            "Probability of Chi-Sq below the significance level: reject the "
            "null hypothesis, the Fixed Effect Model is the most appropriate."
        )
    else:
        lines.append(
            "Probability of Chi-Sq above the significance level: do not "
            "reject the null hypothesis, the Random Effects Model is retained."
        )
    return "\n".join(lines) + "\n"


def hausman_csv(result, equation):
    lines = [
        "equation,statistic,df,p_value,decision,rank_deficient",
        f"{equation},{_csv_float(result.statistic)},{result.df},"
        f"{_csv_float(result.p_value)},{result.decision.value},"
        f"{int(result.rank_deficient)}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# descriptives
# ---------------------------------------------------------------------------


def render_yearly_means(ym):
    rows = [["FYEAR"] + [display_label(v) for v in ym.variables]]
    for label, line in zip(ym.row_labels(), ym.values):
        rows.append(
            [label]
            + [NA if math.isnan(v) else f"{v:.6f}" for v in line]
        )
    return "Mean variables by fiscal year\n" + "\n".join(_table(rows)) + "\n"


def yearly_means_csv(ym):
    lines = ["fyear," + ",".join(ym.variables)]
    for label, line in zip(ym.row_labels(), ym.values):
        cells = [label] + [_csv_float(v) for v in line]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_correlation(cm):
    labels = [display_label(v) for v in cm.names]
    rows = [["Correlation"] + labels]
    for i, label in enumerate(labels):
        r_cells, p_cells = [], []
        for j in range(cm.k):
            if j > i:
                r_cells.append("")
                p_cells.append("")
            else:
                r = cm.r[i, j]
                r_cells.append(NA if math.isnan(r) else f"{r:.6f}")
                if i == j:
                    p_cells.append("----")
                else:
                    p = cm.p[i, j]
                    p_cells.append(NA if math.isnan(p) else f"{p:.4f}")
        rows.append([label] + r_cells)
        rows.append(["Probability"] + p_cells)
    return "Correlation of variables\n" + "\n".join(_table(rows)) + "\n"


def correlation_csv(cm):
    lines = ["var1,var2,r,p_value,n_pairs"]
    for i, a in enumerate(cm.names):
        for j, b in enumerate(cm.names):
            if j > i:
                continue
            lines.append(
                f"{a},{b},{_csv_float(cm.r[i, j])},"
                f"{_csv_float(cm.p[i, j])},{int(cm.n[i, j])}"
            )
    return "\n".join(lines) + "\n"


def render_validation(report):
    lines = [
        "Panel validation report",
        f"rows read:     {report.n_read}",
        f"rows accepted: {report.n_accepted}",
        f"rows rejected: {report.n_rejected}",
        f"rows flagged:  {report.n_flagged}",
    ]
    if report.rejected:
        lines.append("")
        lines.append("[rejected]")
        for key, reason in report.rejected:
            lines.append(f"{key}: {reason}")
    if report.flagged:
        lines.append("")
        lines.append("[flagged]")
        for key, reason in report.flagged:
            lines.append(f"{key}: {reason}")
    return "\n".join(lines) + "\n"


def render_recovery(report):
    lines = [
        "Speed recovery study",
        f"replications: {report.replications}  failed: {report.n_failed}",
        "",
    ]
    rows = [["theta", "regime", "true", "mean", "bias", "sd", "rmse", "n"]]
    for c in report.cells:
        rows.append(
            [
                fmt_theta(c.theta),
                c.regime.value if c.regime is not None else "all",
                f"{c.true_delta:.3f}",
                f"{c.mean:.4f}" if c.estimates.size else NA,
                f"{c.bias:+.4f}" if c.estimates.size else NA,
                f"{c.sd:.4f}" if c.sd is not None else NA,
                f"{c.rmse:.4f}" if c.estimates.size else NA,
                str(c.estimates.size),
            ]
        )
    lines = lines[:-1] + _table(rows)
    if report.failures:
        lines += ["", "[failed]"] + list(report.failures)
    return "\n".join(lines) + "\n"
