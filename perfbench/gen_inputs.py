"""Benchmark-owned input generator: a balanced firm-year panel from a known
partial-adjustment process, written as the three CSV files levquant reads.

Book and market leverage each close a fraction ``delta`` of the gap to a
target that is linear in the simulated determinants and macro series:

    LEV_t = LEV_{t-1} + delta * (target_t - LEV_{t-1}) + e_t

The draws are vectorised across firms (one loop over years) and their order
is fixed here, not in ``levquant.synthgen``: a change to the package's own
generator must not change the inputs of the workloads that read CSV.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

PANEL_HEADER = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
TAX_RATE = 0.21
BURN_IN = 10
INTERCEPT = 0.30
FIRM_EFFECT_SD = 0.04
SHOCK_SD = 0.006
BETA = {"profta": -0.50, "liqta": -0.03, "sizeat": 0.02}
GAMMA = {"inflation": 0.002, "gdp_rate": -0.0015}


@dataclass(frozen=True)
class InputSpec:
    n_firms: int
    t_max: int
    delta: float = 0.6
    start_year: int = 2000

    @property
    def rows(self):
        return self.n_firms * self.t_max


@dataclass(frozen=True)
class InputFiles:
    panel: str
    macro: str
    tax: str


def macro_path(rng, n_years, block=3):
    """Alternating growth / recession blocks, so both regimes always have
    several years whatever the seed (the per-regime stage never degenerates)."""
    growth = (np.arange(n_years) // block) % 2 == 0
    gdp = np.where(growth, rng.uniform(1.5, 4.5, n_years), rng.uniform(-2.5, -0.5, n_years))
    inflation = rng.uniform(1.0, 5.0, n_years)
    return inflation, gdp


def simulate(spec, seed):
    """Raw statement columns, firm-major (firm 0's years first)."""
    rng = np.random.default_rng(seed)
    n, t_max = spec.n_firms, spec.t_max
    inflation, gdp = macro_path(rng, t_max)

    a = rng.normal(0.0, FIRM_EFFECT_SD, n)
    sales = np.exp(rng.normal(4.0, 0.8, n))
    ppent = np.exp(rng.normal(3.5, 0.6, n))
    total_assets = np.exp(rng.normal(4.5, 0.5, n))
    levb = INTERCEPT + a
    levm = INTERCEPT + a

    names = ("at", "debt", "mkt_eq", "act", "lct", "ebit", "ip", "txt", "sale", "ppent", "dp")
    cols = {name: np.empty((n, t_max)) for name in names}
    for step in range(BURN_IN + t_max):
        t = max(step - BURN_IN, 0)  # burn-in years reuse the first year's macro
        profta = rng.normal(0.08, 0.05, n)
        liqta = np.exp(rng.normal(0.3, 0.35, n))
        growth = rng.normal(0.04, 0.10, n)
        inv = rng.normal(0.1, 0.5, n)
        lct = np.exp(rng.normal(2.0, 0.4, n))
        ip = np.abs(rng.normal(0.02, 0.01, n)) * total_assets
        ndts = rng.normal(0.5, 1.0, n)
        shock_b = rng.normal(0.0, SHOCK_SD, n)
        shock_m = rng.normal(0.0, SHOCK_SD, n)

        sales = np.maximum(sales * (1.0 + growth), 1e-6)
        dp = 0.08 * ppent
        ppent = np.maximum(ppent + inv - dp, 1e-6)
        ebit = profta * total_assets
        txt = TAX_RATE * (ebit - ip - ndts)
        target = (
            INTERCEPT + a
            + BETA["profta"] * profta + BETA["liqta"] * liqta + BETA["sizeat"] * np.log(sales)
            + GAMMA["inflation"] * inflation[t] + GAMMA["gdp_rate"] * gdp[t]
        )
        levb = levb + spec.delta * (target - levb) + shock_b
        levm = levm + spec.delta * (target - levm) + shock_m
        if step < BURN_IN:
            continue
        debt = levb * total_assets
        representable = (levm > 0.0) & (levm < 1.0) & (debt > 0.0)
        mkt_eq = np.where(representable, debt * (1.0 - levm) / np.where(representable, levm, 1.0), np.nan)
        for name, value in (
            ("at", total_assets), ("debt", debt), ("mkt_eq", mkt_eq), ("act", liqta * lct),
            ("lct", lct), ("ebit", ebit), ("ip", ip), ("txt", txt), ("sale", sales),
            ("ppent", ppent), ("dp", dp),
        ):
            cols[name][:, t] = value
    years = spec.start_year + np.arange(t_max)
    return {name: c.ravel() for name, c in cols.items()}, years, inflation, gdp


def _fmt(values):
    """Shortest round-trip text of each float; NaN becomes an empty cell."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_inputs(spec, seed, directory):
    """Write panel.csv, macro.csv and tax.csv for ``spec`` into ``directory``."""
    cols, years, inflation, gdp = simulate(spec, seed)
    width = len(str(spec.n_firms))
    firm_ids = np.repeat([f"F{i + 1:0{width}d}" for i in range(spec.n_firms)], spec.t_max)
    fyear = np.tile(years, spec.n_firms).astype(str)
    text_cols = [firm_ids.tolist(), fyear.tolist()] + [
        _fmt(cols[name])
        for name in ("at", "debt", "mkt_eq", "act", "lct", "ebit", "ip", "txt", "sale", "ppent", "dp")
    ]
    os.makedirs(directory, exist_ok=True)
    files = InputFiles(
        panel=os.path.join(directory, "panel.csv"),
        macro=os.path.join(directory, "macro.csv"),
        tax=os.path.join(directory, "tax.csv"),
    )
    with open(files.panel, "w") as fh:
        fh.write(PANEL_HEADER + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*text_cols))
    with open(files.macro, "w") as fh:
        fh.write("year,cpi_inflation,gdp_growth\n")
        for year, infl, g in zip(years.tolist(), inflation.tolist(), gdp.tolist()):
            fh.write(f"{year},{infl!r},{g!r}\n")
    with open(files.tax, "w") as fh:
        fh.write("year,tax_rate\n")
        fh.writelines(f"{year},{TAX_RATE!r}\n" for year in years.tolist())
    return files
