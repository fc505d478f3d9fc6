import warnings
from dataclasses import replace

import numpy as np
import pytest

from levquant import (
    ConfigError,
    Regime,
    RegimeRule,
    SynthConfig,
    TargetModelSpec,
    derive_variables,
    estimate_speed,
    estimate_speed_by_regime,
    generate_panel,
    lag_leverage,
)

from conftest import ingest_records, rows_for

SPEC = TargetModelSpec(
    leverage="book", determinants=("profta", "liqta", "sizeat"), thetas=(0.5,)
)


def synth_panel(**kw):
    defaults = dict(n_firms=60, t_max=10, seed=1)
    defaults.update(kw)
    panel, truth = generate_panel(SynthConfig(**defaults))
    return panel, truth


class TestLagLeverage:
    def test_consecutive_years_keep_lag(self):
        panel, _ = synth_panel(n_firms=1, t_max=5)
        lagged = lag_leverage(panel, "book")
        has_lag = [r.levb_lag is not None for r in lagged.rows]
        assert has_lag == [False, True, True, True, True]
        for prev, row in zip(lagged.rows, lagged.rows[1:]):
            assert row.levb_lag == prev.levb

    def test_gap_breaks_lag(self):
        panel, _ = synth_panel(n_firms=1, t_max=5)
        gapped = panel.subset([r.fiscal_year != panel.rows[2].fiscal_year
                               for r in panel.rows])
        lagged = lag_leverage(gapped, "book")
        has_lag = [r.levb_lag is not None for r in lagged.rows]
        # year after the hole lost its lag
        assert has_lag == [False, True, False, True]

    def test_usable_count_is_consecutive_pairs(self):
        panel, _ = synth_panel(n_firms=25, t_max=8, attrition=0.15, seed=9)
        lagged = lag_leverage(panel, "book")
        pairs = 0
        for firm in panel.firms:
            years = sorted(r.fiscal_year for r in rows_for(panel, firm))
            pairs += sum(b == a + 1 for a, b in zip(years, years[1:]))
        assert sum(r.levb_lag is not None for r in lagged.rows) == pairs

    def test_unknown_kind(self):
        panel, _ = synth_panel(n_firms=2, t_max=4)
        with pytest.raises(ConfigError):
            lag_leverage(panel, "gross")


class TestEstimateSpeed:
    def test_unknown_leverage_rejected(self):
        # a run checks its leverage first, so only a library caller gets here
        with pytest.raises(ConfigError, match="leverage must be"):
            TargetModelSpec(leverage="gross")

    def test_speed_plus_lag_coefficient_is_one(self):
        panel, _ = synth_panel()
        for res in estimate_speed(panel, SPEC):
            assert res.speed + res.lag_coefficient == 1.0  # exact identity

    def test_recovers_known_speed(self):
        panel, _ = synth_panel(n_firms=300, t_max=15, delta=0.5, seed=4)
        res = estimate_speed(panel, SPEC)[0]
        assert abs(res.speed - 0.5) <= 0.05
        assert res.regime is None
        assert not res.out_of_range

    def test_result_carries_sample_size(self):
        panel, _ = synth_panel(n_firms=40, t_max=6, seed=2)
        res = estimate_speed(panel, SPEC)[0]
        lagged = lag_leverage(panel, "book")
        assert res.n_used == sum(r.levb_lag is not None for r in lagged.rows)

    def test_market_leverage_kind(self):
        panel, _ = synth_panel(n_firms=150, t_max=12, delta=0.5, seed=6)
        spec = TargetModelSpec(
            leverage="market", determinants=SPEC.determinants, thetas=(0.5,)
        )
        res = estimate_speed(panel, spec)[0]
        assert res.leverage == "market"
        assert abs(res.speed - 0.5) <= 0.07

    def test_all_requested_thetas_reported(self):
        panel, _ = synth_panel(n_firms=80, t_max=10, seed=7)
        spec = TargetModelSpec(
            leverage="book", determinants=SPEC.determinants,
            thetas=(0.25, 0.5, 0.75),
        )
        results = estimate_speed(panel, spec)
        assert [r.theta for r in results] == [0.25, 0.5, 0.75]


class TestRegimeRule:
    GDP = [2.1, -0.3, 1.0, 2.0]

    def test_sign_rule(self):
        rule = RegimeRule()
        assert rule.is_recession(np.array(self.GDP)).tolist() == [False, True, False, False]
        assert [rule.classify(g) for g in self.GDP] == [
            Regime.Growth, Regime.Recession, Regime.Growth, Regime.Growth,
        ]

    def test_shifted_threshold(self):
        # a year exactly at the threshold is growth
        rule = RegimeRule(threshold=2.0)
        assert rule.is_recession(np.array(self.GDP)).tolist() == [False, True, True, False]
        assert [rule.classify(g) for g in self.GDP] == [
            Regime.Growth, Regime.Recession, Regime.Recession, Regime.Growth,
        ]


def regime_macro_path(rng, n_years, block=4):
    path = []
    for i in range(n_years):
        growth = (i // block) % 2 == 0
        gdp = rng.uniform(1.5, 4.5) if growth else rng.uniform(-2.5, -0.5)
        path.append((rng.uniform(1.0, 5.0), gdp))
    return tuple(path)


class TestSpeedByRegime:
    def test_default_regime_rule_is_the_sign_rule(self):
        panel, _ = synth_panel()
        assert SPEC.regime_split == RegimeRule(threshold=0.0)
        explicit = replace(SPEC, regime_split=RegimeRule(threshold=0.0))
        default, sign = (estimate_speed_by_regime(panel, s) for s in (SPEC, explicit))
        assert default.skipped == sign.skipped
        assert {r: [x.speed for x in res] for r, res in default.results.items()} == {
            r: [x.speed for x in res] for r, res in sign.results.items()
        }

    def test_single_regime_panel_matches_unsplit(self):
        panel, _ = synth_panel(n_firms=50, t_max=8, seed=3)  # default macro may recess
        all_growth = all(
            m.gdp_growth > 0 for m in panel.macro.values()
        )
        if not all_growth:
            # force an all-growth panel via explicit macro path
            rng = np.random.default_rng(0)
            path = tuple((rng.uniform(1, 5), rng.uniform(0.5, 4.0)) for _ in range(8))
            panel, _ = synth_panel(n_firms=50, t_max=8, seed=3, macro_path=path)
        spec = TargetModelSpec(
            leverage="book", determinants=SPEC.determinants, thetas=(0.5,),
            regime_split=RegimeRule(),
        )
        by_regime = estimate_speed_by_regime(panel, spec)
        plain = estimate_speed(panel, spec)
        got = by_regime.results[Regime.Growth][0]
        assert got.speed == plain[0].speed  # bit-for-bit
        assert got.lag_coefficient == plain[0].lag_coefficient
        assert Regime.Recession not in by_regime.results

    def test_two_regime_recovery(self):
        rng = np.random.default_rng(12)
        cfg = SynthConfig(
            n_firms=250, t_max=16, delta=(0.7, 0.3),
            macro_path=regime_macro_path(rng, 16), seed=21,
        )
        panel, _ = generate_panel(cfg)
        spec = TargetModelSpec(
            leverage="book", determinants=SPEC.determinants, thetas=(0.5,),
            regime_split=RegimeRule(),
        )
        out = estimate_speed_by_regime(panel, spec)
        growth = out.results[Regime.Growth][0]
        recession = out.results[Regime.Recession][0]
        assert abs(growth.speed - 0.7) <= 0.07
        assert abs(recession.speed - 0.3) <= 0.07
        assert growth.regime is Regime.Growth

    def test_swapping_labels_swaps_results(self):
        # negating gdp growth swaps the regime of every year; with gdp growth
        # left out of the regressors, each regime's design is unchanged
        rng = np.random.default_rng(13)
        cfg = SynthConfig(
            n_firms=120, t_max=12, macro_path=regime_macro_path(rng, 12), seed=22,
        )
        panel, truth = generate_panel(cfg)
        negated = {y: replace(m, gdp_growth=-m.gdp_growth) for y, m in truth.macro.items()}
        flipped = derive_variables(
            ingest_records(panel.records), negated, {y: cfg.tax_rate for y in negated}
        )
        spec = TargetModelSpec(
            leverage="book", determinants=SPEC.determinants, macro_vars=("inflation",),
            thetas=(0.5,),
        )
        base = estimate_speed_by_regime(panel, spec)
        flip = estimate_speed_by_regime(flipped, spec)
        assert base.results[Regime.Growth][0].speed == flip.results[Regime.Recession][0].speed
        assert base.results[Regime.Recession][0].speed == flip.results[Regime.Growth][0].speed

    def test_undersized_regime_skipped_with_diagnostic(self):
        rng = np.random.default_rng(14)
        gdps = [rng.uniform(0.5, 4.0) for _ in range(9)] + [-1.0]
        path = tuple((rng.uniform(1, 5), g) for g in gdps)
        panel, _ = synth_panel(n_firms=30, t_max=10, seed=23, macro_path=path)
        spec = TargetModelSpec(
            leverage="book", determinants=SPEC.determinants, thetas=(0.5,),
            regime_split=RegimeRule(),
        )
        out = estimate_speed_by_regime(panel, spec)
        assert Regime.Recession in out.skipped
        assert Regime.Growth in out.results

    @pytest.mark.parametrize("threshold", [0.0, 2.5])
    def test_rows_follow_the_threshold(self, threshold):
        # each regime is fitted on exactly the complete lagged rows whose
        # year falls on its side of the threshold
        cfg = SynthConfig(
            n_firms=80, t_max=12, macro_path=regime_macro_path(np.random.default_rng(15), 12),
            seed=25,
        )
        panel, truth = generate_panel(cfg)
        spec = replace(SPEC, regime_split=RegimeRule(threshold=threshold))
        out = estimate_speed_by_regime(panel, spec)
        lagged = lag_leverage(panel, "book")
        expected = {}
        for row in lagged.rows:
            if row.levb_lag is not None:
                gdp = truth.macro[row.fiscal_year].gdp_growth
                regime = Regime.Recession if gdp < threshold else Regime.Growth
                expected[regime] = expected.get(regime, 0) + 1
        assert not out.skipped
        assert {r: res[0].n_used for r, res in out.results.items()} == expected
        assert all(res[0].regime is r for r, res in out.results.items())

    def test_gate_counts_the_rows_the_fit_uses(self):
        # market equity is dropped for the odd-numbered firms in the recession
        # years, so their mbratio is absent: 60 of the recession rows with a
        # lag are complete, below 10 per coefficient
        cfg = SynthConfig(
            n_firms=30, t_max=12, macro_path=regime_macro_path(np.random.default_rng(12), 12),
            seed=5,
        )
        panel, truth = generate_panel(cfg)
        assert [y for y, r in truth.regimes.items() if r is Regime.Recession] == [
            2004, 2005, 2006, 2007,
        ]
        records = [
            r._replace(market_equity=None)
            if int(r.firm_id[1:]) % 2 and truth.regimes[r.fiscal_year] is Regime.Recession
            else r
            for r in panel.records
        ]
        panel = derive_variables(
            ingest_records(records), truth.macro, {y: cfg.tax_rate for y in truth.macro}
        )
        spec = replace(SPEC, determinants=("profta", "liqta", "sizeat", "mbratio"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = estimate_speed_by_regime(panel, spec)
        assert out.skipped == {
            Regime.Recession: "60 usable rows < required 70 (7 coefficients)"
        }
        assert out.results[Regime.Growth][0].n_used >= 70

    def test_firm_order_invariance(self):
        from levquant import derive_variables

        panel, _ = synth_panel(n_firms=40, t_max=8, seed=24)
        res = estimate_speed(panel, SPEC)[0]
        rng = np.random.default_rng(0)
        records = list(panel.records)
        rng.shuffle(records)
        reordered = derive_variables(
            ingest_records(records), panel.macro,
            {y: 0.21 for y in panel.macro},
        )
        res2 = estimate_speed(reordered, SPEC)[0]
        assert res.speed == res2.speed
        assert res.lag_coefficient == res2.lag_coefficient
