import math

import pytest

from levquant.adjustment import AdjustmentResult
from levquant.effects import HausmanResult, ModelChoice
from levquant.quantreg import QuantileFit
from levquant.reports import (
    fmt_coef, fmt_pct, quantile_table_csv, render_hausman, render_quantile_table,
    render_speed_table, stars,
)


def quantile_fit(**kw):
    return QuantileFit(
        theta=0.5, coefficients={"profta": 0.1234}, objective=1.0, pseudo_r2=0.25,
        n_neg=1, n_pos=1, n_zero=1, solver_meta={}, **kw,
    )


def test_speed_table_marks_missing_and_out_of_range_cells():
    result = AdjustmentResult(
        theta=0.5, leverage="book", lag_coefficient=1.25, speed=-0.25,
        pseudo_r2=0.4, n_used=10, out_of_range=True,
    )
    text = render_speed_table({"book": [result]}, (0.25, 0.5))
    assert text.splitlines()[2:] == [
        "SPEED BOOK               NA  -25.0% !",
        "R-squared                NA     40.0%",
        "! lag coefficient outside [0, 1]; speed reported unclipped",
    ]


def test_hausman_random_effects_decision_is_retained():
    result = HausmanResult(statistic=1.5, df=3, p_value=0.68, decision=ModelChoice.RandomEffects)
    text = render_hausman(result, "book_leverage")
    assert "do not reject the null hypothesis, the Random Effects Model is retained." in text
    assert "Fixed Effect Model is the most appropriate" not in text
    assert "pseudo-inverse" not in text
    # and the other verdict, with the note of a rank-deficient variance difference
    result = HausmanResult(statistic=12.5, df=2, p_value=0.0019,
                           decision=ModelChoice.FixedEffects, rank_deficient=True)
    text = render_hausman(result, "book_leverage")
    assert text.splitlines()[-2:] == [
        "Note: variance difference not positive definite; pseudo-inverse used with df = 2.",
        "Probability of Chi-Sq below the significance level: reject the null hypothesis, "
        "the Fixed Effect Model is the most appropriate.",
    ]
    assert "Random Effects Model is retained" not in text


@pytest.mark.parametrize("p_value,marks", [
    (0.005, "***"), (0.03, "**"), (0.07, "*"), (0.5, ""), (None, ""), (math.nan, ""),
])
def test_stars(p_value, marks):
    assert stars(p_value) == marks


@pytest.mark.parametrize("fmt", [fmt_coef, fmt_pct])
def test_missing_values_render_as_na(fmt):
    assert fmt(None) == fmt(math.nan) == "NA"


def test_quantile_table_without_group_effects_or_standard_errors():
    fit = quantile_fit()
    text = render_quantile_table("BOOK", (0.5,), {0.5: fit}, ("profta",))
    assert [line.split() for line in text.splitlines()] == [
        ["BOOK", "QUANTILES"],
        ["0.5"],
        ["PROFITABILITY", "0.1234"],
        ["sterrors", "NA"],
        ["FIXED_EFFECTS", "NA"],
        ["sterrors", "NA"],
        ["R-squared", "25.0%"],
    ]
    assert quantile_table_csv((0.5,), {0.5: fit}, ("profta",)).splitlines()[1:] == [
        "profta,0.5,0.1234,,",
        "fixed_effects_mean,0.5,,,",
        "r_squared,0.5,0.25,,",
    ]


def test_quantile_table_reads_estimates_and_p_values_from_the_fit():
    fit = quantile_fit(
        group_effects={"a": 1.0, "b": 2.0},
        std_errors={"profta": 0.05, "fixed_effects_mean": 0.0},
    )
    text = render_quantile_table("BOOK", (0.5,), {0.5: fit}, ("profta",))
    assert [line.split() for line in text.splitlines()][2:6] == [
        ["PROFITABILITY", "0.1234**"],  # p = 2 * Phi(-2.468) = 0.0136
        ["sterrors", "0.0500"],
        ["FIXED_EFFECTS", "1.5000***"],  # a zero standard error gives p = 0
        ["sterrors", "0.0000"],
    ]
    rows = quantile_table_csv((0.5,), {0.5: fit}, ("profta",)).splitlines()[1:3]
    assert rows == [
        f"profta,0.5,0.1234,0.05,{fit.p_values['profta']!r}",
        "fixed_effects_mean,0.5,1.5,0.0,0.0",
    ]
    assert fit.p_values["profta"] == pytest.approx(0.01359, abs=1e-5)
