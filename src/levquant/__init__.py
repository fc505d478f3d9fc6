"""Panel-data quantile-regression toolkit for capital-structure dynamics.

Builds regression variables from raw firm-year statements, fits
conditional-quantile models by check-loss minimization with firm fixed
effects, runs the Hausman fixed-vs-random specification test, and
estimates partial-adjustment speeds per quantile and per macroeconomic
regime, with a synthetic generator for known-answer validation.
"""

from .adjustment import (
    DEFAULT_THETAS,
    AdjustmentResult,
    RegimeSpeeds,
    TargetModelSpec,
    estimate_speed,
    estimate_speed_by_regime,
    fit_quantiles,
    lag_leverage,
)
from .effects import (
    EffectsFit,
    EffectsKind,
    HausmanResult,
    ModelChoice,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_quantile_fixed_effects,
    fit_random_effects,
    hausman_decision,
    hausman_test,
    within_transform,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataValidationError,
    DegenerateResampleError,
    DesignError,
    OracleCapError,
)
from .panel import (
    FirmYearRecord,
    MacroYear,
    ObservationRow,
    Panel,
    Regime,
    RegimeRule,
    ValidationReport,
    correlation_matrix,
    derive_variables,
    design_from_panel,
    ingest_panel,
    read_macro_csv,
    read_panel_csv,
    read_tax_csv,
    write_macro_csv,
    write_panel_csv,
    write_tax_csv,
    yearly_means,
)
from .quantreg import (
    BootstrapResult,
    DesignMatrix,
    QuantileFit,
    bootstrap_many,
    bootstrap_se,
    check_loss,
    fit_quantile,
    fit_quantile_oracle,
)
from .synthgen import (
    ErrorSpec,
    GroundTruth,
    SynthConfig,
    generate_panel,
    monte_carlo_speed,
    write_ground_truth,
)

__version__ = "0.1.0"
