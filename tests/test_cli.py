import hashlib
import inspect
import multiprocessing.pool
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import norm

from levquant import (
    ConfigError, DesignMatrix, SynthConfig, TargetModelSpec, estimate_speed, generate_panel,
    write_macro_csv, write_panel_csv, write_tax_csv,
)
from levquant.cli import (
    RunConfig, build_parser, config_text, load_panel, main, read_config_file, resolve_config,
    simulate_config,
)
from levquant.effects import fit_quantile_fixed_effects, hausman_decision, hausman_test
from levquant.panel import design_from_panel
from levquant import cli, effects, quantreg
from levquant import panel as panel_module
from levquant.quantreg import _fe_problem, bootstrap_se

THETAS = ("0.15", "0.35", "0.5", "0.75", "0.95")


@pytest.fixture(scope="session")
def synth_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    cfg = SynthConfig(n_firms=250, t_max=14, delta=0.5, seed=31)
    panel, truth = generate_panel(cfg)
    write_panel_csv(panel, root / "panel.csv")
    write_macro_csv(truth.macro, root / "macro.csv")
    write_tax_csv({y: cfg.tax_rate for y in truth.macro}, root / "tax.csv")
    return root


def write_config(path, inputs, out, bootstrap=5, extra="", tax_table=True):
    tax = f"tax_table = {inputs/'tax.csv'}\n" if tax_table else ""
    path.write_text(
        f"input = {inputs/'panel.csv'}\n"
        f"macro = {inputs/'macro.csv'}\n"
        f"{tax}"
        "determinants = profta,liqta,sizeat\n"
        f"bootstrap = {bootstrap}\n"
        "seed = 77\n"
        f"out = {out}\n"
        f"{extra}"
    )


@pytest.fixture(scope="session")
def bundle(synth_inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "bundle"
    cfg_path = synth_inputs / "replicate.cfg"
    write_config(cfg_path, synth_inputs, out)
    code = main(["replicate", "--config", str(cfg_path)])
    assert code == 0
    return cfg_path, out


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def empty_panel(root):
    path = root / "empty.csv"
    path.write_text("firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n")
    return path


def listed_files(out):
    """The [files] section of a bundle's manifest: name -> sha256."""
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split(" sha256=") for line in lines[lines.index("[files]") + 1:])


def assert_manifest_matches_disk(out):
    on_disk = hash_dir(out)
    del on_disk["manifest.txt"]
    assert listed_files(out) == on_disk


EXPECTED_FILES = {
    "config_resolved.txt", "manifest.txt", "validation_report.txt",
    "yearly_means.txt", "yearly_means.csv", "correlation.txt", "correlation.csv",
    "hausman_book.txt", "hausman_book.csv", "hausman_market.txt", "hausman_market.csv",
    "quantile_book.txt", "quantile_book.csv", "quantile_market.txt", "quantile_market.csv",
    "speed.txt", "speed.csv", "speed_by_regime.txt", "speed_by_regime.csv",
}


class TestReplicate:
    def test_bundle_complete(self, bundle):
        _, out = bundle
        assert set(os.listdir(out)) == EXPECTED_FILES
        manifest = (out / "manifest.txt").read_text()
        assert "status = complete" in manifest
        assert "config_sha256 =" in manifest

    def test_known_speed_recovered(self, bundle):
        _, out = bundle
        for line in (out / "speed.csv").read_text().splitlines()[1:]:
            kind, regime, theta, speed, *_ = line.split(",")
            if theta == "0.5":
                assert 0.45 <= float(speed) <= 0.55, (kind, speed)

    def test_p_values_test_the_printed_coefficient(self, bundle):
        _, out = bundle
        lines = (out / "quantile_book.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines if not line.startswith("r_squared,")]
        assert rows[-1][0] == "fixed_effects_mean"
        for name, theta, coef, se, p in rows:
            c, s = float(coef), float(se)
            expected = 2.0 * norm.sf(abs(c) / s) if s > 0 else 0.0
            assert float(p) == pytest.approx(expected, rel=1e-12, abs=0.0), (name, theta)

    def test_rerun_is_byte_identical(self, bundle, synth_inputs, tmp_path):
        cfg_path, out = bundle
        before = hash_dir(out)
        assert main(["replicate", "--config", str(cfg_path)]) == 0
        assert hash_dir(out) == before

    @pytest.mark.parametrize(
        "command,files",
        [
            ("ingest", ["validation_report.txt"]),
            ("describe", ["yearly_means.txt", "yearly_means.csv"]),
            ("correlate", ["correlation.txt", "correlation.csv"]),
            ("hausman", ["hausman_book.txt", "hausman_market.csv"]),
            ("qreg", ["quantile_book.txt", "quantile_market.csv"]),
            ("speed", ["speed.txt", "speed_by_regime.csv"]),
        ],
    )
    def test_subcommand_reproduces_bundle_slice(self, bundle, command, files):
        cfg_path, out = bundle
        before = hash_dir(out)
        assert main([command, "--config", str(cfg_path)]) == 0
        after = hash_dir(out)
        for name in files:
            assert after[name] == before[name]

    def test_one_theta_reproduces_its_bundle_cells(self, bundle, tmp_path):
        # a kind's bootstrap draws do not depend on the other quantiles listed
        def rows_at_median(bundle_dir, kind):
            lines = (bundle_dir / f"quantile_{kind}.csv").read_text().splitlines()[1:]
            return [line for line in lines if line.split(",")[1] == "0.5"]

        cfg_path, out = bundle
        alone = tmp_path / "alone"
        assert main(["qreg", "--config", str(cfg_path), "--theta", "0.5",
                     "--out", str(alone)]) == 0
        for kind in ("book", "market"):
            single = rows_at_median(alone, kind)
            assert single and single == rows_at_median(out, kind)

    def test_both_kinds_bootstrap_on_one_pool(self, bundle, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(quantreg, "_ROWS_PER_WORKER", 1)
        if quantreg._workers(2, 2)[0] < 2:
            pytest.skip("the bootstrap cannot hold a worker to one BLAS thread here")
        pools = []
        start = multiprocessing.pool.Pool.__init__

        def counted(pool, *args, **kwargs):
            pools.append(args)
            start(pool, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
        cfg_path, _ = bundle
        both = tmp_path / "both"
        assert main(["qreg", "--config", str(cfg_path), "--leverage", "both",
                     "--out", str(both)]) == 0
        assert len(pools) == 1
        for kind in ("book", "market"):
            alone = tmp_path / kind
            assert main(["qreg", "--config", str(cfg_path), "--leverage", kind,
                         "--out", str(alone)]) == 0
            name = f"quantile_{kind}.csv"
            assert (alone / name).read_bytes() == (both / name).read_bytes()
        assert len(pools) == 3

    def test_empty_input_fails_at_ingest(self, synth_inputs, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n"
        )
        out = tmp_path / "failed"
        code = main([
            "replicate", "--input", str(empty),
            "--macro", str(synth_inputs / "macro.csv"), "--out", str(out),
        ])
        assert code != 0
        assert "stage ingest failed" in capsys.readouterr().err
        names = set(os.listdir(out))
        assert "speed.txt" not in names and "quantile_book.txt" not in names
        assert "status = incomplete" in (out / "manifest.txt").read_text()

    def test_empty_input_manifest_lists_the_config_echo(self, synth_inputs, tmp_path):
        out = tmp_path / "failed"
        assert main(["replicate", "--input", str(empty_panel(tmp_path)),
                     "--macro", str(synth_inputs / "macro.csv"), "--out", str(out)]) == 1
        assert set(listed_files(out)) == {"config_resolved.txt"}
        assert_manifest_matches_disk(out)

    def test_empty_input_fails_a_single_stage(self, synth_inputs, tmp_path, capsys):
        # the panel is loaded in the first stage run, so its failure is named after it
        out = tmp_path / "failed"
        assert main(["qreg", "--input", str(empty_panel(tmp_path)),
                     "--macro", str(synth_inputs / "macro.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("stage qreg failed: ")
        assert os.listdir(out) == ["config_resolved.txt"]

    @pytest.mark.parametrize("fmt,extensions", [
        ("both", (".txt", ".csv")), ("text", (".txt",)), ("delimited", (".csv",)),
    ])
    def test_manifest_lists_the_digest_of_every_file_written(
        self, bundle, synth_inputs, tmp_path, fmt, extensions
    ):
        _, out = bundle
        if fmt != "both":
            out = tmp_path / fmt
            cfg = tmp_path / "c.cfg"
            write_config(cfg, synth_inputs, out, bootstrap=0, extra=f"format = {fmt}\n")
            assert main(["replicate", "--config", str(cfg)]) == 0
        assert_manifest_matches_disk(out)
        assert set(os.listdir(out)) == {
            name for name in EXPECTED_FILES if name.endswith(extensions)
        } | {"config_resolved.txt", "manifest.txt"}

    def test_ingest_reports_rejected_and_flagged_rows(self, synth_inputs, tmp_path):
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n"
            "A,2000,200,50,150,80,40,100,10,21,100,100,15\n"
            "A,2001,210,55,150,80,40,100,10,21,110,105,15\n"
            "A,2001,999,55,150,80,40,100,10,21,110,105,15\n"
            "B,2000,x,55,150,80,40,100,10,21,110,105,15\n"
            "B,2001,0,55,150,80,40,100,10,21,110,105,15\n"
        )
        out = tmp_path / "ingest"
        assert main([
            "ingest", "--input", str(panel), "--macro", str(synth_inputs / "macro.csv"),
            "--tax-table", str(synth_inputs / "tax.csv"), "--out", str(out),
        ]) == 0
        assert (out / "validation_report.txt").read_text() == (
            "Panel validation report\n"
            "rows read:     5\n"
            "rows accepted: 3\n"
            "rows rejected: 2\n"
            "rows flagged:  1\n"
            "\n"
            "[rejected]\n"
            "line 5: malformed value: could not convert string to float: 'x'\n"
            "('A', 2001): duplicate (firm_id, fiscal_year)\n"
            "\n"
            "[flagged]\n"
            "('B', 2001): total_assets <= 0: unusable\n"
        )


class TestTableShapes:
    def test_quantile_table_layout(self, bundle):
        _, out = bundle
        lines = (out / "quantile_book.txt").read_text().splitlines()
        header = lines[1].split()
        assert header == list(THETAS)
        body = lines[2:]
        # coefficient rows alternate with sterrors rows, then R-squared last
        assert body[-1].startswith("R-squared")
        pair_rows = body[:-1]
        assert len(pair_rows) % 2 == 0
        for i in range(0, len(pair_rows), 2):
            assert not pair_rows[i].startswith("sterrors")
            assert pair_rows[i + 1].startswith("sterrors")
        assert any(row.startswith("FIXED_EFFECTS") for row in body)

    def test_speed_table_layout(self, bundle):
        _, out = bundle
        lines = (out / "speed.txt").read_text().splitlines()
        assert lines[1].split() == list(THETAS)
        assert lines[2].startswith("SPEED MARKET")
        assert lines[3].startswith("R-squared")
        assert lines[4].startswith("SPEED BOOK")
        assert lines[5].startswith("R-squared")
        for row in lines[2:6]:
            assert len(re.findall(r"\d+\.\d%", row)) == len(THETAS)

    def test_hausman_report_layout(self, bundle):
        _, out = bundle
        text = (out / "hausman_book.txt").read_text()
        for needle in (
            "Correlated Random Effects - Hausman Test",
            "Chi-Sq. Statistic", "Chi-Sq. d.f.", "Prob.",
            "H_0 : Random effects model is appropriate",
            "H_1 : Fixed effect model is appropriate.",
        ):
            assert needle in text

    def test_hausman_stage_builds_one_design_and_one_within_fit_per_kind(
        self, bundle, tmp_path, monkeypatch
    ):
        # the random-effects fit reuses the within fit's design and sigma_e
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (cli, effects):
            counted(module, "fit_fixed_effects")
        for module in (cli, panel_module):
            counted(module, "design_from_panel")
        cfg_path, out = bundle
        stage = tmp_path / "hausman"
        assert main(["hausman", "--config", str(cfg_path), "--leverage", "both",
                     "--out", str(stage)]) == 0
        assert sorted(calls) == ["design_from_panel"] * 2 + ["fit_fixed_effects"] * 2
        for kind in ("book", "market"):
            name = f"hausman_{kind}.csv"
            assert (stage / name).read_bytes() == (out / name).read_bytes()

    def test_no_blank_cells(self, bundle):
        _, out = bundle
        for name in ("yearly_means.txt", "quantile_book.txt", "speed.txt"):
            text = (out / name).read_text()
            assert "  -  " not in text  # missing cells must say NA, not blank


class TestConfiguredEstimator:
    def test_penalized_bootstrap_refits_penalized_estimator(self, synth_inputs, tmp_path):
        out = tmp_path / "penalized"
        cfg_path = tmp_path / "c.cfg"
        extra = "penalty = 0.5\nleverage = book\ntheta = 0.5\n"
        write_config(cfg_path, synth_inputs, out, bootstrap=4, extra=extra)
        assert main(["qreg", "--config", str(cfg_path)]) == 0
        reported = {}
        for line in (out / "quantile_book.csv").read_text().splitlines()[1:]:
            name, _, _, se, _ = line.split(",")
            if se:
                reported[name] = float(se)

        # the same cluster draws, each refit once by the penalized estimator
        # on the drawn firms, weighted by how often each firm was drawn
        cfg = resolve_config(build_parser().parse_args(["qreg", "--config", str(cfg_path)]))
        predictors = cfg.determinants + cfg.macro_vars
        design, firms, _ = design_from_panel(load_panel(cfg), "levb", predictors)
        _, codes = np.unique(firms, return_inverse=True)
        n_firms = codes.max() + 1
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
        draws = []
        for child in seed.spawn(4):
            picks = np.random.default_rng(child).integers(0, n_firms, n_firms)
            mult = np.bincount(picks, minlength=n_firms)
            idx = np.flatnonzero(mult[codes])
            sub = DesignMatrix(names=design.names, X=design.X[idx], y=design.y[idx])
            problem = _fe_problem(sub, codes[idx], 0.5, mult[codes[idx]].astype(float))
            fit = fit_quantile_fixed_effects(sub, codes[idx], 0.5, penalty=0.5, _problem=problem)
            effects = [fit.group_effects[str(g)] for g in np.flatnonzero(mult)]
            draws.append(
                [fit.coefficients[m] for m in predictors]
                + [np.average(effects, weights=mult[mult > 0])]
            )
        manual = np.std(np.asarray(draws), axis=0, ddof=1)
        assert list(reported) == list(predictors) + ["fixed_effects_mean"]
        assert [reported[m] for m in reported] == pytest.approx(manual, rel=1e-12)

    def test_penalty_reaches_speed_stage(self, synth_inputs, tmp_path):
        out = tmp_path / "penalized"
        cfg_path = tmp_path / "c.cfg"
        extra = "penalty = 0.5\nleverage = book\ntheta = 0.5\n"
        write_config(cfg_path, synth_inputs, out, bootstrap=0, extra=extra)
        assert main(["speed", "--config", str(cfg_path)]) == 0
        reported = (out / "speed.csv").read_text().splitlines()[1].split(",")[3]

        cfg = resolve_config(build_parser().parse_args(["speed", "--config", str(cfg_path)]))
        spec = cfg.spec("book")
        panel = load_panel(cfg)
        penalized = estimate_speed(panel, spec)[0].speed
        dummy = estimate_speed(panel, replace(spec, penalty=0.0))[0].speed
        assert float(reported) == penalized != dummy

    def test_tax_rate_stands_in_for_a_missing_tax_table(self, synth_inputs, tmp_path):
        def yearly_means(name, extra="", tax_table=False):
            cfg_path = tmp_path / f"{name}.cfg"
            write_config(cfg_path, synth_inputs, tmp_path / name, extra=extra,
                         tax_table=tax_table)
            assert main(["describe", "--config", str(cfg_path)]) == 0
            text = (tmp_path / name / "yearly_means.csv").read_text()
            header, *rows = text.splitlines()
            return text, header.split(","), [row.split(",") for row in rows]

        table, header, rows = yearly_means("table", tax_table=True)  # 0.21 every year
        assert yearly_means("same", "tax_rate = 0.21\n")[0] == table
        _, _, moved = yearly_means("moved", "tax_rate = 0.35\n")
        ndts = header.index("ndts")
        for row, other in zip(rows, moved):
            assert row[ndts] != other[ndts]
            assert row[:ndts] + row[ndts + 1:] == other[:ndts] + other[ndts + 1:]

    def test_regime_threshold_reaches_speed_stage(self, synth_inputs, tmp_path):
        # every year grows by less than 100%, so all rows are recession rows
        # and the recession speed is the unsplit speed
        out = tmp_path / "threshold"
        cfg_path = tmp_path / "c.cfg"
        extra = "regime_threshold = 100\nleverage = book\ntheta = 0.5\n"
        write_config(cfg_path, synth_inputs, out, bootstrap=0, extra=extra)
        assert main(["speed", "--config", str(cfg_path)]) == 0
        overall = (out / "speed.csv").read_text().splitlines()[1].split(",")
        by_regime = (out / "speed_by_regime.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in by_regime] == [
            ["book", "recession", "0.5", overall[3]]
        ]
        assert "book / growth: skipped (0 usable rows < required" in (
            out / "speed_by_regime.txt"
        ).read_text()


class TestConfig:
    def test_run_defaults_are_the_model_defaults(self):
        assert RunConfig().spec("book") == TargetModelSpec()
        assert RunConfig().tax_rate == SynthConfig().tax_rate
        assert RunConfig().bootstrap == default_of(bootstrap_se, "n_boot")
        assert RunConfig().significance == default_of(hausman_test, "significance")
        assert RunConfig().significance == default_of(hausman_decision, "significance")

    def test_file_parsing_and_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5  # master seed\n\ntheta = 0.25,0.75\nwinsorize = off\n")
        values = read_config_file(cfg)
        assert values == {"seed": 5, "theta": (0.25, 0.75), "winsorize": None}

    def test_file_with_a_byte_order_mark(self, synth_inputs, tmp_path):
        # an editor that saves "UTF-8 with BOM" puts U+FEFF before the first key
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\ufeffseed = 5\ntheta = 0.25,0.75\n", encoding="utf-8")
        assert read_config_file(cfg) == {"seed": 5, "theta": (0.25, 0.75)}
        out = tmp_path / "ingest"
        write_config(cfg, synth_inputs, out)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert (out / "validation_report.txt").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("not_a_key = 1\n")
        with pytest.raises(Exception, match="unknown key"):
            read_config_file(cfg)

    def test_key_set_twice_is_exit_2_before_any_output(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "c.cfg"
        write_config(cfg, synth_inputs, out, extra="theta = 0.5\n# later\ntheta = 0.25,0.75\n")
        first = cfg.read_text().splitlines().index("theta = 0.5") + 1
        message = f"{cfg}:{first + 2}: 'theta' is already set on line {first}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            read_config_file(cfg)
        assert main(["replicate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()
        # a flag still overrides the value of a file that sets it once
        write_config(cfg, synth_inputs, out, extra="theta = 0.5\n")
        args = build_parser().parse_args(["qreg", "--config", str(cfg), "--theta", "0.25,0.75"])
        assert resolve_config(args).theta == (0.25, 0.75)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\nout = from_file\n")
        args = build_parser().parse_args(
            ["describe", "--config", str(cfg), "--out", "from_flag"]
        )
        resolved = resolve_config(args)
        assert resolved.seed == 5
        assert resolved.out == "from_flag"

    def test_env_var_supplies_config_path(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1234\n")
        monkeypatch.setenv("LEVQUANT_CONFIG", str(cfg))
        args = build_parser().parse_args(["describe"])
        assert resolve_config(args).seed == 1234

    def test_winsorize_parsing(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("winsorize = 0.01,0.99\n")
        assert read_config_file(cfg)["winsorize"] == (0.01, 0.99)

    def test_config_echo_written(self, bundle):
        _, out = bundle
        text = (out / "config_resolved.txt").read_text()
        assert "seed = 77" in text
        assert "theta = 0.15,0.35,0.5,0.75,0.95" in text

    def test_bad_config_path_is_exit_2(self, tmp_path, capsys):
        code = main(["describe", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2

    @pytest.mark.parametrize("command", ["replicate", "speed"])
    def test_missing_inputs_are_exit_2_before_any_output(
        self, synth_inputs, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        for argv in (
            [command, "--out", str(out)],
            [command, "--input", str(synth_inputs / "panel.csv"), "--out", str(out)],
            [command, "--macro", str(synth_inputs / "macro.csv"), "--out", str(out)],
        ):
            assert main(argv) == 2
            assert "input and macro paths are required" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("key", ["input", "macro", "tax_table"])
    def test_nonexistent_input_path_is_exit_2_before_any_output(
        self, synth_inputs, tmp_path, capsys, key
    ):
        out = tmp_path / "out"
        paths = {"input": synth_inputs / "panel.csv", "macro": synth_inputs / "macro.csv",
                 "tax_table": synth_inputs / "tax.csv"}
        paths[key] = tmp_path / "nope.csv"
        argv = ["replicate", "--bootstrap", "0", "--out", str(out)]
        for name, path in paths.items():
            argv += [f"--{name.replace('_', '-')}", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {key}: not a file: {paths[key]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "leverage = foo",
        "format = pdf",
        "theta = 0.5,1.2",
        "theta = 0",
        "determinants = profta,nosuch",
        "determinants = profta,levb_lag",
        "macro_vars = gdp",
        "macro_vars = inflation,profta",
        "fe_mode = dummy",  # not a key: penalty = 0 is the dummy estimator
        "penalty = -0.5",
        "penalty = inf",
        "penalty = nan",
        "macro_vars = inflation,gdp_rate,gdp_growth",
        "determinants =",
        "theta = ,",
        "seed 5",
        "group_cap = 5000",  # not a key
        "bootstrap = 1",
        "bootstrap = -3",
        "seed = -1",
        "significance = 1.5",
        "tax_rate = 0",
        "winsorize = 0.9,0.1",
        "winsorize = 0.05",
        "two_step = true",  # not a key: every speed is the one-step estimate
        "theta = 0.5,0.5",
    ])
    def test_bad_value_is_exit_2_before_any_output(
        self, synth_inputs, tmp_path, capsys, line
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "c.cfg"
        write_config(cfg, synth_inputs, out, extra=line + "\n")
        assert main(["replicate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--macro-vars", "gdp"],
        ["--significance", "0"],
        ["--penalty", "-1"],
        ["--winsorize", "0.9,0.1"],
        ["--leverage", "foo"],
        ["--bootstrap", "1"],
        ["--determinants", "profta,levb"],
        ["--determinants", "profta,levm"],  # only the market kind of leverage = both rejects it
        ["--regime-threshold", "nan"],
        ["--tax-rate", "inf"],
    ])
    def test_bad_flag_value_is_exit_2_before_any_output(
        self, synth_inputs, tmp_path, capsys, flags
    ):
        out = tmp_path / "out"
        cfg = tmp_path / "c.cfg"
        write_config(cfg, synth_inputs, out)
        assert main(["replicate", "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["replicate", "simulate"])
    def test_out_that_cannot_be_a_directory_is_exit_2(
        self, synth_inputs, tmp_path, capsys, command
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        argv = [command, "--out", str(out)]
        if command == "replicate":
            argv += ["--input", str(synth_inputs / "panel.csv"),
                     "--macro", str(synth_inputs / "macro.csv"), "--bootstrap", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == ""

    def test_every_key_has_a_flag(self, tmp_path):
        text = {
            "input": "p.csv", "macro": "m.csv", "tax_table": "t.csv", "tax_rate": "0.3",
            "theta": "0.25,0.75", "leverage": "book", "determinants": "profta,liqta",
            "macro_vars": "gdp_growth", "bootstrap": "3", "seed": "9",
            "regime_threshold": "1.5", "winsorize": "0.01,0.99", "out": "o",
            "format": "text", "significance": "0.1", "penalty": "0.5",
        }
        assert set(text) == {f.name for f in fields(RunConfig)}
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        from_file = resolve_config(build_parser().parse_args(["qreg", "--config", str(cfg)]))
        argv = ["qreg"]
        for key, value in text.items():
            argv += ["--" + key.replace("_", "-"), value]
        from_flags = resolve_config(build_parser().parse_args(argv))
        assert from_flags == from_file
        assert config_text(from_file) == "".join(
            f"{k} = {v}\n" for k, v in sorted(text.items())
        )


class TestFormatGate:
    def test_text_only(self, synth_inputs, tmp_path):
        out = tmp_path / "text_only"
        cfg = tmp_path / "c.cfg"
        write_config(cfg, synth_inputs, out, bootstrap=0, extra="format = text\n")
        assert main(["describe", "--config", str(cfg)]) == 0
        names = set(os.listdir(out))
        assert "yearly_means.txt" in names
        assert "yearly_means.csv" not in names

    def test_delimited_only(self, synth_inputs, tmp_path):
        out = tmp_path / "csv_only"
        cfg = tmp_path / "c.cfg"
        write_config(cfg, synth_inputs, out, bootstrap=0, extra="format = delimited\n")
        assert main(["describe", "--config", str(cfg)]) == 0
        names = set(os.listdir(out))
        assert "yearly_means.csv" in names
        assert "yearly_means.txt" not in names


class TestSimulate:
    def test_simulate_writes_inputs(self, tmp_path):
        out = tmp_path / "synth"
        code = main([
            "simulate", "--n-firms", "10", "--t-max", "5",
            "--delta", "0.4", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert {p for p in os.listdir(out)} == {
            "panel.csv", "macro.csv", "tax_rates.csv", "ground_truth.txt"
        }

    def test_simulate_defaults_are_the_generator_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert simulate_config(args) == SynthConfig()

    def test_simulate_regime_pair(self, tmp_path):
        out = tmp_path / "synth2"
        code = main([
            "simulate", "--n-firms", "5", "--t-max", "5",
            "--delta", "0.7,0.3", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        assert "delta = (0.7, 0.3)" in (out / "ground_truth.txt").read_text()

    @pytest.mark.parametrize("flags", [
        ["--delta", "1.5"], ["--delta", "abc"], ["--attrition", "1"],
        ["--delta", "0.6,0.3,0.1"], ["--sigma", "nan"], ["--sigma", "inf"], ["--seed", "-1"],
        ["--start-year", "99999999999999999999"],
    ])
    def test_config_error_is_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "synth3"
        assert main(["simulate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()


# a locale whose encoding is ASCII, where Python's own UTF-8 modes stay off
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
PANEL_HEADER = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n"


def run_in_c_locale(*args):
    """``python *args`` run under ``C_LOCALE`` with this levquant."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src, **C_LOCALE}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


class TestUtf8Files:
    """Every file levquant writes is UTF-8, whatever the locale."""

    def test_replicate_reports_a_non_ascii_firm(self, synth_inputs, tmp_path):
        panel = tmp_path / "panel.csv"
        flagged = "Zürich,2000,0,55,150,80,40,100,10,21,110,105,15\n"
        text = (synth_inputs / "panel.csv").read_text(encoding="utf-8")
        panel.write_text(text + flagged, encoding="utf-8")
        out = tmp_path / "bundle"
        done = run_in_c_locale(
            "-m", "levquant.cli", "replicate", "--input", str(panel),
            "--macro", str(synth_inputs / "macro.csv"),
            "--tax-table", str(synth_inputs / "tax.csv"), "--bootstrap", "0", "--out", str(out),
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert "status = complete" in (out / "manifest.txt").read_text(encoding="utf-8")
        report = (out / "validation_report.txt").read_text(encoding="utf-8")
        assert "('Zürich', 2000): total_assets <= 0: unusable" in report

    def test_panel_round_trip_of_a_non_ascii_id(self, tmp_path):
        source, copy = tmp_path / "source.csv", tmp_path / "copy.csv"
        source.write_text(
            PANEL_HEADER
            + "Zürich,2000,200,50,150,80,40,100,10,21,100,100,15\n"
            + "Zürich,2001,210,55,150,80,40,100,10,21,110,105,15\n",
            encoding="utf-8",
        )
        code = (
            "import sys\n"
            "from levquant import read_panel_csv, write_panel_csv\n"
            "panel = read_panel_csv(sys.argv[1])\n"
            "write_panel_csv(panel, sys.argv[2])\n"
            "back = read_panel_csv(sys.argv[2])\n"
            "assert back.records == panel.records and back.validation.rejected == []\n"
        )
        done = run_in_c_locale("-c", code, str(source), str(copy))
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        firms = [line.split(",")[0] for line in copy.read_text(encoding="utf-8").splitlines()]
        assert firms == ["firm_id", "Zürich", "Zürich"]
