import math
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmemory import cli
from becmemory.cli import main
from becmemory.config import (SCHEMA, ConfigError, RunConfig, load_config,
                              parse_config_text, parse_float_list,
                              parse_value)
from becmemory.memory import NOISE_PRESETS
from becmemory.tomography import StructureWarning
from conftest import column, read_table

TWO_PI = 2.0 * math.pi


class TestConfigParsing:
    def test_file_format(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n"
                        "medium.atom_number = 2e6\n"
                        "noise.preset = feed-forward\n"
                        "\n"
                        "pulse.tau_p_ns = 100\n")
        cfg = load_config(str(path))
        assert cfg.raw["medium.atom_number"] == 2e6
        assert cfg.noise.preset == "feed-forward"
        assert cfg.pulse.tau_p == pytest.approx(100e-9)

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("medium.atom_number 2e6")

    def test_file_entries_keep_their_order(self):
        text = "fig4.n_points = abc\n# note\nseed = 7\nfig4.n_points = 5\n"
        assert parse_config_text(text) == [("fig4.n_points", "abc"),
                                           ("seed", "7"),
                                           ("fig4.n_points", "5")]

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_mapping({"medium.atom_count": "1"})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["medium.atom_count=1"])

    def test_override_coercion(self):
        cfg = load_config(overrides=["fig4.n_points=11",
                                     "attenuation.enabled=true",
                                     "control.omega_c_mhz=15"])
        assert cfg.raw["fig4.n_points"] == 11
        assert cfg.raw["attenuation.enabled"] is True
        assert cfg.raw["control.omega_c_mhz"] == 15.0

    def test_schema_defaults_are_in_range(self):
        for key, (default, _) in SCHEMA.items():
            assert parse_value(key, default) == default

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["fig4.n_points=eleven"])
        with pytest.raises(ConfigError):
            load_config(overrides=["attenuation.enabled=maybe"])
        with pytest.raises(ConfigError, match="--set expects KEY=VALUE"):
            load_config(overrides=["not-an-assignment"])

    def test_every_value_is_checked_before_a_later_one_replaces_it(
            self, tmp_path):
        bad = "expected an integer for 'fig4.n_points', got 'abc'"
        with pytest.raises(ConfigError, match=re.escape(bad)):
            RunConfig.from_mapping([("fig4.n_points", "abc"),
                                    ("fig4.n_points", "5")])
        path = tmp_path / "run.cfg"
        path.write_text("fig4.n_points = abc\nfig4.n_points = 5\n")
        with pytest.raises(ConfigError, match=re.escape(bad)):
            load_config(str(path))
        with pytest.raises(ConfigError, match=re.escape(bad)):
            load_config(overrides=["fig4.n_points=abc", "fig4.n_points=5"])
        with pytest.raises(ConfigError, match="seed must be >= 0, got '-1'"):
            load_config(overrides=["seed=-1"], seed=3)

    def test_a_later_value_replaces_an_earlier_one(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fig4.n_points = 5\nseed = 1\nfig4.n_points = 7\n"
                        "noise.preset = feed-forward\n")
        cfg = load_config(str(path))
        assert cfg.raw["fig4.n_points"] == 7
        assert cfg.raw["seed"] == 1
        cfg = load_config(str(path), ["fig4.n_points=9", "seed=2",
                                      "noise.preset=unsynchronized"],
                          preset="line-synced", seed=3)
        assert cfg.raw["fig4.n_points"] == 9
        assert cfg.raw["noise.preset"] == "line-synced"
        assert cfg.raw["seed"] == 3
        # a replaced key keeps its place in the metadata echo
        assert list(cfg.raw) == list(SCHEMA)


class TestRunConfig:
    @pytest.mark.parametrize("key, largest", [
        ("fig4.n_points", 2**40), ("fig4.shots", 2**40),
        ("fig5.n_points", 2**40), ("fig6.n_points", 2**40),
        ("fig7.n_points", 2**40), ("fig8.n_points", 2**40),
        ("tomography.repeats", 2**40), ("tomography.shots", 2**40),
        ("optimize.grid", 2**20)])
    def test_size_keys_are_bounded(self, key, largest):
        # the bound keeps every array's byte count in numpy's index range
        assert RunConfig.from_mapping({key: largest}).raw[key] == largest
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be"):
            RunConfig.from_mapping({key: largest + 1})

    def test_fig3_samples_per_window_bounded(self):
        assert RunConfig.from_mapping({"fig3.window_length_us": 2.0**40,
                                       "fig3.step_us": 1.0})
        with pytest.raises(ConfigError, match="samples per window"):
            RunConfig.from_mapping({"fig3.window_length_us": 2.0**40,
                                    "fig3.step_us": 0.5})

    def test_defaults_are_reference_values(self, cfg):
        assert cfg.raw["medium.atom_number"] == 1.2e6
        assert cfg.medium.r_x == pytest.approx(7e-6)
        assert cfg.medium.r_y == pytest.approx(25e-6)
        assert cfg.medium.r_z == pytest.approx(25e-6)
        assert cfg.medium.gamma_total == pytest.approx(1.0 / 26e-9)
        assert cfg.medium.branching_ratio == pytest.approx(1.0 / 12.0)
        assert cfg.medium.lambda_p == pytest.approx(795e-9)
        assert cfg.pulse.tau_p == pytest.approx(94e-9)
        assert cfg.pulse.t0 == pytest.approx(230e-9)
        assert cfg.pulse.waist == pytest.approx(8e-6)
        assert cfg.raw["medium.dp_target"] == 127.0

    def test_unit_conversions(self):
        cfg = RunConfig.from_mapping({"control.omega_c_mhz": 15.0,
                                      "control.delta_c_mhz": 70.0})
        assert cfg.control.omega_c == pytest.approx(TWO_PI * 15e6)
        assert cfg.control.delta_c == pytest.approx(TWO_PI * 70e6)

    def test_noise_presets(self):
        cfg = RunConfig.from_mapping({"noise.preset": "unsynchronized"})
        assert cfg.noise.sigma_b == 2e-3
        cfg = RunConfig.from_mapping({"noise.preset": "custom",
                                      "noise.sigma_b_mg": 0.35})
        assert cfg.noise.sigma_b == pytest.approx(0.35e-3)

    def test_custom_requires_sigma(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"noise.preset": "custom"})

    def test_sigma_with_preset_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"noise.preset": "line-synced",
                                    "noise.sigma_b_mg": 0.1})

    def test_invalid_physical_value(self):
        with pytest.raises(ConfigError):
            RunConfig.from_mapping({"medium.atom_number": -5.0})

    def test_dp_target_rescaling(self, cfg):
        from becmemory.eit import optical_depth
        assert optical_depth(cfg.medium) == pytest.approx(127.0, rel=1e-12)
        raw = RunConfig.from_mapping({"medium.dp_target": 0.0})
        assert optical_depth(raw.medium) == pytest.approx(
            137.2232594818897, rel=1e-12)

    def test_attenuation_factor(self):
        cfg = RunConfig.from_mapping({"attenuation.enabled": True})
        assert cfg.attenuation_factor() == pytest.approx(0.66 * 0.88 * 0.8)
        detuned = RunConfig.from_mapping({"attenuation.enabled": True,
                                          "control.delta_c_mhz": 70.0})
        assert detuned.attenuation_factor() == pytest.approx(
            0.66 * 0.80 * 0.8)
        assert RunConfig.from_mapping({}).attenuation_factor() == 1.0


FAST_OVERRIDES = {
    "fig3": ["--set", "fig3.window_starts_us=0,495",
             "--set", "fig3.step_us=1.0"],
    "fig4": ["--set", "fig4.n_points=6", "--set", "fig4.shots=40"],
    "fig5": ["--set", "fig5.n_points=12"],
    "fig6": ["--set", "fig6.n_points=12"],
    "fig7": ["--set", "fig7.n_points=12"],
    "fig8": ["--set", "fig8.n_points=21"],
    "tomography": [],
    "optimize": ["--set", "optimize.grid=24"],
}


class TestCommandLine:
    @pytest.mark.parametrize("command", sorted(FAST_OVERRIDES))
    def test_subcommand_writes_csv(self, command, tmp_path):
        out = tmp_path / f"{command}.csv"
        code = main([command, "--out", str(out)]
                    + FAST_OVERRIDES[command])
        assert code == 0
        metadata, header, rows = read_table(str(out))
        assert rows, "no data rows written"
        assert any(m.startswith("command = ") for m in metadata)
        assert any(m.startswith("seed = ") for m in metadata)
        assert any(m.startswith("config.") for m in metadata)

    def test_full_precision_numbers(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out), "--set",
                     "fig7.n_points=5"]) == 0
        _, header, rows = read_table(str(out))
        cell = rows[1][header.index("eta_transverse_avg")]
        # %.17g keeps every bit of the double
        assert float(cell) != 0.0
        assert len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_reproducible_output(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        args = ["fig3", "--set", "fig3.window_starts_us=0",
                "--set", "fig3.step_us=1.0"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert main(args + ["--out", str(c), "--seed", "999"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("command", sorted(FAST_OVERRIDES))
    def test_help_lists_every_preset(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "noise preset: unsynchronized, line-synced, feed-forward or " \
            "custom" in text
        assert all(name in text for name in (*NOISE_PRESETS, "custom"))

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["tomography", "--preset", "unsynchronized",
                     "--out", str(out)]) == 0
        metadata, _, _ = read_table(str(out))
        assert "config.noise.preset = unsynchronized" in metadata

    def test_config_error_exit_code(self, capsys):
        assert main(["fig3", "--set", "bogus.key=1"]) == 2
        assert "config error" in capsys.readouterr().err
        assert main(["fig3", "--set", "medium.atom_number=-2"]) == 2
        # out-of-range, non-finite and negative-seed inputs are config
        # errors too, not numerical failures or silent nan/inf tables
        for argv in (["fig3", "--set", "fig3.step_us=-1"],
                     ["fig4", "--set", "fig4.n_points=2"],
                     ["fig6", "--set", "fig6.condensate_fractions=1.5"],
                     ["fig6", "--set", "fig6.temperature_uk=0"],
                     ["fig5", "--set", "fig5.sigma_eta_fit_ms=0"],
                     ["tomography", "--set", "tomography.eta0=1.5"],
                     ["tomography", "--set", "tomography.eta0=0"],
                     ["fig5", "--set", "fig5.eta0=-2"],
                     ["fig7", "--set", "attenuation.enabled=true",
                      "--set", "attenuation.fiber=-3"],
                     ["fig5", "--set", "attenuation.mode_resonant=1.5"],
                     ["fig5", "--set", "attenuation.mode_detuned=-0.1"],
                     ["fig5", "--set", "attenuation.cavity=2"],
                     ["fig3", "--seed", "-1"],
                     ["optimize", "--set", "pulse.tau_p_ns=nan"],
                     ["fig8", "--set", "medium.dp_target=inf"],
                     ["fig5", "--set", "fig5.t_max_ms=inf"]):
            assert main(argv) == 2, argv
            assert "config error" in capsys.readouterr().err, argv
        # a depth target no finite atom number reaches: one line, naming it
        assert main(["fig7", "--set", "medium.radius_x_um=1e-300"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "rescale" in lines[0], lines

    def test_bad_value_overridden_in_config_file_exit_code(self, capsys,
                                                          tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("fig4.n_points = abc\nfig4.n_points = 5\n")
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "becmem: config error: expected an integer for 'fig4.n_points', "
            "got 'abc'\n")
        assert not out.exists()

    def test_missing_config_file(self):
        assert main(["fig3", "--config", "/nonexistent/run.cfg"]) == 2

    def test_numerical_failure_exit_code(self, capsys):
        # degenerate fig4 grid: the alpha trace cannot be fitted
        code = main(["fig4", "--set", "fig4.n_points=3",
                     "--set", "fig4.t_max_sigma_factor=1e-9",
                     "--set", "fig4.shots=5"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["1e-9", "1e-4"])
    def test_unresolved_decay_exit_code(self, capsys, factor):
        # a span so short that alpha(t) hardly falls: sigma's standard
        # error exceeds half of sigma, so the fit resolves no decay
        assert main(["fig4", "--set",
                     f"fig4.t_max_sigma_factor={factor}"]) == 3
        assert "the data resolve no decay" in capsys.readouterr().err

    # ROADMAP item 5's gate on short spans: a run fits a finite sigma in
    # every preset, or exits 3 naming the cause
    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="fig4's fit in sigma walks off to infinity on these spans, "
               "spends its 2000 evaluations and says 'did not converge' "
               "(FOUND note on short spans in CHANGES.md; ROADMAP item 5)")
    @pytest.mark.parametrize("argv", [
        ["--set", "fig4.t_max_sigma_factor=0.1"],
        ["--seed", "7", "--set", "fig4.t_max_sigma_factor=0.1"],
        ["--seed", "7", "--set", "fig4.t_max_sigma_factor=0.2"]],
        ids=["default-0.1", "seed7-0.1", "seed7-0.2"])
    def test_short_span_fig4_fits_or_names_the_cause(self, argv, capsys,
                                                      tmp_path):
        out = tmp_path / "fig4.csv"
        code = main(["fig4", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        if code == 3:
            assert "the data resolve no decay" in err, err
            return
        assert code == 0, err
        metadata, _, _ = read_table(str(out))
        sigmas = [float(line.split(" = ")[1]) for line in metadata
                  if re.match(r"fit\..+\.sigma_alpha_ms = ", line)]
        assert len(sigmas) == 3 and all(map(math.isfinite, sigmas))

    def test_non_finite_table_exit_code(self, capsys, tmp_path):
        # a finite but huge depth target overflows the susceptibility
        out = tmp_path / "fig8.csv"
        assert main(["fig8", "--out", str(out),
                     "--set", "medium.dp_target=1e300"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_optimize_prints_report(self, capsys):
        code = main(["optimize", "--set", "optimize.grid=24"])
        assert code == 0
        report = capsys.readouterr().out
        assert "optimal control Rabi frequency" in report
        assert "efficiency at optimum" in report

    def test_fig3_noise_free_shot_equals_model(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out),
                     "--set", "noise.preset=custom",
                     "--set", "noise.sigma_b_mg=0",
                     "--set", "fig3.window_starts_us=0",
                     "--set", "fig3.step_us=0.5"]) == 0
        _, header, rows = read_table(str(out))
        shot = np.array(column(header, rows, "s1_over_s0_shot"))
        model = np.array(column(header, rows, "s1_over_s0_model"))
        np.testing.assert_allclose(shot, model, rtol=0, atol=1e-14)
        # the rotation starts aligned with the input azimuth
        assert model[0] == 1.0

    def test_fig3_pulse_delay_flag_shifts_phase(self, tmp_path):
        outs = {}
        for flag in ("false", "true"):
            out = tmp_path / f"fig3_{flag}.csv"
            assert main(["fig3", "--out", str(out),
                         "--set", f"rotation.include_pulse_delay={flag}",
                         "--set", "noise.preset=custom",
                         "--set", "noise.sigma_b_mg=0",
                         "--set", "fig3.window_starts_us=0",
                         "--set", "fig3.step_us=0.5"]) == 0
            _, header, rows = read_table(str(out))
            outs[flag] = np.array(column(header, rows, "s1_over_s0_model"))
        assert not np.allclose(outs["false"], outs["true"])

    def test_fig3_fit_recovers_generator(self, tmp_path):
        from becmemory.fitting import DataSeries, fit_damped_sinusoid
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--out", str(out)]) == 0
        _, header, rows = read_table(str(out))
        t = np.array(column(header, rows, "t_store_us")) * 1e-6
        shot = np.array(column(header, rows, "s1_over_s0_shot"))
        fit = fit_damped_sinusoid(DataSeries(t, shot))
        assert fit.converged
        omega = fit.params["omega_f"]
        err = max(fit.std_errors.get("omega_f", 0.0), 1e-4 * omega)
        assert abs(omega - TWO_PI * 0.20e6) <= 5 * err

    def test_fig4_fit_metadata(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--out", str(out), "--set", "fig4.n_points=10",
                     "--set", "fig4.shots=150"]) == 0
        metadata, header, rows = read_table(str(out))
        fitted = {}
        for line in metadata:
            m = re.match(r"fit\.(.+)\.sigma_alpha_ms = (.+)", line)
            if m:
                fitted[m.group(1)] = float(m.group(2))
        assert set(fitted) == {"unsynchronized", "line-synced",
                               "feed-forward"}
        assert fitted["unsynchronized"] == pytest.approx(0.0568, rel=0.25)
        assert fitted["line-synced"] == pytest.approx(1.137, rel=0.25)
        assert fitted["feed-forward"] == pytest.approx(0.568, rel=0.25)

    def test_fig5_columns(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["fig5", "--out", str(out)]) == 0
        metadata, header, rows = read_table(str(out))
        t = np.array(column(header, rows, "t_store_ms"))
        model = np.array(column(header, rows, "eta_recoil_model"))
        sigma_ms = float(next(m.split(" = ")[1] for m in metadata
                              if m.startswith("sigma_eta_recoil_ms")))
        assert sigma_ms == pytest.approx(0.9805, abs=2e-3)
        # the e^-1/2 point of the model column sits at the recoil lifetime
        assert np.interp(sigma_ms, t, model) == pytest.approx(
            math.exp(-0.5), abs=2e-3)
        fit_col = np.array(column(header, rows, "eta_measured_fit"))
        assert np.interp(0.48, t, fit_col) == pytest.approx(
            math.exp(-0.5), abs=2e-3)

    def test_fig6_plateaus(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out)]) == 0
        _, header, rows = read_table(str(out))
        t = np.array(column(header, rows, "t_store_ms"))
        k = int(np.argmin(np.abs(t - 0.12)))
        for fc in (0.3, 0.6, 0.9):
            curve = np.array(column(header, rows, f"eta_fc_{fc:g}"))
            assert curve[0] == 1.0
            assert curve[k] == pytest.approx(fc, abs=0.02)

    def test_fig7_columns_monotone(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out),
                     "--set", "fig7.n_points=41"]) == 0
        _, header, rows = read_table(str(out))
        comp = np.array(column(header, rows, "eta_comp"))
        trans = np.array(column(header, rows, "eta_trans"))
        # the compression factor saturates (flat to machine precision) at
        # very low power where the delay far exceeds the pulse, then falls
        assert np.all(np.diff(comp) <= 1e-15)
        assert np.all(np.diff(comp[len(comp) // 2:]) < 0)
        assert np.all(np.diff(trans) > 0)

    def test_fig8_window_structure(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert main(["fig8", "--out", str(out)]) == 0
        metadata, header, rows = read_table(str(out))
        # default control power is 2 pi x 20 MHz = 3.3 Gamma
        assert "config.control.omega_c_mhz = 20" in metadata
        assert 2 * math.pi * 20e6 * 26e-9 == pytest.approx(3.3, abs=0.05)
        for prefix in ("resonant", "detuned"):
            d = np.array(column(header, rows, f"delta2_{prefix}_mhz"))
            im = np.array(column(header, rows, f"im_chi_{prefix}"))
            assert im[np.argmin(np.abs(d))] == 0.0
            assert np.all(im >= 0.0)
        d = np.array(column(header, rows, "delta2_resonant_mhz"))
        im = np.array(column(header, rows, "im_chi_resonant"))
        # maxima sit at +-Omega_c/2 = +-10 MHz for the default control power
        peak = abs(d[np.argmax(im)])
        assert peak == pytest.approx(10.0, abs=0.1)
        d2 = np.array(column(header, rows, "delta2_detuned_mhz"))
        im2 = np.array(column(header, rows, "im_chi_detuned"))
        assert d2[np.argmax(im2)] == pytest.approx(1.40, abs=0.02)

    def test_tomography_noiseless_unit_fidelity(self, tmp_path):
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "noise.preset=custom",
                     "--set", "noise.sigma_b_mg=0",
                     "--set", "detector.relative_sigma=0"]) == 0
        _, header, rows = read_table(str(out))
        assert len(rows) == 12
        fidelity = set(column(header, rows, "avg_fidelity"))
        assert fidelity == {1.0}

    def test_tomography_alpha_zero_floor(self, tmp_path):
        # enormous field noise fully dephases the equator: <F> = 2/3
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "noise.preset=custom",
                     "--set", "noise.sigma_b_mg=2000",
                     "--set", "storage.t_store_us=1000",
                     "--set", "detector.relative_sigma=0"]) == 0
        _, header, rows = read_table(str(out))
        alpha = column(header, rows, "alpha")[0]
        avg_f = column(header, rows, "avg_fidelity")[0]
        assert alpha == pytest.approx(0.0, abs=1e-12)
        assert avg_f == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_tomography_noisy_spread_reported(self, tmp_path):
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "tomography.repeats=50"]) == 0
        metadata, header, rows = read_table(str(out))
        assert len(rows) == 50 * 12
        stats = {m.split(" = ")[0]: float(m.split(" = ")[1])
                 for m in metadata if m.startswith("avg_fidelity")}
        assert 0.0 < stats["avg_fidelity_std"] < 0.05
        assert stats["avg_fidelity_mean"] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("setting", ["detector.relative_sigma=0.8"])
    def test_tomography_readings_clipped_at_zero(self, setting, tmp_path):
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out), "--set", setting,
                     "--set", "tomography.repeats=20"]) == 0
        _, header, rows = read_table(str(out))
        readings = column(header, rows, "i_plus") \
            + column(header, rows, "i_minus")
        assert min(readings) == 0.0

    @pytest.mark.parametrize("command", ["fig4", "tomography"])
    @pytest.mark.parametrize("background", ["-0.01", "-1"])
    def test_negative_background_exit_code(self, command, background,
                                           capsys, tmp_path):
        # readings add the background and nothing subtracts it, so a
        # negative one is a dark-level subtraction the model does not have
        assert main([command, "--out", str(tmp_path / "out.csv"), "--set",
                     f"detector.background={background}"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_warnings_print_as_one_line_messages(self, capsys, tmp_path):
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "detector.relative_sigma=0.05",
                     "--set", "tomography.shots=300"]) == 0
        err = capsys.readouterr().err
        assert "matrix deviates from the memory form" in err
        assert all(line.startswith("becmem: warning: ")
                   for line in err.splitlines())
        assert ".py:" not in err
        # one line per repeat whose residual exceeds 0.1, also where two
        # residuals print alike
        assert main(["tomography", "--out", str(out),
                     "--set", "detector.relative_sigma=20",
                     "--set", "tomography.repeats=40"]) == 0
        err = capsys.readouterr().err
        _, header, rows = read_table(str(out))
        residuals = dict(zip(column(header, rows, "repetition", int),
                             column(header, rows, "residual")))
        assert len(residuals) == 40
        assert err.count("becmem: warning: ") \
            == sum(r > 0.1 for r in residuals.values()) == 40

    def test_fig4_suppresses_only_the_structure_warning(self, monkeypatch):
        from becmemory import commands
        extract = commands.extract_memory_params

        def warning_extract(mueller):
            warnings.warn("matrix deviates from the memory form (test)",
                          StructureWarning)
            warnings.warn("some other warning")
            return extract(mueller)

        monkeypatch.setattr(commands, "extract_memory_params",
                            warning_extract)
        cfg = RunConfig.from_mapping({"fig4.n_points": 6, "fig4.shots": 40})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            commands.cmd_fig4(cfg)
        messages = {str(w.message) for w in caught}
        assert "some other warning" in messages
        assert not any(m.startswith("matrix deviates") for m in messages)

    def test_tomography_shot_mode(self, tmp_path):
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "tomography.shots=400",
                     "--set", "storage.t_store_us=500",
                     "--set", "detector.relative_sigma=0"]) == 0
        _, header, rows = read_table(str(out))
        alpha = column(header, rows, "alpha")[0]
        from becmemory.memory import damping_factor, sigma_alpha_from_noise
        expected = damping_factor(500e-6, sigma_alpha_from_noise(1e-4))
        assert alpha == pytest.approx(expected, abs=0.1)

    def test_config_file_end_to_end(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# reduced sweep\n"
                            "fig7.n_points = 7\n"
                            "fig7.omega_min_mhz = 10\n"
                            "fig7.omega_max_mhz = 22\n"
                            "medium.dp_target = 100\n")
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        metadata, header, rows = read_table(str(out))
        assert len(rows) == 7
        assert "config.medium.dp_target = 100" in metadata
        omegas = column(header, rows, "omega_c_mhz")
        assert omegas[0] == 10.0 and omegas[-1] == 22.0

    def test_console_entry_point_subprocess(self, tmp_path):
        import subprocess
        import sys
        out = tmp_path / "fig5.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "becmemory.cli", "fig5",
             "--out", str(out), "--set", "fig5.n_points=5"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        bad = subprocess.run(
            [sys.executable, "-m", "becmemory.cli", "fig5",
             "--set", "no.such.key=1"],
            capture_output=True, text=True)
        assert bad.returncode == 2

    def test_output_path_precedence(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig5", "--set", "output.path=x.csv"]) == 0
        assert (tmp_path / "x.csv").exists()
        # --out wins over the config value
        assert main(["fig5", "--out", "y.csv",
                     "--set", "output.path=z.csv"]) == 0
        assert (tmp_path / "y.csv").exists()
        assert not (tmp_path / "z.csv").exists()
        # neither: <command>.csv, or no file for optimize's report
        for command, fast in FAST_OVERRIDES.items():
            assert main([command, *fast]) == 0, command
        written = [f"{c}.csv" for c in FAST_OVERRIDES if c != "optimize"]
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(written + ["x.csv", "y.csv"])

    @pytest.mark.parametrize("argv", [["fig5", "--set", "fig5.n_points=5"],
                                      ["optimize", "--set", "optimize.grid=8"]])
    def test_unwritable_output_exit_code(self, argv, capsys, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""    # no report of a run that failed
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"becmem: config error: cannot write output file {out}: ")
        assert not out.parent.exists()

    def test_unallocatable_output_exit_code(self, monkeypatch, capsys):
        # a size whose arrays the host cannot allocate is a bad
        # configuration; the error is raised here without allocating, as a
        # real attempt can end in the OOM killer on an overcommitting host
        def unallocatable(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array "
                              "with shape (1000000000000,)")
        monkeypatch.setitem(cli.COMMANDS, "fig8", unallocatable)
        assert main(["fig8", "--set", "fig8.n_points=1000000000000"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("becmem: config error: cannot allocate")

    @pytest.mark.parametrize("command, setting", [
        ("fig5", f"fig5.n_points={10**30}"),
        ("fig8", f"fig8.n_points={10**20}"),
        ("optimize", f"optimize.grid={10**20}"),
        ("fig4", f"fig4.shots={10**20}"),
        ("tomography", f"tomography.shots={10**20}"),
        ("fig3", "fig3.step_us=1e-300"),
        ("fig3", "fig3.window_length_us=1e300")])
    def test_size_past_the_index_range_exit_code(self, command, setting,
                                                 monkeypatch, capsys):
        # arrays no index can address: a config error, raised before the
        # command runs, so nothing is allocated
        def unreachable(cfg):
            raise AssertionError(f"{command} ran with {setting}")
        monkeypatch.setitem(cli.COMMANDS, command, unreachable)
        assert main([command, "--set", setting]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("becmem: config error: ")
        assert setting.partition("=")[0] in lines[0]

    def test_seed_past_the_index_range_runs(self, tmp_path):
        # SeedSequence takes any non-negative integer
        out = tmp_path / "fig3.csv"
        assert main(["fig3", *FAST_OVERRIDES["fig3"], "--seed",
                     str(10**29), "--out", str(out)]) == 0

    @pytest.mark.parametrize("fractions", ["0.5,0.5", "0.3,0.3000001"])
    def test_fig6_duplicate_columns_exit_code(self, fractions, capsys,
                                              tmp_path):
        # both fractions would name the column eta_fc_0.5 (eta_fc_0.3)
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out), "--set",
                     f"fig6.condensate_fractions={fractions}"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_attenuation_scales_fig5(self, tmp_path):
        plain = tmp_path / "plain.csv"
        scaled = tmp_path / "scaled.csv"
        assert main(["fig5", "--out", str(plain)]) == 0
        assert main(["fig5", "--out", str(scaled),
                     "--set", "attenuation.enabled=true"]) == 0
        _, header, rows_a = read_table(str(plain))
        _, _, rows_b = read_table(str(scaled))
        a = np.array(column(header, rows_a, "eta_recoil_model"))
        b = np.array(column(header, rows_b, "eta_recoil_model"))
        np.testing.assert_allclose(b, a * 0.66 * 0.88 * 0.8, rtol=1e-12)


def _override_text(key):
    """Strategy for the text of one override: in and out of the key's
    range, nan/inf for numbers, all near the default so grids stay small."""
    default = SCHEMA[key][0]
    if isinstance(default, bool):
        return st.sampled_from(["true", "off", "1", "maybe"])
    if isinstance(default, int):
        return st.integers(-3, 30).map(str) | st.just("2.5")
    if key == "noise.preset":
        return st.sampled_from(["custom", "feed-forward", "unsynchronized",
                                "line-synced", "bogus"])
    listed = isinstance(default, str)
    scale = max(map(abs, parse_float_list(default))) if listed \
        else abs(default) or 1.0
    number = st.builds(lambda sign, k: repr(sign * scale * 2.0**k),
                       st.sampled_from([1, -1]), st.integers(-3, 3)) \
        | st.sampled_from(["0", "nan", "inf", "-inf"])
    if listed:
        return st.lists(number, max_size=3).map(",".join)
    return number


SCHEMA_KEYS = sorted(key for key in SCHEMA if key != "output.path")


@st.composite
def _one_override(draw):
    key = draw(st.sampled_from(SCHEMA_KEYS))
    owner = key.split(".")[0]
    command = owner if owner in FAST_OVERRIDES \
        else draw(st.sampled_from(sorted(FAST_OVERRIDES)))
    return command, key, draw(_override_text(key))


@settings(max_examples=200, deadline=None)
@given(_one_override())
def test_schema_override_exit_codes(case):
    """Bad values exit 2; accepted ones exit 0 with finite cells, or 3."""
    command, key, text = case
    try:
        RunConfig.from_mapping({key: text})
        accepted = True
    except ConfigError:
        accepted = False
    if isinstance(SCHEMA[key][0], float) and text in ("nan", "inf", "-inf"):
        assert not accepted
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out.csv"
        code = main([command, "--out", out] + FAST_OVERRIDES[command]
                    + ["--set", f"{key}={text}"])
        if not accepted:
            assert code == 2
            return
        assert code in (0, 3)
        if code == 0:
            _, _, rows = read_table(out)
            for cell in (cell for row in rows for cell in row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (key, text, cell)
