import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poissonpolymer.cli as cli
from poissonpolymer.analytics import bessel_zero
from poissonpolymer.cli import build_run_plan, main, parse_config_text
from poissonpolymer.environment import SpaceTimeBox, sample_poisson
from poissonpolymer.errors import InvalidParameterError, InvariantViolationError
from poissonpolymer.estimators import EstimateWithError, ExperimentConfig
from poissonpolymer.polymer import bounding_box_for, build_ensemble, sample_paths
from poissonpolymer.streams import substream

MINIMAL = """\
# smallest useful run
d = 1
beta = 0
nu = 1
t = 1
paths_per_env = 40
n_envs = 4
seed = 9
mode = quenched
"""

# the diagnostics of every estimate over path-batch ensembles
PATH_BATCH_KEYS = {"ess_min", "ess_median", "ess_degenerate", "points_mean",
                   "window_volume_mean"}


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def load_results_json(out):
    """The rows of results.json, which must hold no NaN or Infinity."""
    def reject(constant):
        raise AssertionError(f"results.json holds {constant}")

    return json.loads((out / "results.json").read_text(), parse_constant=reject)


class TestConfigParsing:
    def test_roundtrip(self):
        raw = parse_config_text(MINIMAL)
        assert raw["mode"] == "quenched"
        assert raw["paths_per_env"] == "40"

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown config key 'betta'"):
            parse_config_text("betta = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            parse_config_text("beta = 1\nbeta = 2\n")

    def test_malformed_line(self):
        with pytest.raises(InvalidParameterError, match="line 1"):
            parse_config_text("beta 1\n")

    def test_bad_mode(self):
        raw = parse_config_text("beta = 0\nnu = 1\nmode = warp\n")
        with pytest.raises(InvalidParameterError, match="mode"):
            build_run_plan(raw, sweep=False)

    def test_grid_keys_need_sweep(self):
        raw = parse_config_text("beta = 0\nnu = 1\ngrid.beta = 0,1\n")
        with pytest.raises(InvalidParameterError, match="sweep"):
            build_run_plan(raw, sweep=False)

    def test_missing_required_key(self):
        with pytest.raises(InvalidParameterError, match="beta"):
            build_run_plan(parse_config_text("nu = 1\n"), sweep=False)

    def test_invalid_value_names_key(self):
        raw = parse_config_text("beta = 0\nnu = 1\nn_envs = 0\n")
        with pytest.raises(ValueError, match="n_envs"):
            build_run_plan(raw, sweep=False)

    def test_cell_order_beta_major(self):
        raw = parse_config_text(
            "nu = 1\nbeta = 0\ngrid.beta = 0,1\ngrid.t = 1,2\n"
            "paths_per_env = 8\nn_envs = 2\n")
        _, cells = build_run_plan(raw, sweep=True)
        assert [(c.beta, c.t) for c in cells] == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_absent_keys_take_the_config_defaults(self):
        # only d = 1 and t = 4 are the format's own; the rest are ExperimentConfig's
        raw = parse_config_text("beta = 0\nnu = 1\n")
        assert build_run_plan(raw, sweep=False) == (
            "quenched", [ExperimentConfig(d=1, beta=0.0, nu=1.0, t=4.0)])

    def test_config_keys_match_the_docs(self):
        # the key list in the module docstring and the README's config block
        listed = cli.__doc__.split("rejected):", 1)[1].split("\n\n")[1]
        assert {key.strip() for key in listed.split(",")} == cli.CONFIG_KEYS
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```")[1]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        assert keys and keys <= cli.CONFIG_KEYS


class TestSimulate:
    def test_minimal_run_zero_beta(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "quenched"
        assert float(fields[9]) == 0.0   # value
        assert float(fields[10]) == 0.0  # std_error
        assert fields[12] == "quenched_free_energy"

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("beta = 0", "beta = 0.5"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", str(config), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()

    def test_manifest_replay(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("beta = 0", "beta = 0.3"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", "--from-manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["simulate", str(config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 9
        assert manifest["generator"] == "philox4x64-10"
        assert manifest["config_text"] == MINIMAL
        assert "total" in manifest["timings_seconds"]
        rows = json.loads((out / "results.json").read_text())
        assert rows[0]["config_sha256"] == manifest["config_sha256"]

    def test_seed_override_changes_results(self, tmp_path):
        config = write_config(tmp_path, MINIMAL.replace("beta = 0", "beta = 0.5"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", str(config), "--out", str(out1)])
        main(["simulate", str(config), "--out", str(out2), "--seed", "77"])
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    def test_unknown_key_exit_code_2(self, tmp_path, capsys):
        config = write_config(tmp_path, MINIMAL + "typo_key = 1\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_missing_config_exit_code_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", [[], ["--from-manifest"]], ids=["config", "manifest"])
    def test_undecodable_file_exit_code_2(self, tmp_path, capsys, flag):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["simulate", *flag, str(path), "--out", str(tmp_path / "o")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", "not json", '{"config_text": 5}'],
                             ids=["empty-object", "array", "invalid-json", "non-string"])
    def test_malformed_manifest_exit_code_2(self, tmp_path, capsys, text):
        manifest = write_config(tmp_path, text, name="manifest.json")
        assert main(["simulate", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 2
        assert "'config_text'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_steps", "bin_width"])
    def test_zero_is_rejected_not_defaulted(self, tmp_path, capsys, key):
        config = write_config(tmp_path, MINIMAL + f"{key} = 0\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,extra", [
        ("t", "inf", ""), ("t", "inf", "n_steps = 64\n"), ("t", "nan", ""),
        ("nu", "inf", ""), ("nu", "nan", ""), ("bin_width", "inf", ""),
        ("delta", "nan", "")],
        ids=["t-inf", "t-inf-n_steps", "t-nan", "nu-inf", "nu-nan", "bin_width-inf",
             "delta-nan"])
    def test_non_finite_value_names_key(self, tmp_path, capsys, key, value, extra):
        kept = [line for line in MINIMAL.splitlines() if not line.startswith(f"{key} ")]
        config = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {value}\n{extra}")
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,mode", [
        ("d", "0", "quenched"), ("d", "-1", "localization"),
        ("beta", "800", "dp-dbeta"), ("beta", "800", "annealed"),
        ("beta", "-351", "dp-dnu"), ("beta", "1e308", "quenched"),
        ("beta", "1e308", "localization"), ("nu", "0", "dp-dnu"),
        ("bin_width", "1e300", "localization"), ("n_envs", str(10 ** 30), "annealed")],
        ids=["d-0", "d-negative", "beta-800-dp-dbeta", "beta-800-annealed",
             "beta-minus-351", "beta-1e308-quenched", "beta-1e308-localization",
             "nu-0-dp-dnu", "bin_width-1e300-localization", "n_envs-1e30-annealed"])
    def test_out_of_range_value_names_key(self, tmp_path, capsys, key, value, mode):
        kept = [line for line in MINIMAL.splitlines()
                if not line.startswith((f"{key} ", "mode "))]
        config = write_config(tmp_path, "\n".join(kept) + f"\n{key} = {value}\nmode = {mode}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["quenched", "annealed"])
    def test_intensity_above_point_budget_names_nu(self, tmp_path, capsys, mode):
        # 1e9 points per unit volume would take tens of GiB before any check
        kept = [line for line in MINIMAL.splitlines() if not line.startswith(("nu ", "mode "))]
        config = write_config(tmp_path, "\n".join(kept) + f"\nnu = 1e9\nmode = {mode}\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "'nu'" in capsys.readouterr().err

    # refused before the (800 MB and up) allocation is attempted
    @pytest.mark.parametrize("extra,keys", [
        ("paths_per_env = 1000000\nn_steps = 1000\n", ["'paths_per_env'", "'n_steps'"]),
        ("paths_per_env = 10\nd = 2\nbin_width = 1e-4\nmode = localization\n",
         ["'bin_width'"])], ids=["path-stack", "field"])
    def test_allocation_above_budget_names_key(self, tmp_path, capsys, extra, keys):
        kept = [line for line in MINIMAL.splitlines()
                if not line.startswith(("d ", "paths_per_env ", "mode "))]
        config = write_config(tmp_path, "\n".join(kept) + "\n" + extra)
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)

    @pytest.mark.parametrize("mode", ["quenched", "annealed", "localization"])
    def test_single_replicate_has_no_standard_error(self, tmp_path, mode):
        text = MINIMAL.replace("beta = 0", "beta = 0.5").replace("n_envs = 4", "n_envs = 1")
        config = write_config(tmp_path, text.replace("mode = quenched", f"mode = {mode}"))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        for line in (out / "results.csv").read_text().strip().split("\n")[1:]:
            assert line.split(",")[10] == "nan"
        for row in load_results_json(out):
            assert row["std_error"] is None

    @pytest.mark.parametrize("mode,keys", [
        ("quenched", PATH_BATCH_KEYS | {"jackknife_bias_mean"}),
        ("annealed", {"target"}),
        ("localization", PATH_BATCH_KEYS | {"min_slack"}),
        ("dp-dbeta", PATH_BATCH_KEYS | {"min_slack"}),
        ("dp-dnu", PATH_BATCH_KEYS | {"min_slack"})])
    def test_results_json_carries_the_diagnostics(self, tmp_path, mode, keys):
        text = MINIMAL.replace("beta = 0", "beta = 0.5").replace("quenched", mode)
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        rows = load_results_json(out)
        diagnostics = [row["diagnostics"] for row in rows]
        assert set(diagnostics[0]) == keys
        for row, diag in zip(rows, diagnostics):
            assert diag.get("ess_min", row["ess_min"]) == row["ess_min"]
            assert diag.get("ess_degenerate", False) is False
            if mode == "dp-dnu":
                assert diag["min_slack"] == diagnostics[0]["min_slack"]
            elif mode != "annealed":
                assert diag == diagnostics[0]
        if mode == "annealed":
            assert diagnostics[0]["target"] == 1.0 * math.expm1(0.5)
        if "min_slack" in keys:
            assert diagnostics[0]["min_slack"] >= -1e-9

    def test_results_json_carries_ess_median_points_and_window_volume(self, tmp_path):
        out = tmp_path / "out"
        text = MINIMAL.replace("beta = 0", "beta = 0.5")
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        [row] = load_results_json(out)
        # replay the four replicates of MINIMAL (seed 9) by hand
        ess, points, volumes = [], [], []
        for i in range(4):
            positions = sample_paths(1.0, 64, 1, 40, substream(9, "paths", i))
            box = SpaceTimeBox(1.0, *bounding_box_for(positions))
            cloud = sample_poisson(box, 1.0, substream(9, "cloud", i))
            ess.append(build_ensemble(positions, 1.0, cloud, 0.5).ess)
            points.append(cloud.n_points)
            volumes.append(box.volume)
        diag = row["diagnostics"]
        assert diag["ess_median"] == pytest.approx(np.median(ess), rel=1e-12)
        assert diag["ess_min"] <= diag["ess_median"] <= 40
        assert diag["points_mean"] == np.mean(points) > 0
        assert diag["window_volume_mean"] == pytest.approx(np.mean(volumes), rel=1e-12)

    def test_undefined_diagnostic_is_null(self, tmp_path, monkeypatch):
        def with_nan(cfg):
            return {"annealed_free_energy": EstimateWithError(
                0.5, 0.1, 4, {"target": math.nan, "ess_degenerate": True})}

        monkeypatch.setattr(cli, "annealed_free_energy", with_nan)
        text = MINIMAL.replace("quenched", "annealed")
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        [row] = load_results_json(out)
        assert row["diagnostics"] == {"target": None, "ess_degenerate": True}

    # where expm1(beta) rounds to -1, 1 + lambda m cancels at m = 1
    @pytest.mark.parametrize("mode", ["dp-dbeta", "dp-dnu"])
    @pytest.mark.parametrize("beta", ["-350", "-40"])
    def test_negative_coupling_derivatives_are_finite(self, tmp_path, mode, beta):
        text = MINIMAL.replace("beta = 0", f"beta = {beta}").replace(
            "paths_per_env = 40", "paths_per_env = 200").replace(
            "mode = quenched", f"mode = {mode}")
        out = tmp_path / "out"
        assert main(["simulate", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        for row in load_results_json(out):
            assert math.isfinite(row["value"]) and math.isfinite(row["std_error"])

    @pytest.mark.parametrize("mode,experiment", [
        ("quenched", "quenched_free_energy"), ("annealed", "annealed_free_energy"),
        ("localization", "localization_scan"), ("dp-dbeta", "dp_dbeta"),
        ("dp-dnu", "dp_dnu")], ids=["quenched", "annealed", "localization",
                                    "dp-dbeta", "dp-dnu"])
    def test_invariant_violation_exit_code_3(self, tmp_path, monkeypatch, capsys,
                                             mode, experiment):
        def explode(*args, **kwargs):
            raise InvariantViolationError("forced", seed=9, replicate=0)

        # replaced only where the CLI looks it up, as the benchmark tracer does
        monkeypatch.setattr(cli, experiment, explode)
        config = write_config(tmp_path, MINIMAL.replace("mode = quenched", f"mode = {mode}"))
        assert main(["simulate", str(config), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "seed=9" in err and "replicate=0" in err

    def test_program_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # only the library's own input errors exit 2; a bare ValueError is a bug
        def broken(cfg):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "quenched_free_energy", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["simulate", str(write_config(tmp_path, MINIMAL)),
                  "--out", str(tmp_path / "o")])


# Configs at the edge of a budget or a range, one row each: the config text
# (a few environments and paths), the exit code and, for exit 2, the quoted
# key stderr must name.  A refused config writes no output directory.
BOUNDARY_CONFIGS = [
    pytest.param("t = 1e308\nnu = 1\nmode = annealed\n", 2, "'t'",
                 id="t-1e308-default-n_steps"),  # 64 t overflows
    pytest.param("t = 1e308\nn_steps = 10\nnu = 1\nmode = annealed\n", 2, "'t'",
                 id="t-1e308-annealed"),  # the window volume overflows
    pytest.param("t = 1e308\nn_steps = 10\nnu = 0\nmode = annealed\n", 2, "'t'",
                 id="t-1e308-nu-0-annealed"),  # 0 * inf expected points is NaN
    pytest.param("t = 1e308\nn_steps = 10\nnu = 0\nmode = quenched\n", 2, "'t'",
                 id="t-1e308-nu-0-quenched"),
    pytest.param("d = 1000\nbin_width = 0.01\nnu = 0\nmode = annealed\n", 2, "'d'",
                 id="d-1000-nu-0-annealed"),
    pytest.param("d = 1000\nbin_width = 0.01\nn_steps = 4\nnu = 0\nmode = quenched\n", 2,
                 "'d'", id="d-1000-nu-0-quenched"),
    pytest.param("d = 200\nbin_width = 0.01\nnu = 0\nmode = annealed\n", 0, None,
                 id="d-200-nu-0-annealed"),
    pytest.param("nu = 1e-300\nmode = dp-dnu\n", 0, None, id="nu-1e-300-dp-dnu"),
    pytest.param("beta = -350\nnu = 1\nmode = dp-dbeta\n", 0, None, id="beta-minus-350-dp-dbeta"),
    pytest.param("beta = 350\nnu = 1\nmode = dp-dnu\n", 0, None, id="beta-350-dp-dnu"),
    pytest.param("t = 1e306\nnu = 0\nmode = annealed\n", 2, "'t'",
                 id="t-1e306-default-n_steps-annealed"),  # 64 t is above 2^53
    pytest.param("n_steps = 10000000000000000\nnu = 0\nmode = annealed\n", 2, "'n_steps'",
                 id="n_steps-1e16-annealed"),
    pytest.param("t = 1e6\nnu = 0.1\nmode = annealed\n", 0, None, id="t-1e6-annealed"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text,code,key", BOUNDARY_CONFIGS)
def test_boundary_config(tmp_path, capsys, text, code, key):
    base = {"beta": "0.5", "t": "1", "paths_per_env": "20", "n_envs": "3", "seed": "4"}
    given = {line.split(" = ")[0] for line in text.splitlines()}
    config = "".join(f"{k} = {v}\n" for k, v in base.items() if k not in given) + text
    out = tmp_path / "out"
    assert main(["simulate", str(write_config(tmp_path, config)), "--out", str(out)]) == code
    if code == 2:
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_single_cell_matches_simulate(self, tmp_path):
        text = MINIMAL.replace("beta = 0", "beta = 0.4")
        config = write_config(tmp_path, text)
        out_sim, out_sweep = tmp_path / "sim", tmp_path / "sweep"
        assert main(["simulate", str(config), "--out", str(out_sim)]) == 0
        assert main(["sweep", str(config), "--out", str(out_sweep)]) == 0
        assert (out_sim / "results.csv").read_text() \
            == (out_sweep / "results.csv").read_text()

    def test_beta_grid_rows(self, tmp_path):
        text = ("d = 1\nnu = 1\nt = 1\npaths_per_env = 30\nn_envs = 3\nseed = 2\n"
                "mode = localization\nn_steps = 8\ngrid.beta = 0,0.5,1\n")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", str(config), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().split("\n")[1:]
        overlap_rows = [l for l in lines if l.endswith(",replica_overlap")]
        assert len(overlap_rows) == 3
        rows = json.loads((out / "results.json").read_text())
        loc_rows = [r for r in rows if r["observable"] == "replica_overlap"]
        assert all("delta_sets" not in r for r in loc_rows)
        assert [r["beta"] for r in loc_rows] == [0.0, 0.5, 1.0]

    def test_delta_rows_match_their_csv_rows(self, tmp_path):
        text = MINIMAL.replace("beta = 0\n", "beta = 0.5\n").replace("quenched", "localization")
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        csv_rows = {line.split(",")[-1]: line.split(",")
                    for line in (out / "results.csv").read_text().split("\n")[1:] if line}
        rows = {r["observable"]: r for r in load_results_json(out)}
        assert all("delta_sets" not in r for r in rows.values())
        for observable in ("delta_middle", "delta_negligible", "delta_predominant"):
            fields = csv_rows[observable]
            assert rows[observable]["value"] == float(fields[9])
            assert rows[observable]["std_error"] == float(fields[10])

    def test_manifest_seed_follows_the_override(self, tmp_path):
        text = MINIMAL.replace("beta = 0\n", "grid.beta = 0, 0.5\n")
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, text)), "--out", str(out),
                     "--seed", "11"]) == 0
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 11

    def test_path_budget_refused_before_the_first_cell(self, tmp_path, monkeypatch, capsys):
        # the t = 1 cell fits the budget, the t = 1000 cell does not
        def must_not_run(cfg):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "quenched_free_energy", must_not_run)
        text = MINIMAL.replace("t = 1\n", "grid.t = 1, 1000\n").replace(
            "paths_per_env = 40", "paths_per_env = 2000")
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'paths_per_env'" in err and "'n_steps'" in err
        assert not out.exists()

    def test_environment_budget_refused_before_the_first_cell(self, tmp_path, monkeypatch,
                                                              capsys):
        # a quenched cell over 10^8 + 1 environments would run for days
        def must_not_run(cfg):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "quenched_free_energy", must_not_run)
        text = MINIMAL.replace("beta = 0\n", "grid.beta = 0, 0.5\n").replace(
            "n_envs = 4", f"n_envs = {10 ** 8 + 1}")
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert "'n_envs'" in capsys.readouterr().err
        assert not out.exists()

    def test_annealed_sweep_at_long_horizon_runs(self, tmp_path):
        # the annealed estimator samples no paths, so no path budget applies
        text = MINIMAL.replace("t = 1\n", "grid.t = 1, 1000\n").replace(
            "paths_per_env = 40", "paths_per_env = 2000").replace("quenched", "annealed")
        out = tmp_path / "out"
        assert main(["sweep", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        assert [row["t"] for row in load_results_json(out)] == [1.0, 1000.0]


class TestAnalytic:
    def run_lines(self, capsys, *argv):
        assert main(["analytic", *argv]) == 0
        return capsys.readouterr().out.strip().split("\n")

    def test_bessel_table(self, capsys):
        header, row = self.run_lines(capsys, "bessel", "--d", "3")
        assert header == "d,gamma,ratio,ratio_squared"
        d, gamma, ratio, ratio_sq = row.split(",")
        assert float(gamma) == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert float(ratio) == pytest.approx(1.266, abs=2e-3)
        assert float(ratio_sq) == pytest.approx(float(ratio) ** 2, rel=1e-12)

    def test_bessel_solves_its_zero_once(self, capsys, monkeypatch):
        # the ratio and its square reuse the zero the table prints
        import scipy.optimize

        calls, brentq = [], scipy.optimize.brentq
        monkeypatch.setattr(scipy.optimize, "brentq",
                            lambda *args, **kwargs: calls.append(args) or brentq(*args, **kwargs))
        bessel_zero.cache_clear()
        self.run_lines(capsys, "bessel", "--d", "7")
        assert len(calls) == 1

    def test_alpha_at_zero(self, capsys):
        _, row = self.run_lines(capsys, "alpha", "--beta", "0")
        assert float(row.split(",")[1]) == 2.0

    def test_bc_bounds_example(self, capsys):
        _, row = self.run_lines(capsys, "bc-bounds", "--branch", "plus",
                                "--beta0", "0.6931", "--nu0", "1",
                                "--alpha", "1", "--nu", "100")
        fields = row.split(",")
        c1 = math.expm1(0.6931)
        assert fields[5] == "a1"
        assert float(fields[6]) == pytest.approx(math.log1p(c1 / 100.0), rel=1e-12)
        assert float(fields[7]) == pytest.approx(math.log1p(c1 / 10.0), rel=1e-12)

    def test_bc_bounds_survive_intensity_ratio_overflow(self, capsys):
        # nu0 / nu = 1e600 overflows; the bounds log1p(c1 * 1e300) and
        # log1p(c1 * 1e600) do not
        _, row = self.run_lines(capsys, "bc-bounds", "--branch", "plus",
                                "--beta0", "1", "--nu0", "1e300",
                                "--alpha", "1", "--nu", "1e-300")
        fields = row.split(",")
        log_c1 = math.log(math.expm1(1.0))
        assert fields[5] == "a2"
        assert float(fields[6]) == pytest.approx(log_c1 + 300 * math.log(10.0), rel=1e-12)
        assert float(fields[7]) == pytest.approx(log_c1 + 600 * math.log(10.0), rel=1e-12)

    def test_classify(self, capsys):
        _, row = self.run_lines(capsys, "classify", "--branch", "plus",
                                "--beta0", "0.8", "--nu0", "1",
                                "--alpha", "1", "--beta", "0.8", "--nu", "1")
        assert row.split(",")[-1] == "D"

    def test_l2(self, capsys):
        _, row = self.run_lines(capsys, "l2", "--beta", "0", "--nu", "5",
                                "--a-l2", "1.6")
        assert row.split(",")[-1] == "true"

    def test_lambda_grid(self, capsys):
        lines = self.run_lines(capsys, "lambda", "--grid", "0,1,3")
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 0.0

    def test_one_point_grid(self, capsys):
        lines = self.run_lines(capsys, "lambda", "--grid", "0.5,1,1")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 0.5

    def test_psi_phi_finite_at_strongly_negative_beta(self, capsys):
        # 1 + lambda u cancels at u = 1 once e^beta is below about 1e-14
        _, row = self.run_lines(capsys, "psi-phi", "--beta", "-40", "--u", "1")
        psi, phi = (float(v) for v in row.split(",")[2:])
        assert psi == 0.0
        assert phi == pytest.approx(math.expm1(-40.0), rel=1e-12)

    def test_hypothesis_error_exit_2(self, capsys):
        code = main(["analytic", "bc-bounds", "--branch", "plus", "--beta0", "0.8",
                     "--nu0", "1", "--alpha", "1.9", "--nu", "10"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_branch_mismatch_exit_2(self, capsys):
        code = main(["analytic", "classify", "--branch", "plus", "--beta0", "0.8",
                     "--nu0", "1", "--alpha", "1", "--beta=-0.5", "--nu", "1"])
        assert code == 2
        assert "does not match the plus branch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["lambda", "--beta", "1000"], "--beta"),
        (["lambda", "--grid", "0,1000,3"], "--grid"),
        (["lambda", "--grid", "0,1,0"], "--grid"),
        (["lambda", "--grid", "0,1,-3"], "--grid"),
        (["alpha", "--grid", "0,1,1000001"], "--grid"),
        (["h-alpha", "--alpha", "1", "--u-grid", "0,1,1000001"], "--u-grid"),
        (["alpha", "--beta", "1000"], "--beta"),
        (["alpha", "--beta", "-1000"], "--beta"),
        (["alpha", "--beta", "nan"], "--beta"),
        (["psi-phi", "--beta", "1000", "--u", "0.5"], "--beta"),
        (["psi-phi", "--beta", "1", "--u", "inf"], "--u"),
        (["classify", "--branch", "plus", "--beta0", "0.8", "--nu0", "1",
          "--alpha", "1", "--beta", "1000", "--nu", "1"], "--beta"),
        (["bc-bounds", "--branch", "plus", "--beta0", "0.6931", "--nu0", "1",
          "--alpha", "1", "--nu", "nan"], "--nu"),
        (["l2", "--beta", "0", "--nu", "1", "--a-l2", "inf"], "--a-l2"),
        (["bessel", "--d", "0"], "--d"),
        (["bessel", "--d", "20001"], "--d"),
        (["bessel", "--d", str(10 ** 30)], "--d"),
        (["bessel", "--d", "2.5"], "--d"),
    ], ids=["lambda-beta-big", "lambda-grid-big", "lambda-grid-count-0",
            "lambda-grid-count-negative", "alpha-grid-count-big", "h-alpha-u-grid-count-big",
            "alpha-beta-big", "alpha-beta-negative",
            "alpha-beta-nan", "psi-phi-beta-big", "psi-phi-u-inf", "classify-beta-big",
            "bc-bounds-nu-nan", "l2-a-l2-inf", "bessel-d-0", "bessel-d-20001",
            "bessel-d-1e30", "bessel-d-fractional"])
    def test_bad_argument_names_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", *argv])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["classify", "--branch", "plus", "--beta0", "1", "--nu0", "1",
         "--alpha", "5", "--beta", "300", "--nu", "1"],
        ["bc-bounds", "--branch", "minus", "--beta0", "-1", "--nu0", "1",
         "--alpha", "1e-300", "--nu", "1e-3"],
    ], ids=["classify", "bc-bounds"])
    def test_alpha_hypothesis_checked_before_power(self, capsys, argv):
        # lam ** alpha and ratio ** (1 / alpha) overflow for these alphas
        assert main(["analytic", *argv]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "bessel"])  # missing --d
        assert exc.value.code == 2


class TestRepeatedCalls:
    def test_simulate_leaves_no_parser_garbage(self, tmp_path):
        # the parser is built once per process: rebuilding it on each call
        # left about 540 objects for the cyclic GC, against the ~66 that the
        # two indented json.dumps calls leave
        config = write_config(tmp_path, MINIMAL)
        argv = ["simulate", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            garbage = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert garbage < 200

    def test_usage_error_leaves_the_next_parse_unchanged(self, capsys):
        # --beta parses before --grid is refused; the next call must still
        # see the defaults
        assert main(["analytic", "lambda"]) == 0
        default = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "lambda", "--beta", "2", "--grid", "0,1,0"])
        assert exc.value.code == 2
        assert "argument --grid:" in capsys.readouterr().err
        assert main(["analytic", "lambda"]) == 0
        assert capsys.readouterr().out == default == "beta,lambda\n0,0\n"


def test_cli_import_skips_scipy_optimize():
    # scipy.special and scipy.optimize would more than double a fresh
    # interpreter's start-up time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, poissonpolymer.cli; "
            "sys.exit('scipy.optimize' in sys.modules or 'scipy.special' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_skips_numpy_random():
    # numpy.random adds about 2 MB and 10 ms to every start-up; the streams
    # module loads it on the first substream call
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, poissonpolymer.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
