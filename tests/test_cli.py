"""Command-line surface: file contracts, determinism, and the compare gate."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phasebath import (
    BathParams,
    StateSpec,
    evolve_p_closed_form,
    fock_density,
    husimi_q_grid,
    initial_p_function,
    integrate,
)
from phasebath import cli, states
from phasebath.cli import GridSpec, RunConfig, main, state_catalog
from phasebath.descriptors import GaussianP, evaluate_p
from phasebath.quasiprob import wigner_from_characteristic
from phasebath.states import FAMILY_TABLE, parse_state_spec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "readme-example"
COMPARE_GOLDEN = GOLDEN.parent / "compare-example"
RECORDS_GOLDEN = GOLDEN.parent / "records-example"


def _assert_golden(out: Path, golden: Path, count: int) -> None:
    """``out`` holds the fixture's ``count`` data files, byte for byte, and a manifest."""
    names = sorted(p.name for p in golden.iterdir())
    assert len(names) == count
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def read_grid_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows


class TestGridSpec:
    def test_parse(self):
        g = GridSpec(*cli._grid_arg("-3:3:41"))
        assert (g.lo, g.hi, g.points) == (-3.0, 3.0, 41)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            GridSpec(*cli._grid_arg("-3:3:7"))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            GridSpec(*cli._grid_arg("3:-3:41"))

    @pytest.mark.parametrize("text", ["-3:inf:41", "-inf:3:41", "nan:3:41", "-3:nan:41", "-1e308:1e308:41"])
    def test_rejects_non_finite_range(self, text):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*cli._grid_arg(text))


class TestRunContract:
    def test_file_count(self, tmp_path):
        code = main(
            [
                "run", "--state", "photon-added-thermal", "--mbar", "1",
                "--gamma", "0.5", "--nbar", "2", "--times", "0,0.5,1",
                "--outputs", "p-grid,moments", "--grid=-3:3:21",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == [
            "manifest.json",
            "moments-000.csv", "moments-001.csv", "moments-002.csv",
            "p-grid-000.csv", "p-grid-001.csv", "p-grid-002.csv",
        ]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["state"]["family"] == "photon-added-thermal"
        assert manifest["config"]["times"] == [0.0, 0.5, 1.0]

    def test_determinism(self, tmp_path):
        args = [
            "run", "--state", "squeezed-coherent", "--beta-re", "0.8",
            "--squeeze", "2", "--gamma", "1", "--nbar", "0.5",
            "--times", "0.5,1", "--outputs", "q-grid,moments,mandel-q",
            "--grid=-3:3:15",
        ]
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            if f.name == "manifest.json":
                continue  # wall time differs; data files must not
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_vacuum_q_peak(self, tmp_path):
        code = main(
            [
                "run", "--state", "coherent", "--gamma", "1", "--nbar", "0",
                "--times", "0", "--outputs", "q-grid", "--grid=-2:2:17",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        rows = read_grid_csv(tmp_path / "out" / "q-grid-000.csv")
        peak = rows[np.argmax(rows[:, 2])]
        assert peak[0] == 0.0 and peak[1] == 0.0
        assert peak[2] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_csv_layout(self, tmp_path):
        main(
            [
                "run", "--state", "thermal", "--mbar", "1", "--gamma", "1",
                "--nbar", "0.5", "--times", "1", "--outputs", "p-grid",
                "--grid=-2:2:9", "--out", str(tmp_path / "out"),
            ]
        )
        text = (tmp_path / "out" / "p-grid-000.csv").read_text().splitlines()
        assert text[0] == "re_alpha,im_alpha,value"
        assert len(text) == 1 + 81
        first = text[1].split(",")
        assert float(first[0]) == -2.0 and float(first[1]) == -2.0

    def test_json_grid_mirrors_phase_space_grid(self, tmp_path):
        main(
            [
                "run", "--state", "thermal", "--mbar", "0.5", "--gamma", "1",
                "--nbar", "0.2", "--times", "0.5", "--outputs", "q-grid",
                "--grid=-2:2:9", "--format", "json", "--out", str(tmp_path / "out"),
            ]
        )
        data = json.loads((tmp_path / "out" / "q-grid-000.json").read_text())
        assert set(data) == {"x_axis", "y_axis", "values", "meta"}
        assert len(data["values"]) == 9 and len(data["values"][0]) == 9

    def test_compare_gate_exit_codes(self, tmp_path):
        base = [
            "run", "--state", "coherent", "--beta-re", "1.5", "--gamma", "1",
            "--nbar", "0.3", "--times", "0,0.3,0.8", "--outputs", "moments",
            "--oracle-cutoff", "50",
        ]
        assert main(base + ["--compare", "--out", str(tmp_path / "pass")]) == 0
        # Impossibly tight tolerance must flip the exit code.
        assert main(base + ["--compare", "1e-16", "--out", str(tmp_path / "fail")]) == 1

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "state=photon-added-coherent\n"
            "beta_re=1.0\n"
            "beta_im=0.5\n"
            "gamma=0.5\n"
            "nbar=1.0\n"
            "times=0.5\n"
            "grid=-3:3:11\n"
            "outputs=q-grid\n"
            f"out={tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "q-grid-000.csv").exists()

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        # A typo must not silently run at the default bath occupation.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state=thermal\nmbar=1\nnbr=0.5\ntimes=0.5\noutputs=moments\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'nbr'") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_stale_oracle_step_key_is_an_error(self, tmp_path, capsys):
        # The exact propagator has no step; an old config naming one fails loudly.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "state=coherent\nbeta_re=1\ntimes=0.5\noutputs=moments\noracle_step=0.001\n"
        )
        args = ["run", "--config", str(cfg), "--compare", "--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'oracle_step'") and err.count("\n") == 1

    def test_singular_p_grid_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--gamma", "1",
                "--nbar", "0", "--times", "0", "--outputs", "p-grid",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "singular" in capsys.readouterr().err

    def test_strongly_squeezed_q_grid_is_physical(self, tmp_path):
        code = main(
            [
                "run", "--state", "squeezed-coherent", "--beta-re", "0.5",
                "--squeeze", "4", "--gamma", "0.5", "--nbar", "0",
                "--times", "0,0.5", "--outputs", "q-grid",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        for name in ("q-grid-000.csv", "q-grid-001.csv"):
            q = read_grid_csv(tmp_path / "out" / name)[:, 2]
            assert q.min() >= 0.0 and q.max() <= 1.0 / math.pi

    def test_singular_squeezed_p_grid_is_an_error(self, tmp_path, capsys):
        # At t = 0.05 the P width along the squeezed axis is still negative.
        code = main(
            [
                "run", "--state", "squeezed-coherent", "--beta-re", "0.5",
                "--squeeze", "2", "--gamma", "1", "--nbar", "0.5",
                "--times", "0.05", "--outputs", "p-grid",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "singular P function (a negative width)" in err
        assert "delta-like" not in err

    def test_default_cutoff_covers_bath_occupation(self, tmp_path):
        # A cutoff sized from the state alone (32) lets the trace drift past
        # the oracle's limit once the hot bath has filled the mode.
        code = main(
            [
                "run", "--state", "photon-added-thermal", "--mbar", "1",
                "--gamma", "0.5", "--nbar", "2", "--times", "0.5,1",
                "--outputs", "moments", "--compare", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_trace_drift_guard_names_the_cutoff(self, tmp_path, capsys):
        # At cutoff 24 the hot bath fills the mode past the basis.
        code = main(
            [
                "run", "--state", "photon-added-thermal", "--mbar", "1",
                "--gamma", "0.5", "--nbar", "2", "--times", "0.5,1",
                "--outputs", "moments", "--compare", "--oracle-cutoff", "24",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace drifted") and err.count("\n") == 1
        assert "cutoff (24)" in err and "step" not in err

    def test_numerical_guard_failure_is_an_error(self, tmp_path, capsys):
        # W reaches past +-3 here (the window holds 0.999898 of its mass), but
        # W at the window's points does not depend on what lies outside it.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--gamma", "1",
                "--nbar", "0.5", "--times", "0,0.5", "--outputs", "moments,w-grid",
                "--compare", "--grid=-3:3:33", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0 and capsys.readouterr().err == ""
        axis = GridSpec(-3.0, 3.0, 33).axis()
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        for idx, t in enumerate((0.0, 0.5)):
            eta = math.exp(-t)
            width = 0.5 * (1.0 - eta**2) + 0.5  # bath occupation plus the W kernel's 1/2
            expected = np.exp(-((X - eta) ** 2 + Y**2) / width) / (math.pi * width)
            w = read_grid_csv(tmp_path / "out" / f"w-grid-{idx:03d}.csv")[:, 2].reshape(X.shape)
            assert float(np.max(np.abs(w - expected))) <= 1e-12

    def test_strongly_squeezed_w_grid_is_exact(self, tmp_path):
        # s = 3 makes chi_symmetric wide; W is exact up to basis truncation.
        code = main(
            [
                "run", "--state", "squeezed-coherent", "--beta-re", "1", "--squeeze", "3",
                "--gamma", "1", "--nbar", "0.4", "--times", "0", "--outputs", "w-grid",
                "--grid=-6:6:49", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        axis = GridSpec(-6.0, 6.0, 49).axis()
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        var_x, var_y = 1.0 / 12.0, 3.0 / 4.0  # 1/(4s) and s/4
        peak = 1.0 / (2.0 * math.pi * math.sqrt(var_x * var_y))
        expected = peak * np.exp(-((X - 1.0) ** 2) / (2 * var_x) - Y**2 / (2 * var_y))
        w = read_grid_csv(tmp_path / "out" / "w-grid-000.csv")[:, 2].reshape(X.shape)
        assert float(np.max(np.abs(w - expected))) < 1e-6 * peak

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_w_grid_runs_on_the_default_window(self, tmp_path, family):
        # W reaches past +-3 for most families here.  On the grid it is the
        # closed form, P_t smoothed by the width-1/2 kernel, and it matches
        # the displaced-parity W of the Fock-basis rho_t.  The basis is 60
        # levels: at the default cutoff, truncation puts the squeezed
        # example's t = 0 parity W 2.8e-8 off.
        entry = FAMILY_TABLE[family]
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in entry.example.items()]
        times = (0.0, 0.3, 1.0)
        code = main(
            ["run", "--state", family, *flags, "--gamma", "1", "--nbar", "0.4",
             "--times", "0,0.3,1", "--outputs", "w-grid", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        spec = parse_state_spec({"family": family, **entry.example})
        bath = BathParams(gamma=1.0, nbar=0.4)
        axis = GridSpec().axis()
        rhos = integrate(fock_density(spec, 60), bath, times)
        for idx, (t, rho) in enumerate(zip(times, rhos)):
            form = evolve_p_closed_form(spec, bath, t)
            expected = evaluate_p(form.convolved(1.0, 0.5), axis[:, None], axis[None, :])
            w = read_grid_csv(tmp_path / "out" / f"w-grid-{idx:03d}.csv")[:, 2].reshape(expected.shape)
            assert float(np.max(np.abs(w - expected))) < 1e-6
            parity = wigner_from_characteristic(rho, axis, axis).values
            assert float(np.max(np.abs(w - parity))) <= 1e-12

    def test_grids_need_no_density_matrix(self, tmp_path, monkeypatch):
        # P, W and Q all come from the closed-form P_t; only --compare builds rho.
        def refuse(*args, **kwargs):
            raise AssertionError("a grid run built a density matrix")

        monkeypatch.setattr(cli, "fock_density", refuse)
        monkeypatch.setattr(cli, "integrate", refuse)
        code = main(
            ["run", "--state", "photon-added-thermal", "--mbar", "1", "--gamma", "1",
             "--nbar", "0.4", "--times", "0,0.5", "--outputs", "p-grid,w-grid,q-grid",
             "--out", str(tmp_path / "out")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["trace_deficits"] == [] and manifest["oracle_compare"] is None
        assert len(list((tmp_path / "out").glob("w-grid-*.csv"))) == 2

    @pytest.mark.parametrize("name", ["fock_density", "evaluate_p"])
    def test_request_too_large_to_hold_is_an_error(self, tmp_path, capsys, monkeypatch, name):
        # A basis or grid that numpy cannot allocate is a refused run, not a
        # failed comparison (exit 1).  Patched, not allocated: whether a huge
        # array fails at once depends on the host's overcommit setting.
        message = "Unable to allocate 298. GiB for an array with shape (200000, 200000)"

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        code = main(
            ["run", "--state", "thermal", "--mbar", "1", "--times", "0,1",
             "--outputs", "q-grid,moments", "--compare", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("a file where the output directory should go\n")
        assert main(["run", "--state", "thermal", "--mbar", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.is_file()

    def test_photon_added_coherent_w_is_negative(self, tmp_path):
        # W of a^dagger|beta> / sqrt(1 + |beta|^2) is
        # -2 (1 - |2 alpha - beta|^2) e^{-2|alpha - beta|^2} / (pi (1 + |beta|^2)),
        # whose minimum is -0.28761 at alpha = 0.527 + 0.197i for this beta.
        beta = 0.8 + 0.3j
        code = main(
            ["run", "--state", "photon-added-coherent", "--beta-re", "0.8", "--beta-im", "0.3",
             "--gamma", "1", "--nbar", "0.4", "--times", "0", "--outputs", "w-grid",
             "--grid=-1:1:201", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        rows = read_grid_csv(tmp_path / "out" / "w-grid-000.csv")
        alpha = rows[:, 0] + 1j * rows[:, 1]
        expected = (
            -2.0 * (1.0 - np.abs(2.0 * alpha - beta) ** 2) * np.exp(-2.0 * np.abs(alpha - beta) ** 2)
            / (math.pi * (1.0 + abs(beta) ** 2))
        )
        assert float(np.max(np.abs(rows[:, 2] - expected))) <= 1e-14
        lowest = int(np.argmin(rows[:, 2]))
        assert rows[lowest, 2] < -0.2875 and abs(alpha[lowest] - (0.53 + 0.2j)) < 1e-9

    def test_zero_temperature_photon_added_coherent_q_grid(self, tmp_path):
        # The pure-decay image of the delta-derivative P has a regular Q.
        code = main(
            [
                "run", "--state", "photon-added-coherent", "--beta-re", "1",
                "--gamma", "0.5", "--nbar", "0", "--times", "0,0.5",
                "--outputs", "q-grid", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        spec = StateSpec("photon-added-coherent", beta=1.0)
        bath = BathParams(gamma=0.5, nbar=0.0)
        rho = integrate(fock_density(spec, 60), bath, [0.5])[0]
        axis = GridSpec().axis()
        expected = husimi_q_grid(rho, axis, axis).values
        q = read_grid_csv(tmp_path / "out" / "q-grid-001.csv")[:, 2].reshape(expected.shape)
        assert float(np.max(np.abs(q - expected))) < 1e-10

    def test_infinite_grid_bound_is_one_error_line(self, tmp_path):
        # Rejected before numpy sees the bound, so no RuntimeWarning reaches stderr.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "phasebath", "run", "--state", "thermal", "--mbar", "1",
             "--times", "0", "--outputs", "q-grid", "--grid=-3:inf:41",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: grid range must be finite")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_huge_finite_window_overflowing_to_nan_is_one_error_line(self, tmp_path):
        # The Hermite factor overflows to inf against an underflowed Gaussian;
        # the NaN this leaves is refused, and no numpy warning reaches stderr.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "phasebath", "run", "--state", "photon-added-thermal", "--mbar", "1",
             "--times", "0", "--outputs", "q-grid", "--grid=-1e200:1e200:41",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: q-grid at t=0.0 has a non-finite value\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_photon_added_amplitude_is_one_error_line(self, tmp_path):
        # |beta|^2 overflows in <a a^dag>; this printed the errno tuple
        # "(34, 'Numerical result out of range')".
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "phasebath", "run", "--state", "photon-added-coherent", "--beta-re", "1e200",
             "--nbar", "1", "--times", "0,1", "--outputs", "moments", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: <a a^dag> of the photon-added state is not finite: |beta|^2 overflows at |beta| = 1e+200\n"
        )
        assert not (tmp_path / "out").exists()

    def test_huge_finite_window_writes_its_limit_silently(self, tmp_path):
        # |alpha|^2 overflows to inf off the centre, where Q is 0 to the last
        # bit: the run writes that limit, with nothing on stderr.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "phasebath", "run", "--state", "thermal", "--mbar", "1",
             "--times", "0", "--outputs", "q-grid", "--grid=-1e300:1e300:41",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = read_grid_csv(tmp_path / "out" / "q-grid-000.csv")
        centre = (rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)
        assert rows[centre, 2].tolist() == [1.0 / (2.0 * math.pi)]
        assert np.all(rows[~centre, 2] == 0.0)

    def test_repeated_artifact_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--times", "0,1",
                "--outputs", "moments,moments", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: artifact 'moments' is requested twice\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_compare_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # A NaN tolerance used to pass every comparison, and -1 to fail every one.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--times", "0,1",
                "--outputs", "moments", f"--compare={tol}", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: compare tolerance must be finite and positive")
        assert err.count("\n") == 1

    def test_compare_tolerance_key_must_be_finite(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state=coherent\nbeta_re=1\ntimes=0,1\noutputs=moments\ncompare_tolerance=nan\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: compare tolerance must be finite and positive")

    def test_non_finite_deviation_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        # max(0.0, nan) is 0.0, so a NaN deviation used to pass the gate.
        # MomentSet rejects NaN itself, so a stand-in carries it to the gate.
        real = cli.moments_from_rho
        monkeypatch.setattr(
            cli,
            "moments_from_rho",
            lambda rho: SimpleNamespace(**{**vars(real(rho)), "mean_n": math.nan}),
        )
        for fmt in ("csv", "json"):
            code = main(
                [
                    "run", "--state", "coherent", "--beta-re", "1", "--times", "0,1",
                    "--outputs", "moments", "--compare", "--format", fmt,
                    "--out", str(tmp_path / fmt),
                ]
            )
            assert code == 1
            assert "oracle comparison FAILED: worst deviation nan" in capsys.readouterr().err

        # The record of the failure is strict JSON: NaN is written as null.
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        written = sorted(tmp_path.glob("*/*.json"))
        assert len(written) == 1 + 4 + 1  # csv manifest; json moments, oracle-compare, manifest
        for path in written:
            json.loads(path.read_text(), parse_constant=reject)
        for fmt in ("csv", "json"):
            manifest = json.loads((tmp_path / fmt / "manifest.json").read_text())
            assert manifest["oracle_compare"]["worst_deviation"] is None
        record = json.loads((tmp_path / "json" / "oracle-compare-001.json").read_text())
        assert record["dev_mean_n"] is None

    @pytest.mark.parametrize("cutoff", ["0", "1", "-3"])
    def test_oracle_cutoff_below_two_is_an_error(self, tmp_path, capsys, cutoff):
        # A cutoff of 0 used to fall back to the default cutoff silently.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--times", "0,1",
                "--outputs", "moments", "--compare", f"--oracle-cutoff={cutoff}",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: oracle cutoff must be >= 2, got {cutoff}\n"
        assert not (tmp_path / "out").exists()

    def test_oracle_cutoff_needs_compare(self, tmp_path, capsys):
        # The cutoff sizes only the --compare basis; alone it would do nothing.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--times", "0,1",
                "--outputs", "moments,w-grid", "--oracle-cutoff", "40",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--compare" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("times", ["0,inf", "nan", "0,nan,1"])
    def test_non_finite_time_is_an_error(self, tmp_path, capsys, times):
        # inf used to pass validation, and the run wrote files before failing.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--times", times,
                "--outputs", "moments,q-grid", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: times must be finite and nonnegative")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "state",
        [
            ["--state", "thermal", "--mbar", "nan"],
            ["--state", "thermal", "--mbar", "inf"],
            ["--state", "displaced-thermal", "--mbar", "nan"],
            ["--state", "photon-added-thermal", "--mbar", "inf"],
            ["--state", "squeezed-coherent", "--squeeze", "inf"],
            ["--state", "coherent", "--beta-re", "1", "--nbar", "1e200"],
            ["--state", "thermal", "--mbar", "1e200"],
        ],
        ids=lambda args: " ".join(args[1:]),
    )
    def test_non_finite_state_values_are_an_error(self, tmp_path, capsys, state):
        # These runs wrote nan or inf moments and Mandel Q with exit 0, or
        # ended in an OverflowError traceback with exit 1.
        code = main(
            ["run", *state, "--outputs", "moments,mandel-q", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--state", "coherent", "--beta-re", "1e160", "--outputs", "moments", "--compare"], "<n> = inf"),
            (["--state", "coherent", "--beta-re", "1e100", "--outputs", "moments", "--compare"], "<n> = 1e+200"),
            (["--state", "thermal", "--mbar", "1e200", "--outputs", "moments", "--compare"], "<n> = 1e+200"),
            (["--state", "displaced-thermal", "--mbar", "1", "--beta-re", "1e10", "--outputs", "moments",
              "--compare"], "<n> = 1e+20"),
            (["--state", "coherent", "--beta-re", "1e5", "--outputs", "moments", "--compare"], "<n> = 10000000000.0"),
            (["--state", "squeezed-coherent", "--squeeze", "1e16"], "squeeze 1e+16 is too far from 1"),
            (["--state", "squeezed-coherent", "--squeeze", "1e-200"], "squeeze 1e-200 is too far from 1"),
        ],
        ids=["coherent-1e160", "coherent-1e100", "thermal-1e200", "displaced-thermal-1e10", "coherent-1e5",
             "squeeze-1e16", "squeeze-1e-200"],
    )
    def test_state_out_of_reach_is_one_error_line_naming_it(self, tmp_path, capsys, args, named):
        # These printed "cannot convert float infinity to integer", "int too
        # large to convert to float", "Maximum allowed size exceeded", numpy's
        # "Unable to allocate 596. GiB" and a P width rounded to -1/2.
        out = tmp_path / "out"
        assert main(["run", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--state", "coherent", "--beta-re", "1", "--nbar", "1e200", "--times", "0,1",
             "--outputs", "moments,mandel-q"],
            ["--state", "coherent", "--beta-re", "1", "--nbar", "0.5", "--outputs", "moments,p-grid"],
            ["--state", "coherent", "--outputs", "moments,mandel-q"],
        ],
        ids=["moments-overflow-at-t1", "singular-p-grid", "vacuum-mandel-q"],
    )
    def test_failed_run_writes_no_file(self, tmp_path, capsys, args):
        # Each of these runs wrote moments-000 and no manifest before it failed.
        out = tmp_path / "out"
        assert main(["run", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "state, term, moved",
        [
            (["--state", "photon-added-coherent", "--beta-re", "0.5", "--beta-im", "0.3"], (1, 0),
             ["dev_mean_a", "dev_mean_n", "dev_second_factorial", "dev_var_x", "dev_a_squared",
              "dev_populations"]),
            # On a centred P0 a mixed-derivative term moves Im<a^2> alone.
            (["--state", "photon-added-thermal", "--mbar", "0.5"], (1, 1), ["dev_a_squared"]),
        ],
        ids=["gradient", "mixed-derivative"],
    )
    def test_compare_checks_the_initial_p_function(self, tmp_path, monkeypatch, capsys, state, term, moved):
        # The initial moments are integrated from P0, so --compare fails on a
        # P0 with one coefficient off by 1e-3.
        real = states.initial_p_function

        def skewed(spec):
            p0 = real(spec)
            coeffs = np.array(p0.coeffs)
            coeffs[term] += 1e-3
            return GaussianP(p0.center, p0.width_x, p0.width_y, coeffs)

        def compare(out):
            return main(["run", *state, "--times", "0,1", "--outputs", "moments", "--compare", "--out", str(out)])

        assert compare(tmp_path / "exact") == 0
        monkeypatch.setattr(cli, "initial_p_function", skewed)
        assert compare(tmp_path / "skewed") == 1
        assert "oracle comparison FAILED" in capsys.readouterr().err
        header, row = (tmp_path / "skewed" / "oracle-compare-000.csv").read_text().splitlines()
        assert [k for k, v in zip(header.split(","), row.split(",")) if k != "time" and float(v) > 1e-5] == moved

    @pytest.mark.parametrize(
        "state",
        [
            ["--state", "coherent", "--beta-re", "1", "--beta-im", "0.5"],
            ["--state", "photon-added-thermal", "--mbar", "1"],
            ["--state", "squeezed-coherent", "--beta-re", "1", "--squeeze", "2"],
        ],
        ids=["coherent", "photon-added-thermal", "squeezed-coherent"],
    )
    def test_compare_checks_the_evolved_p_function(self, tmp_path, monkeypatch, capsys, state):
        # Every moment is read off P_t, so --compare fails on a bath map that
        # widens P_t by 1e-3 too much.  At t = 0 the map is the identity.
        real = GaussianP.convolved

        def widened(desc, decay_factor, width):
            return real(desc, decay_factor, width + 1e-3 if decay_factor < 1.0 else width)

        def compare(out):
            return main(["run", *state, "--gamma", "1", "--nbar", "0.4", "--times", "0,1",
                         "--outputs", "moments", "--compare", "--out", str(out)])

        assert compare(tmp_path / "exact") == 0
        monkeypatch.setattr(GaussianP, "convolved", widened)
        assert compare(tmp_path / "widened") == 1
        assert "oracle comparison FAILED" in capsys.readouterr().err
        for idx, failed in ((0, False), (1, True)):
            header, row = (tmp_path / "widened" / f"oracle-compare-00{idx}.csv").read_text().splitlines()
            record = dict(zip(header.split(","), map(float, row.split(","))))
            assert (record["dev_mean_n"] > 1e-5) is failed

    def test_compare_checks_the_populations_of_p_t(self, tmp_path, monkeypatch, capsys):
        # A sixth derivative added to P_t leaves every moment through fourth
        # order unchanged, so of all the columns only dev_populations sees it.
        real = GaussianP.convolved

        def reshaped(desc, decay_factor, width):
            form = real(desc, decay_factor, width)
            if decay_factor == 1.0:
                return form
            coeffs = np.zeros((7, 1))
            coeffs[0, 0], coeffs[6, 0] = 1.0, 1e-3
            return GaussianP(form.center, form.width_x, form.width_y, coeffs)

        def compare(out):
            return main(["run", "--state", "thermal", "--mbar", "1", "--gamma", "1", "--nbar", "0.4",
                         "--times", "0,1", "--outputs", "moments", "--compare", "--out", str(out)])

        assert compare(tmp_path / "exact") == 0
        monkeypatch.setattr(GaussianP, "convolved", reshaped)
        assert compare(tmp_path / "reshaped") == 1
        assert "oracle comparison FAILED" in capsys.readouterr().err
        header, row = (tmp_path / "reshaped" / "oracle-compare-001.csv").read_text().splitlines()
        record = dict(zip(header.split(","), map(float, row.split(","))))
        assert [k for k, v in record.items() if k != "time" and v > 1e-5] == ["dev_populations"]

    @pytest.mark.parametrize(
        "state, cutoff",
        [
            (["--state", "squeezed-coherent", "--beta-re", "3", "--squeeze", "3"], "8"),
            (["--state", "displaced-thermal", "--beta-re", "4", "--mbar", "0.5"], "20"),
        ],
        ids=["squeezed-coherent", "displaced-thermal"],
    )
    def test_compare_catches_a_truncated_displacement_or_squeeze(self, tmp_path, capsys, state, cutoff):
        # The truncated D and S are unitary on the kept basis, so rho0's trace
        # deficit cannot show the truncation; the moments of P0 do.
        out = tmp_path / "out"
        code = main(["run", *state, "--times", "0", "--outputs", "moments", "--compare",
                     "--oracle-cutoff", cutoff, "--out", str(out)])
        assert code == 1
        assert "oracle comparison FAILED" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["trace_deficits"][0]) < 1e-3
        assert manifest["oracle_compare"]["worst_deviation"] > 1.0

    @pytest.mark.parametrize(
        "state",
        [
            ["--state", "thermal", "--mbar", "1"],
            ["--state", "displaced-thermal", "--beta-re", "1", "--mbar", "0.5"],
        ],
        ids=["thermal", "displaced-thermal"],
    )
    def test_default_cutoff_holds_hot_thermal_tail(self, tmp_path, state):
        # At cutoff 30 the geometric tail's n(n-1) weight beyond the basis put
        # dev_second_factorial at 2.3e-5 and 3.0e-5, over the default 1e-5.
        code = main(
            ["run", *state, "--gamma", "0.5", "--nbar", "1.2", "--times", "0,0.5,1",
             "--outputs", "moments,w-grid", "--compare", "--grid=-5:5:41",
             "--out", str(tmp_path / "out")]
        )
        assert code == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_is_an_error(self, tmp_path, capsys, monkeypatch, bad):
        # The run checks each grid before the first file is written.
        calls = []

        def spoiled(desc, x, y):
            values = evaluate_p(desc, x, y)
            calls.append(1)
            if len(calls) == 2:
                values[3, 5] = bad
            return values

        monkeypatch.setattr(cli, "evaluate_p", spoiled)
        out = tmp_path / "out"
        code = main(
            ["run", "--state", "thermal", "--mbar", "1", "--times", "0,1",
             "--outputs", "q-grid,moments", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: q-grid at t=1.0 has a non-finite value\n"
        assert not out.exists()

    def test_runs_in_one_process_share_nothing(self, tmp_path):
        # main builds its parser once per process.  A run after a --compare
        # run, a --config run and a command line that argparse rejects reads
        # only its own arguments, as a freshly built parser reads them.
        assert cli._build_parser() is cli._build_parser()
        base = ["run", "--state", "thermal", "--mbar", "1", "--times", "0,0.5"]
        config = tmp_path / "run.cfg"
        config.write_text("family=displaced-thermal\nbeta_re=1\nmbar=0.5\noutputs=p-grid\nformat=json\n")
        assert main([*base, "--compare", "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        with pytest.raises(SystemExit):
            main([*base, "--compare", "x"])
        for argv in ([*base, "--out", str(tmp_path / "c")],
                     ["run", "--config", str(config), "--mbar", "2", "--out", str(tmp_path / "d")]):
            assert main(argv) == 0
            fresh = cli._build_parser.__wrapped__()
            args = fresh.parse_args(argv)
            if args.config is not None:
                args = fresh.parse_args(["run", *cli._config_flags(args.config, fresh), *argv[1:]])
            manifest = json.loads((args.out / "manifest.json").read_text())
            assert manifest["config"] == cli._config_from_args(args).echo()
        assert manifest["config"]["state"]["mbar"] == 2.0 and manifest["config"]["outputs"] == ["p-grid"]
        assert json.loads((tmp_path / "c" / "manifest.json").read_text())["oracle_compare"] is None

    def test_invalid_flags_are_usage_errors(self, tmp_path, capsys):
        assert main(["run", "--state", "nope", "--times", "0"]) == 2
        assert main(["run", "--state", "thermal", "--times", "1,0.5"]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--times", "0,x"), ("--grid", "-3:y:41"), ("--grid", "-3:3:4.5")]
    )
    def test_malformed_number_names_its_flag(self, tmp_path, capsys, flag, value):
        # These printed only "could not convert string to float: 'x'".
        with pytest.raises(SystemExit) as exc:
            main(["run", "--state", "thermal", "--mbar", "1", f"{flag}={value}", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_ROUTES_SCRIPT = """
import json, sys
import phasebath
from phasebath import cli
from phasebath.core import BathParams
from phasebath.descriptors import singular_part
from phasebath.evolution import evolve_p_closed_form
from phasebath.states import FAMILY_TABLE, parse_state_spec

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, times, codes = sys.argv[1], (0.5, 1.0), []
for name, entry in FAMILY_TABLE.items():
    spec = parse_state_spec({"family": name, **entry.example})
    regular = all(
        singular_part(evolve_p_closed_form(spec, BathParams(1.0, 1.0), t)) is None for t in times
    )
    closed = (["p-grid"] if regular else []) + ["q-grid", "w-grid", "moments", "mandel-q", "variances"]
    for outputs, extra in ((closed, []), (["moments", "w-grid"], ["--compare"])):
        argv = ["run", "--state", name, "--gamma", "1", "--nbar", "1",
                "--times", ",".join(map(str, times)), "--outputs", ",".join(outputs),
                "--grid=-3:3:9", "--out", f"{out}/{name}-{len(extra)}", *extra]
        for key, value in entry.example.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        codes.append(cli.main(argv))
loaded = scipy_modules()
numpy_ma = "numpy.ma" in sys.modules
numpy_fft = "numpy.fft" in sys.modules
numpy_polynomial = "numpy.polynomial" in sys.modules
import scipy.linalg  # the detector must see a scipy import

print(json.dumps({"codes": codes, "loaded": loaded, "numpy_ma": numpy_ma, "numpy_fft": numpy_fft,
                  "numpy_polynomial": numpy_polynomial, "control": scipy_modules()}))
"""


@pytest.fixture(scope="module")
def routes_run(tmp_path_factory):
    """Output directory and result of _ROUTES_SCRIPT, run once in a fresh interpreter."""
    out = tmp_path_factory.mktemp("routes")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTES_SCRIPT, str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out, json.loads(proc.stdout.splitlines()[-1])


class TestImportSplit:
    def test_closed_form_route_never_loads_scipy(self, routes_run):
        # The bath's action on P and on rho is analytic, so no run route, the
        # Fock-basis oracle included, may load scipy.
        tmp_path, result = routes_run
        assert result["codes"] == [0] * (2 * len(FAMILY_TABLE))
        assert result["loaded"] == []
        assert "scipy.linalg" in result["control"]
        assert len(list(tmp_path.glob("thermal-0/p-grid-*.csv"))) == 2
        for name in FAMILY_TABLE:
            assert len(list(tmp_path.glob(f"{name}-0/w-grid-*.csv"))) == 2
            assert len(list(tmp_path.glob(f"{name}-1/w-grid-*.csv"))) == 2
            assert len(list(tmp_path.glob(f"{name}-1/oracle-compare-*.csv"))) == 2

    def test_compare_route_never_loads_numpy_ma(self, routes_run):
        # np.unique imports numpy.ma (numpy 2.4), a module that no run route needs.
        assert routes_run[1]["numpy_ma"] is False

    def test_compare_route_never_loads_numpy_fft(self, routes_run):
        # The population transform is a small matrix product; numpy.fft
        # would add to every --compare run's import time and memory.
        assert routes_run[1]["numpy_fft"] is False

    def test_run_routes_never_load_numpy_polynomial(self, routes_run):
        # Every grid route and --compare: the Hermite series is a local
        # Clenshaw sum, and numpy.polynomial would add six modules and their
        # memory to every run.
        assert routes_run[1]["numpy_polynomial"] is False

    def test_package_source_never_imports_scipy(self):
        # Any import, at any depth: a lazy one inside a function would escape
        # the route test above whenever no route reaches it.
        found = []
        for path in sorted((ROOT / "src" / "phasebath").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names
                    if name == "scipy" or name.startswith("scipy.")
                ]
        assert found == []


class TestListStates:
    def test_six_families_listed(self, capsys):
        assert main(["list-states"]) == 0
        out = capsys.readouterr().out
        for family in (
            "coherent", "thermal", "displaced-thermal",
            "photon-added-thermal", "photon-added-coherent", "squeezed-coherent",
        ):
            assert family in out

    def test_json_examples_round_trip(self, capsys):
        assert main(["list-states", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert len(catalog) == 6
        for entry in catalog:
            spec = parse_state_spec(entry["example"])
            assert spec.family == entry["family"]

    def test_catalog_structure(self):
        for entry in state_catalog():
            assert set(entry) == {"family", "parameters", "constraints", "example"}

    def test_constraints_follow_parameters(self):
        constraints = {entry["family"]: entry["constraints"] for entry in state_catalog()}
        assert constraints["photon-added-thermal"] == "mbar >= 0"
        assert constraints["displaced-thermal"] == "beta finite, mbar >= 0"
        assert constraints["squeezed-coherent"] == "beta finite, squeeze > 0"


def _bits(desc) -> tuple:
    """A descriptor's doubles as hex text and bytes, so that -0.0 differs from 0.0."""
    head = (desc.center.real, desc.center.imag, desc.width_x, desc.width_y)
    return tuple(v.hex() for v in head) + (desc.coeffs.shape, desc.coeffs.tobytes())


class TestUnreadParameters:
    @pytest.mark.parametrize("name", list(FAMILY_TABLE))
    def test_supplying_every_parameter_changes_nothing(self, tmp_path, name):
        # Each parameter the family does not read is set to its neutral value,
        # so a spec that sets beta, mbar and s gives the example's P0, rho0 and
        # files; the manifest records the neutral values.
        example = {"family": name, **FAMILY_TABLE[name].example}
        full = {"beta_re": 0.7, "beta_im": -0.4, "mbar": 0.8, "squeeze": 2.5, **example}
        spec, full_spec = parse_state_spec(example), parse_state_spec(full)
        assert _bits(initial_p_function(full_spec)) == _bits(initial_p_function(spec))
        assert np.array_equal(fock_density(full_spec, 40).elements, fock_density(spec, 40).elements)
        for label, fields in (("example", example), ("full", full)):
            argv = ["run", "--state", name, "--gamma", "1", "--nbar", "1", "--times", "0.5,1",
                    "--outputs", "p-grid,q-grid,w-grid,moments,mandel-q,variances", "--compare",
                    "--grid=-3:3:9", "--out", str(tmp_path / label)]
            for key, value in fields.items():
                if key != "family":
                    argv += ["--" + key.replace("_", "-"), str(value)]
            assert main(argv) == 0
        names = sorted(p.name for p in (tmp_path / "example").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "full").iterdir())
        assert len(names) == 15
        for file in names:
            a, b = ((tmp_path / label / file).read_bytes() for label in ("example", "full"))
            if file == "manifest.json":
                a, b = (json.loads(text) for text in (a, b))
                del a["wall_time_seconds"], b["wall_time_seconds"]
            assert a == b, file


class TestRunConfigValidation:
    def test_rejects_empty_times(self):
        from phasebath import BathParams
        from pathlib import Path

        with pytest.raises(ValueError):
            RunConfig(
                state=parse_state_spec({"family": "thermal", "mbar": 1.0}),
                bath=BathParams(gamma=1.0, nbar=0.0),
                times=(),
                grid=GridSpec(),
                outputs=("moments",),
                output_dir=Path("x"),
            )

    def test_rejects_unknown_artifact(self):
        from phasebath import BathParams
        from pathlib import Path

        with pytest.raises(ValueError):
            RunConfig(
                state=parse_state_spec({"family": "thermal", "mbar": 1.0}),
                bath=BathParams(gamma=1.0, nbar=0.0),
                times=(0.0,),
                grid=GridSpec(),
                outputs=("plots",),
                output_dir=Path("x"),
            )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--state", "thermal", "--mbar", "1", "--outputs", ","], "at least one output artifact must be requested"),
            (["--mbar", "1"], "a state family is required (--state or config file)"),
        ],
        ids=["no-outputs", "no-state"],
    )
    def test_command_line_refusals_name_their_setting(self, tmp_path, capsys, args, message):
        assert main(["run", *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


#: every config key with a value, and the same settings as flags
_ALL_KEYS = {
    "state": "displaced-thermal", "family": "displaced-thermal", "beta_re": "0.5",
    "beta_im": "-0.3", "mbar": "0.3", "squeeze": "2", "gamma": "0.7", "nbar": "0.2",
    "times": "0,0.4", "grid": "-3:3:9", "format": "json", "outputs": "w-grid,moments,mandel-q",
    "oracle_cutoff": "40", "compare_tolerance": "1e-4",
}
_ALL_FLAGS = [
    "--state", "displaced-thermal", "--beta-re", "0.5", "--beta-im=-0.3", "--mbar", "0.3",
    "--squeeze", "2", "--gamma", "0.7", "--nbar", "0.2", "--times", "0,0.4", "--grid=-3:3:9",
    "--format", "json", "--outputs", "w-grid,moments,mandel-q", "--oracle-cutoff", "40",
    "--compare", "1e-4",
]


def _data_files(out: Path) -> dict:
    """Each data file's bytes, and the manifest's without its wall time."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = files.pop("manifest.json").decode().splitlines()
    files["manifest.json"] = [line for line in manifest if "wall_time_seconds" not in line]
    return files


class TestConfigFile:
    @pytest.mark.parametrize("key", ["family", "state"])
    def test_flags_beat_the_file(self, tmp_path, key):
        # A file's family= used to beat --state.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=thermal\nmbar=1\nbeta_re=0.5\ntimes=0.5\noutputs=moments\n")
        out = tmp_path / "out"
        args = ["run", "--config", str(cfg), "--state", "coherent", "--beta-re", "2", "--out", str(out)]
        assert main(args) == 0
        state = json.loads((out / "manifest.json").read_text())["config"]["state"]
        assert state == {"family": "coherent", "beta_re": 2.0, "beta_im": 0.0, "mbar": 0.0, "squeeze": 1.0}

    def test_accepted_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("compare=1e-4\n")
        assert main(["run", "--config", str(cfg)]) == 2
        keys = capsys.readouterr().err.split("choose from ")[1].strip().split(", ")
        assert sorted(keys) == sorted([*_ALL_KEYS, "out"])

    def test_every_key_writes_what_its_flag_writes(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        lines = [f"{key}={value}" for key, value in _ALL_KEYS.items()]
        cfg.write_text("\n".join(lines + [f"out={tmp_path / 'file'}"]) + "\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["run", *_ALL_FLAGS, "--out", str(tmp_path / "flags")]) == 0
        from_file = _data_files(tmp_path / "file")
        assert len(from_file) == 1 + 2 * 4
        assert from_file == _data_files(tmp_path / "flags")

    def test_module_entry_point_reads_the_file(self, tmp_path):
        # `python -m phasebath` calls main() with argv=None.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family=thermal\nmbar=1\ntimes=0,0.5\noutputs=moments\nout={tmp_path / 'out'}\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "phasebath", "run", "--config", str(cfg), "--nbar", "0.5"],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
        assert config["state"]["family"] == "thermal" and config["nbar"] == 0.5
        assert config["times"] == [0.0, 0.5]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_byte_order_mark_is_allowed(self, tmp_path, newline):
        # Editors may save UTF-8 with a byte-order mark; it is not part of the
        # first key.  Comment and blank lines are skipped.
        text = newline.join(["family=thermal", "# the state's occupation", "mbar=1", "", "  ", "nbar=0.4",
                             "times=0,0.5", "  # the sample times", "outputs=q-grid,moments", "grid=-3:3:9", ""])
        for name, data in (("plain", text.replace(newline, "\n").encode()),
                           ("bom", b"\xef\xbb\xbf" + text.encode())):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert len(_data_files(tmp_path / "bom")) == 1 + 2 * 2
        assert _data_files(tmp_path / "bom") == _data_files(tmp_path / "plain")

    def test_line_without_equals_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state=thermal\nmbar 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: config line must be key=value, got 'mbar 1'\n"
        assert not (tmp_path / "out").exists()

    def test_bad_value_fails_as_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state=thermal\nmbar=1\ngamma=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --gamma: invalid float value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_number_fails_as_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state=thermal\nmbar=1\ntimes=0,x\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --times: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestIntegerTimes:
    def test_write_the_same_files_as_float_times(self, tmp_path):
        # Integer times used to write 0 and 1 where the CLI writes 0.0 and 1.0.
        for fmt in ("csv", "json"):
            for label, times in (("int", (0, 1)), ("float", (0.0, 1.0))):
                config = RunConfig(
                    state=StateSpec("coherent", beta=1.0),
                    bath=BathParams(gamma=1.0, nbar=0.2),
                    times=times,
                    grid=GridSpec(),
                    outputs=("moments", "mandel-q", "variances", "oracle-compare"),
                    output_dir=tmp_path / fmt / label,
                    format=fmt,
                )
                assert cli.run(config) == 0
            assert _data_files(tmp_path / fmt / "int") == _data_files(tmp_path / fmt / "float")


class TestRecords:
    def test_artifact_order(self):
        assert cli.ARTIFACTS == (
            "p-grid", "q-grid", "w-grid", "moments", "mandel-q", "variances", "oracle-compare"
        )

    def test_numpy_moments_write_the_same_rows(self):
        values = (0.3 + 0.1j, 0.7, 0.5, 0.4, 0.6, 0.05 - 0.02j)
        python = states.MomentSet(*values)
        numpy = states.MomentSet(np.complex128(values[0]), *map(np.float64, values[1:5]), np.complex128(values[5]))
        for name in ("mean_n", "second_factorial", "var_x", "var_y"):
            assert type(getattr(numpy, name)) is float, name
        for artifact, columns in cli._RECORDS.items():
            for fmt in ("csv", "json"):
                python_text, numpy_text = (
                    cli._record_text({"time": 0.5, **columns(moments)}, fmt) for moments in (python, numpy)
                )
                assert numpy_text == python_text, (artifact, fmt)
                assert "np." not in python_text


def _assert_grid_bytes(axis, values, quantity) -> str:
    """``_grid_text`` gives the per-point definition's text; returns the JSON text."""
    lines = ["re_alpha,im_alpha,value"]
    for i in range(axis.size):
        for j in range(axis.size):
            lines.append(f"{repr(float(axis[i]))},{repr(float(axis[j]))},{repr(float(values[i, j]))}")
    assert cli._grid_text(*cli._texts([axis, values]), quantity, "csv") == "\n".join(lines) + "\n"

    payload = {
        "x_axis": [float(v) for v in axis],
        "y_axis": [float(v) for v in axis],
        "values": [[float(v) for v in row] for row in values],
        "meta": {"quantity": quantity},
    }
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert cli._grid_text(*cli._texts([axis, values]), quantity, "json") == expected
    return expected


class TestGridWriter:
    def test_bytes_match_definitions(self):
        # Values that are not symmetric in (i, j), so swapped axes show; they
        # include edge cases of repr.
        axis = np.linspace(-1.5, 1.5, 7)
        values = np.linspace(-1.0, 1.0, 49).reshape(7, 7) / 3.0
        special = [-0.0, 5e-324, -4e-17, 1e-300, 2.0, 1e16, 1e22]
        values.flat[[0, 4, 9, 17, 23, 30, 34]] = special
        expected = _assert_grid_bytes(axis, values, "W")
        assert "-0.0" in expected and "5e-324" in expected and "1e+22" in expected

    def test_repeated_values_keep_their_bytes(self):
        # The writer formats each distinct double once.  A centred thermal Q
        # repeats its values at (+-x, +-y) and (y, x); 0.0 and -0.0 compare
        # equal but are different doubles, with different texts.
        x = np.linspace(-2.0, 2.0, 9)
        values = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2.0) / (2.0 * np.pi)
        values[:2, :2] = [[0.0, -0.0], [5e-324, 0.0]]
        values[-1, -2:] = [-0.0, 5e-324]
        assert len(set(values.ravel().tolist())) < values.size // 4
        expected = _assert_grid_bytes(x, values, "Q")
        assert {"      0.0,", "      -0.0,", "      5e-324,", "      5e-324"} <= set(expected.splitlines())

    def test_notation_switches_and_long_exponents_keep_their_bytes(self):
        # A 41 x 41 grid whose values cross repr's switches to exponent form
        # (below 1e-4, from 1e16 on) and reach three-digit exponents, with
        # both signs, on axes that do the same.
        x = np.concatenate([-np.logspace(-310, 300, 20), [0.0], np.logspace(-6, 20, 20)])
        exponents = np.linspace(-320.0, 305.0, x.size * x.size).reshape(x.size, x.size)
        values = np.where(np.arange(x.size)[:, None] % 2, -1.0, 1.0) * 10.0 ** exponents * 1.2345678
        values[:, 0] = np.nextafter(1e-4, 0.0)  # 9.999999999999999e-05
        values[:, 7] = np.nextafter(1e16, 0.0)  # 9999999999999998.0
        values[::5, 3] = [1e-4, 1e-5, 1e15, 1e16, 9999999999999998.0, 5e-324, -0.0, 0.0, 1.7976931348623157e308]
        expected = _assert_grid_bytes(x, values, "Q")
        texts = {line.strip().rstrip(",") for line in expected.splitlines()}
        assert {"1e-05", "0.0001", "1e+16", "1000000000000000.0", "5e-324", "-0.0"} <= texts
        assert {"9.999999999999999e-05", "9999999999999998.0", "1.7976931348623157e+308"} <= texts
        assert any("e-31" in t for t in texts) and any("e+30" in t for t in texts)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_readme_example_files_are_unchanged(self, tmp_path, fmt):
        # tests/data/readme-example holds this run's data files as the
        # original per-point writer wrote them.
        code = main(
            [
                "run", "--state", "photon-added-thermal", "--mbar", "1",
                "--gamma", "0.5", "--nbar", "2", "--times", "0,0.5,1",
                "--outputs", "p-grid,q-grid,moments,mandel-q,variances",
                "--grid=-3:3:9", "--format", fmt, "--out", str(tmp_path),
            ]
        )
        assert code == 0
        _assert_golden(tmp_path, GOLDEN / fmt, 15)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_records_example_files_are_unchanged(self, tmp_path, fmt):
        # tests/data/records-example holds this run's data files: Q grids and
        # the Mandel Q and variance records of a displaced photon-added state.
        code = main(
            [
                "run", "--state", "photon-added-coherent", "--beta-re", "1", "--beta-im", "0.5",
                "--gamma", "1", "--nbar", "0.4", "--times", "0,0.5",
                "--outputs", "q-grid,mandel-q,variances", "--grid=-3:3:9",
                "--format", fmt, "--out", str(tmp_path),
            ]
        )
        assert code == 0
        _assert_golden(tmp_path, RECORDS_GOLDEN / fmt, 6)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_example_files_are_unchanged(self, tmp_path, fmt):
        # tests/data/compare-example holds this oracle run's data files: W
        # grids from the closed-form P_t at the width-1/2 kernel, the
        # oracle-compare deviations of rho_t from the closed-form thermal
        # channel, and the moments.
        code = main(
            [
                "run", "--state", "photon-added-coherent", "--beta-re", "0.5",
                "--beta-im", "0.3", "--gamma", "1", "--nbar", "0.4", "--times", "0,0.3,1",
                "--outputs", "moments,w-grid", "--compare", "--grid=-3.5:3.5:15",
                "--format", fmt, "--out", str(tmp_path),
            ]
        )
        assert code == 0
        _assert_golden(tmp_path, COMPARE_GOLDEN / fmt, 9)

    def test_compare_example_w_grids_match_closed_form(self):
        # The fixture's W, read from the files, against the closed-form W of
        # the phase-space route: P_t smoothed by the width-1/2 kernel.
        spec = StateSpec("photon-added-coherent", beta=0.5 + 0.3j)
        bath = BathParams(gamma=1.0, nbar=0.4)
        for idx, t in enumerate((0.0, 0.3, 1.0)):
            rows = read_grid_csv(COMPARE_GOLDEN / "csv" / f"w-grid-{idx:03d}.csv")
            grid = json.loads((COMPARE_GOLDEN / "json" / f"w-grid-{idx:03d}.json").read_text())
            x, y = np.array(grid["x_axis"]), np.array(grid["y_axis"])
            expected = evaluate_p(evolve_p_closed_form(spec, bath, t).convolved(1.0, 0.5), x[:, None], y[None, :])
            assert float(np.max(np.abs(np.array(grid["values"]) - expected))) < 1e-12
            X, Y = np.meshgrid(x, y, indexing="ij")
            assert np.array_equal(rows[:, :2], np.column_stack([X.ravel(), Y.ravel()]))
            assert float(np.max(np.abs(rows[:, 2] - expected.ravel()))) < 1e-12
