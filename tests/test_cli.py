"""Command-line surface: file contracts, determinism, and the compare gate."""

import json
import math

import numpy as np
import pytest

from phasebath import (
    BathParams,
    StateSpec,
    fock_density,
    husimi_q_grid,
    integrate,
)
from phasebath.cli import GridSpec, RunConfig, main, state_catalog
from phasebath.states import parse_state_spec


def read_grid_csv(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows


class TestGridSpec:
    def test_parse(self):
        g = GridSpec.parse("-3:3:41")
        assert (g.lo, g.hi, g.points) == (-3.0, 3.0, 41)

    def test_rejects_low_resolution(self):
        with pytest.raises(ValueError):
            GridSpec.parse("-3:3:7")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            GridSpec.parse("3:-3:41")


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
        # The Wigner transform's norm check fails on this window.
        code = main(
            [
                "run", "--state", "coherent", "--beta-re", "1", "--gamma", "1",
                "--nbar", "0.5", "--times", "0,0.5", "--outputs", "moments,w-grid",
                "--compare", "--grid=-3:3:33", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: norm mismatch") and err.count("\n") == 1
        # W reaches past +-3 here: the window, not aliasing, is named first.
        assert "the window holds 0.999898 of the unit mass" in err
        assert err.index("enlarge --grid") < err.index("aliases")

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

    def test_invalid_flags_are_usage_errors(self, tmp_path, capsys):
        assert main(["run", "--state", "nope", "--times", "0"]) == 2
        assert main(["run", "--state", "thermal", "--times", "1,0.5"]) == 2


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
