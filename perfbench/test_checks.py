"""The benchmark's output checks accept correct outputs and catch wrong ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from checks import Case

SRC = Path(__file__).resolve().parents[1] / "src"


def write_grid(path: Path, x, y, values, fmt: str) -> None:
    if fmt == "json":
        payload = {"x_axis": list(map(float, x)), "y_axis": list(map(float, y)), "values": values.tolist(), "meta": {}}
        path.write_text(json.dumps(payload))
        return
    lines = ["re_alpha,im_alpha,value"]
    lines += [f"{float(xv)!r},{float(yv)!r},{float(values[i, j])!r}" for i, xv in enumerate(x) for j, yv in enumerate(y)]
    path.write_text("\n".join(lines) + "\n")


def write_record(path: Path, record: dict, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(record))
    else:
        path.write_text(",".join(record) + "\n" + ",".join(repr(float(v)) for v in record.values()) + "\n")


def gaussian_reference(case: Case, out: Path, scale: float = 1.0, shift: complex = 0j) -> None:
    """Write every artifact of a Gaussian-family case from the damping laws alone."""
    lo, hi, points = case.grid
    axis = np.linspace(lo, hi, points)
    m0 = checks.initial_moments(case)
    for idx, t in enumerate(case.times):
        m = checks.evolve(m0, case.gamma, case.nbar, t)
        for artifact in case.outputs:
            path = out / f"{artifact}-{idx:03d}.{case.fmt}"
            if artifact in checks.ORDER_SHIFT:
                off = checks.ORDER_SHIFT[artifact]
                grid = checks.gaussian_grid(m.mean_a + shift, m.var_x + off, m.var_y + off, axis, axis)
                write_grid(path, axis, axis, scale * grid, case.fmt)
            else:
                write_record(path, checks.expected_record(artifact, t, m), case.fmt)


GAUSSIAN_CASES = [
    Case("displaced-thermal", 0.7 - 0.4j, 0.9, 1.0, 0.8, 1.2, (0.0, 0.3, 0.6),
         ("p-grid", "q-grid", "moments", "mandel-q", "variances"), (-6.5, 6.5, 41)),
    Case("squeezed-coherent", 0.5 + 0.5j, 0.0, 1.8, 1.0, 0.7, (0.0, 0.4),
         ("q-grid", "w-grid", "moments"), (-3.0, 3.0, 41), fmt="json"),
]


@pytest.mark.parametrize("case", GAUSSIAN_CASES, ids=lambda c: c.family)
def test_accepts_reference_grids(case, tmp_path):
    gaussian_reference(case, tmp_path)
    assert checks.check_run(case, tmp_path, 0) == []


@pytest.mark.parametrize("case", GAUSSIAN_CASES, ids=lambda c: c.family)
def test_rejects_grid_scaled_by_one_percent(case, tmp_path):
    gaussian_reference(case, tmp_path, scale=1.01)
    errors = checks.check_run(case, tmp_path, 0)
    assert errors and all("grid" in e for e in errors)


@pytest.mark.parametrize("shift", [0.01, 0.01j])
@pytest.mark.parametrize("case", GAUSSIAN_CASES, ids=lambda c: c.family)
def test_rejects_centre_shifted_by_a_hundredth(case, shift, tmp_path):
    gaussian_reference(case, tmp_path, shift=shift)
    assert any("deviates from the reference" in e for e in checks.check_run(case, tmp_path, 0))


def test_photon_added_q_at_zero_time_is_accepted_and_shift_rejected(tmp_path):
    # Q(alpha) = |alpha|^2 exp(-|alpha - beta|^2) / (pi (1 + |beta|^2)) for a^dag|beta>
    beta = 0.6 + 0.3j
    case = Case("photon-added-coherent", beta, 0.0, 1.0, 1.0, 1.0, (0.0,), ("q-grid",), (-7.0, 7.0, 61))
    axis = np.linspace(-7.0, 7.0, 61)
    alpha = axis[:, None] + 1j * axis[None, :]

    def q(center):
        return np.abs(alpha) ** 2 * np.exp(-np.abs(alpha - center) ** 2) / (math.pi * (1 + abs(beta) ** 2))

    write_grid(tmp_path / "q-grid-000.csv", axis, axis, q(beta), "csv")
    assert checks.check_run(case, tmp_path, 0) == []
    write_grid(tmp_path / "q-grid-000.csv", axis, axis, q(beta + 0.01), "csv")
    assert any("first moment" in e for e in checks.check_run(case, tmp_path, 0))


def test_photon_added_thermal_moments_from_fock_sums():
    m = checks.initial_moments(Case("photon-added-thermal", 0j, 0.7, 1.0, 1.0, 0.0, (0.0,), ("moments",), (-3, 3, 41)))
    assert m.mean_n == pytest.approx(2 * 0.7 + 1, rel=1e-12)
    assert m.second_factorial == pytest.approx(6 * 0.7**2 + 4 * 0.7, rel=1e-12)


def test_rejects_wrong_record(tmp_path):
    case = GAUSSIAN_CASES[0]
    gaussian_reference(case, tmp_path)
    path = tmp_path / "mandel-q-001.csv"
    record = checks.read_record(path, "csv")
    record["mandel_q"] *= 1 + 1e-6
    write_record(path, record, "csv")
    assert any("mandel-q.mandel_q" in e for e in checks.check_run(case, tmp_path, 0))


def test_nonzero_exit_fails():
    assert checks.check_run(GAUSSIAN_CASES[0], Path("unused"), 2) == ["exit code 2"]


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(SRC))
    import phasebath.cli

    return phasebath.cli


def run_case(cli, case: Case, out: Path) -> list[str]:
    return checks.check_run(case, out, cli.main(case.argv(str(out))))


def test_rejects_divergent_squeeze_four_run(cli, tmp_path):
    errors = run_case(cli, workloads.KNOWN_FAULTY, tmp_path)
    assert any(e.startswith("t=0.0: q-grid") for e in errors)
    assert any(e.startswith("t=0.2: q-grid") for e in errors)


@pytest.mark.parametrize("workload", ["phase-space", "squeezed"])
def test_accepts_phasebath_outputs(cli, workload, tmp_path):
    for pos, case in enumerate(workloads.WORKLOADS[workload](7)):
        if case != workloads.KNOWN_FAULTY:
            assert run_case(cli, case, tmp_path / str(pos)) == [], case


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_lists_are_odd_and_seeded(workload):
    first, again, other = (workloads.WORKLOADS[workload](s) for s in (3, 3, 4))
    assert first == again and first != other
    assert len(first) % 2 == 1


def test_oracle_windows_hold_every_seed():
    for seed in range(200):
        for case in workloads.oracle(seed):
            assert workloads._reach(case, 6.5) <= case.grid[1], (seed, case)
