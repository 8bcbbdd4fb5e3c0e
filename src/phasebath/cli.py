"""Command-line surface: evolve a state, emit phase-space grids and observables.

Artifacts are written one file per (artifact, sample time), plus a JSON run
manifest.  Data files are deterministic: identical configs produce
byte-identical files, and no timestamps appear outside the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .core import BathParams
from .descriptors import evaluate_p, singular_part
from .evolution import evolve_p_closed_form, evolved_moments
from .lindblad import integrate, moments_from_rho
from .quasiprob import PhaseSpaceGrid, p_to_q_grid, wigner_from_characteristic
from .states import (
    FAMILIES,
    FAMILY_TABLE,
    StateSpec,
    default_cutoff,
    fock_density,
    initial_moments,
    parse_state_spec,
)

ARTIFACTS = ("p-grid", "q-grid", "w-grid", "moments", "mandel-q", "variances", "oracle-compare")

@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Square phase-space window: both axes run lo..hi with `points` samples."""

    lo: float = -3.0
    hi: float = 3.0
    points: int = 41

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ValueError(f"grid range must satisfy lo < hi, got {self.lo}:{self.hi}")
        if self.points < 8:
            raise ValueError(f"grid resolution must be at least 8 per axis, got {self.points}")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be LO:HI:POINTS, got {text!r}")
        return cls(float(parts[0]), float(parts[1]), int(parts[2]))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    state: StateSpec
    bath: BathParams
    times: tuple[float, ...]
    grid: GridSpec
    outputs: tuple[str, ...]
    output_dir: Path
    format: str = "csv"
    oracle_cutoff: int | None = None
    compare_tolerance: float = 1e-5

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("times must be nonempty")
        if any(t < 0 for t in self.times):
            raise ValueError("times must be nonnegative")
        if list(self.times) != sorted(self.times):
            raise ValueError("times must be sorted")
        if not self.outputs:
            raise ValueError("at least one output artifact must be requested")
        for name in self.outputs:
            if name not in ARTIFACTS:
                raise ValueError(f"unknown artifact {name!r}; choose from {ARTIFACTS}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")

    def echo(self) -> dict:
        """JSON-serializable snapshot sufficient to reproduce the run."""
        return {
            "state": {
                "family": self.state.family,
                "beta_re": self.state.beta.real,
                "beta_im": self.state.beta.imag,
                "mbar": self.state.mbar,
                "squeeze": self.state.squeeze,
            },
            "gamma": self.bath.gamma,
            "nbar": self.bath.nbar,
            "times": list(self.times),
            "grid": f"{self.grid.lo}:{self.grid.hi}:{self.grid.points}",
            "outputs": list(self.outputs),
            "format": self.format,
            "oracle_cutoff": self.oracle_cutoff,
            "compare_tolerance": self.compare_tolerance,
        }


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_grid(path: Path, grid: PhaseSpaceGrid, fmt: str) -> None:
    if fmt == "csv":
        lines = ["re_alpha,im_alpha,value"]
        for i, x in enumerate(grid.x_axis):
            for j, y in enumerate(grid.y_axis):
                lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(grid.values[i, j])}")
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "x_axis": [float(v) for v in grid.x_axis],
            "y_axis": [float(v) for v in grid.y_axis],
            "values": [[float(v) for v in row] for row in grid.values],
            "meta": {k: v for k, v in grid.meta.items() if not isinstance(v, (np.ndarray,))},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_record(path: Path, record: dict, fmt: str) -> None:
    if fmt == "csv":
        keys = list(record)
        lines = [",".join(keys), ",".join(_fmt(record[k]) if isinstance(record[k], float) else str(record[k]) for k in keys)]
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _moments_record(t: float, m) -> dict:
    return {
        "time": t,
        "mean_a_re": float(m.mean_a.real),
        "mean_a_im": float(m.mean_a.imag),
        "mean_n": float(m.mean_n),
        "second_factorial": float(m.second_factorial),
        "var_x": float(m.var_x),
        "var_y": float(m.var_y),
    }


def run(config: RunConfig) -> int:
    """Execute one run; returns the process exit code."""
    started = _time.perf_counter()
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = config.format
    axis = config.grid.axis()
    m0 = initial_moments(config.state)

    needs_p = any(a in config.outputs for a in ("p-grid", "q-grid"))
    needs_rho = any(a in config.outputs for a in ("w-grid", "oracle-compare"))
    rhos = None
    trace_deficits: list[float] = []
    if needs_rho:
        cutoff = config.oracle_cutoff or default_cutoff(config.state, config.bath.nbar)
        rho0 = fock_density(config.state, cutoff)
        rhos = integrate(rho0, config.bath, config.times)
        evolved = [r for t, r in zip(config.times, rhos) if t > 0]
        trace_deficits = [rho0.trace_deficit] + [r.trace_deficit for r in evolved]

    files: list[str] = []
    compare_rows: list[dict] = []
    worst_dev = 0.0
    for idx, t in enumerate(config.times):
        form = evolve_p_closed_form(config.state, config.bath, t) if needs_p else None
        mt = evolved_moments(m0, config.bath, t)
        for artifact in config.outputs:
            name = f"{artifact}-{idx:03d}.{ext}"
            path = out_dir / name
            if artifact == "p-grid":
                singular = singular_part(form)
                if singular:
                    raise ValueError(
                        f"state {config.state.family!r} at t={t} has a singular P "
                        f"function ({singular}); p-grid is not representable on a sample grid"
                    )
                values = evaluate_p(form, axis[:, None], axis[None, :])
                _write_grid(path, PhaseSpaceGrid(axis, axis, values, {"quantity": "P"}), ext)
            elif artifact == "q-grid":
                _write_grid(path, p_to_q_grid(form, axis, axis), ext)
            elif artifact == "w-grid":
                template = PhaseSpaceGrid(axis, axis, np.zeros((axis.size, axis.size)), {})
                _write_grid(path, wigner_from_characteristic(rhos[idx], template), ext)
            elif artifact == "moments":
                _write_record(path, _moments_record(t, mt), ext)
            elif artifact == "mandel-q":
                _write_record(path, {"time": t, "mandel_q": float(mt.mandel_q())}, ext)
            elif artifact == "variances":
                _write_record(
                    path,
                    {"time": t, "var_x": float(mt.var_x), "var_y": float(mt.var_y),
                     "product": float(mt.var_x * mt.var_y)},
                    ext,
                )
            elif artifact == "oracle-compare":
                mo = moments_from_rho(rhos[idx])
                row = {
                    "time": t,
                    "dev_mean_a": abs(mt.mean_a - mo.mean_a),
                    "dev_mean_n": abs(mt.mean_n - mo.mean_n),
                    "dev_second_factorial": abs(mt.second_factorial - mo.second_factorial),
                    "dev_var_x": abs(mt.var_x - mo.var_x),
                    "dev_var_y": abs(mt.var_y - mo.var_y),
                }
                worst_dev = max(worst_dev, max(v for k, v in row.items() if k != "time"))
                compare_rows.append(row)
                _write_record(path, row, ext)
            files.append(name)

    manifest = {
        "config": config.echo(),
        "version": __version__,
        "files": files,
        "trace_deficits": trace_deficits,
        "oracle_compare": {"worst_deviation": worst_dev, "tolerance": config.compare_tolerance}
        if compare_rows
        else None,
        "wall_time_seconds": _time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if compare_rows and worst_dev > config.compare_tolerance:
        print(
            f"oracle comparison FAILED: worst deviation {worst_dev:.3e} exceeds "
            f"tolerance {config.compare_tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def state_catalog() -> list[dict]:
    """Machine-readable family listing; `example` round-trips through parsing."""
    return [
        {
            "family": name,
            "parameters": list(entry.parameters),
            "constraints": entry.constraints,
            "example": {"family": name, **entry.example},
        }
        for name, entry in FAMILY_TABLE.items()
    ]


def _parse_config_file(path: Path) -> dict:
    fields: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be key=value, got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebath",
        description="Evolve a damped bosonic mode in a thermal bath, in phase space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evolve a state and write grid/observable files")
    run_p.add_argument("--config", type=Path, help="key=value file mirroring the flags below")
    run_p.add_argument("--state", help=f"state family, one of {', '.join(FAMILIES)}")
    run_p.add_argument("--beta-re", type=float, help="real part of the amplitude parameter")
    run_p.add_argument("--beta-im", type=float, help="imaginary part of the amplitude parameter")
    run_p.add_argument("--mbar", type=float, help="initial thermal occupation of the state")
    run_p.add_argument("--squeeze", type=float, help="quadrature variance ratio (1 = none)")
    run_p.add_argument("--gamma", type=float, help="bath damping rate")
    run_p.add_argument("--nbar", type=float, help="bath mean occupation")
    run_p.add_argument("--times", help="comma-separated sample times")
    run_p.add_argument("--grid", help="phase-space window LO:HI:POINTS (both axes)")
    run_p.add_argument("--out", type=Path, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), help="data file format")
    run_p.add_argument("--outputs", help=f"comma-separated artifacts from: {', '.join(ARTIFACTS)}")
    run_p.add_argument("--oracle-cutoff", type=int, help="basis size for the numeric reference")
    run_p.add_argument(
        "--compare",
        nargs="?",
        const=1e-5,
        type=float,
        metavar="TOL",
        help="add the oracle-compare artifact; exit nonzero if any deviation exceeds TOL (default 1e-5)",
    )

    list_p = sub.add_parser("list-states", help="describe the available state families")
    list_p.add_argument("--json", action="store_true", help="machine-readable listing")
    return parser


_DEFAULTS = {
    "gamma": 1.0,
    "nbar": 0.0,
    "times": "0,1",
    "grid": "-3:3:41",
    "out": "phasebath-out",
    "format": "csv",
    "outputs": "q-grid,moments",
}


#: run settings that a flag and a config-file key can both give
_FLAG_KEYS = ("state", "beta_re", "beta_im", "mbar", "squeeze", "gamma", "nbar",
              "times", "grid", "out", "format", "outputs", "oracle_cutoff")
_CONFIG_KEYS = _FLAG_KEYS + ("family", "compare_tolerance")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields: dict = dict(_DEFAULTS)
    if args.config is not None:
        from_file = _parse_config_file(args.config)
        unknown = [key for key in from_file if key not in _CONFIG_KEYS]
        if unknown:
            raise ValueError(
                f"unknown config key {unknown[0]!r} in {args.config}; "
                f"choose from {', '.join(_CONFIG_KEYS)}"
            )
        fields.update(from_file)
    for key in _FLAG_KEYS:
        value = getattr(args, key)
        if value is not None:
            fields[key] = value
    if "state" not in fields and "family" not in fields:
        raise ValueError("a state family is required (--state or config file)")

    state_fields = {"family": fields.get("family", fields.get("state"))}
    for key in ("beta_re", "beta_im", "mbar", "squeeze"):
        if key in fields:
            state_fields[key] = float(fields[key])
    state = parse_state_spec(state_fields)

    times = fields["times"]
    if isinstance(times, str):
        times = [float(v) for v in times.split(",") if v.strip()]
    outputs = fields["outputs"]
    if isinstance(outputs, str):
        outputs = [v.strip() for v in outputs.split(",") if v.strip()]
    compare_tol = args.compare if args.compare is not None else fields.get("compare_tolerance")
    if compare_tol is not None:
        compare_tol = float(compare_tol)
        if "oracle-compare" not in outputs:
            outputs = list(outputs) + ["oracle-compare"]
    grid = fields["grid"]
    oracle_cutoff = fields.get("oracle_cutoff")
    return RunConfig(
        state=state,
        bath=BathParams(gamma=float(fields["gamma"]), nbar=float(fields["nbar"])),
        times=tuple(times),
        grid=grid if isinstance(grid, GridSpec) else GridSpec.parse(str(grid)),
        outputs=tuple(outputs),
        output_dir=Path(fields["out"]),
        format=str(fields["format"]),
        oracle_cutoff=int(oracle_cutoff) if oracle_cutoff is not None else None,
        compare_tolerance=compare_tol if compare_tol is not None else 1e-5,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-states":
        catalog = state_catalog()
        if args.json:
            print(json.dumps(catalog, indent=2))
        else:
            for entry in catalog:
                print(entry["family"])
                print(f"  parameters:  {', '.join(entry['parameters']) or '(none)'}")
                print(f"  constraints: {entry['constraints']}")
        return 0
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        # RuntimeError covers the numerical guards: oracle trace drift, Wigner
        # norm mismatch, and non-converged quadrature.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
