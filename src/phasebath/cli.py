"""Command-line surface: evolve a state, emit phase-space grids and observables.

Artifacts are written one file per (artifact, sample time), plus a JSON run
manifest.  Data files are deterministic: identical configs produce
byte-identical files, and no timestamps appear outside the manifest.

The P, W and Q grids all come from the closed-form P_t, evaluated after the
kernel of width 0, 1/2 or 1, and every moment is read off the same P_t.  The
Fock-basis density matrix is built and propagated only for
``oracle-compare`` (``--compare``), whose basis ``--oracle-cutoff`` sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time as _time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__, floattext
from .core import BathParams, scale_bath
from .descriptors import evaluate_p, fock_populations, singular_part
from .lindblad import integrate, moments_from_rho
from .states import (
    FAMILIES,
    FAMILY_TABLE,
    MomentSet,
    StateSpec,
    default_cutoff,
    fock_density,
    initial_p_function,
    parse_state_spec,
)

#: each grid artifact's quantity and the width of the kernel that takes P to
#: it: the s-ordered distribution is P convolved at width (1 - s)/2 for
#: s = 1, -1, 0 (Cahill & Glauber, Phys. Rev. 177, 1882 (1969))
_GRID_KERNELS = {"p-grid": ("P", 0.0), "q-grid": ("Q", 1.0), "w-grid": ("W", 0.5)}

#: each record artifact's columns after ``time``, read off the MomentSet of P_t
_RECORDS = {
    "moments": lambda m: {"mean_a_re": m.mean_a.real, "mean_a_im": m.mean_a.imag, "mean_n": m.mean_n,
                          "second_factorial": m.second_factorial, "var_x": m.var_x, "var_y": m.var_y},
    "mandel-q": lambda m: {"mandel_q": m.mandel_q()},
    "variances": lambda m: {"var_x": m.var_x, "var_y": m.var_y, "product": m.var_x * m.var_y},
}

ARTIFACTS = (*_GRID_KERNELS, *_RECORDS, "oracle-compare")

#: largest oracle deviation that --compare accepts when no TOL is given
COMPARE_TOLERANCE = 1e-5

@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Square phase-space window: both axes run lo..hi with `points` samples."""

    lo: float = -3.0
    hi: float = 3.0
    points: int = 41

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hi - self.lo) and self.lo < self.hi):
            raise ValueError(f"grid range must be finite with lo < hi, got {self.lo}:{self.hi}")
        if self.points < 8:
            raise ValueError(f"grid resolution must be at least 8 per axis, got {self.points}")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


def _grid_arg(text: str) -> tuple[float, float, int]:
    """The ``--grid`` value LO:HI:POINTS; ``GridSpec`` checks the window."""
    try:
        lo, hi, points = text.split(":")
        return float(lo), float(hi), int(points)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"LO:HI:POINTS needs two numbers and an integer, got {text!r}") from None


def _times_arg(text: str) -> tuple[float, ...]:
    """The ``--times`` value: comma-separated numbers; empty items are skipped."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


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
    compare_tolerance: float = COMPARE_TOLERANCE

    def __post_init__(self) -> None:
        # float times write 1.0, not 1, wherever a record or the echo shows them
        object.__setattr__(self, "times", tuple(map(float, self.times)))
        if not self.times:
            raise ValueError("times must be nonempty")
        bad = [t for t in self.times if not (math.isfinite(t) and t >= 0)]
        if bad:
            raise ValueError(f"times must be finite and nonnegative, got {bad[0]}")
        if list(self.times) != sorted(self.times):
            raise ValueError("times must be sorted")
        if not self.outputs:
            raise ValueError("at least one output artifact must be requested")
        for i, name in enumerate(self.outputs):
            if name not in ARTIFACTS:
                raise ValueError(f"unknown artifact {name!r}; choose from {ARTIFACTS}")
            if name in self.outputs[:i]:
                raise ValueError(f"artifact {name!r} is requested twice")
        if not (math.isfinite(self.compare_tolerance) and self.compare_tolerance > 0):
            raise ValueError(
                f"compare tolerance must be finite and positive, got {self.compare_tolerance}"
            )
        if self.oracle_cutoff is not None and self.oracle_cutoff < 2:
            raise ValueError(f"oracle cutoff must be >= 2, got {self.oracle_cutoff}")
        if self.oracle_cutoff is not None and "oracle-compare" not in self.outputs:
            raise ValueError("the oracle cutoff sizes the --compare basis; it needs --compare")
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


def _texts(arrays: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Each array's doubles as their shortest round-trip ``repr`` texts, an
    object array of the array's shape.  One ``floattext`` pass formats every
    array's distinct bit patterns: -0.0 and 0.0 stay apart, and the points
    that a centred state's symmetry maps onto each other share one text.  An
    array's texts are decoded only when the iterator reaches it."""
    keys, inverses = zip(*(np.unique(a.ravel().view(np.int64), return_inverse=True) for a in arrays))
    blobs = floattext.reprs([k.view(float) for k in keys])
    for a, inverse in zip(arrays, inverses):
        yield np.array(blobs.pop(0).decode().splitlines(), dtype=object)[inverse].reshape(a.shape)


def _json_list(texts: list[str], indent: str) -> str:
    """Number texts laid out as ``json.dumps(indent=2)`` lays out a list whose
    items sit at ``indent``; for a finite float, ``json`` writes its ``repr``."""
    return f"[\n{indent}" + f",\n{indent}".join(texts) + f"\n{indent[:-2]}]"


def _grid_text(axis_texts: np.ndarray, texts: np.ndarray, quantity: str, fmt: str) -> str:
    """A grid file's text from the ``repr`` texts of the run's one axis and of
    the values, object arrays from ``_texts`` with ``texts[i, j]`` at
    (axis[i], axis[j]), and the grid's quantity.

    ``run`` makes one ``floattext`` pass per run, over the axis and each
    grid's distinct doubles, and hands each grid its texts as it is written;
    the files are joins of those texts, the same bytes as one ``repr`` per
    point.  CSV has the header ``re_alpha,im_alpha,value`` and one
    ``x,y,value`` line per point, row-major (x outer).  JSON is byte for byte
    ``json.dumps({"meta": {"quantity"}, "values", "x_axis", "y_axis"},
    indent=2, sort_keys=True)``, with the axis as both ``x_axis`` and ``y_axis``.
    """
    if fmt == "csv":
        cells = np.empty((*texts.shape, 4), dtype=object)
        comma = axis_texts + ","
        cells[..., 0] = comma[:, None]
        cells[..., 1] = comma
        cells[..., 2] = texts
        cells[..., 3] = "\n"
        return "re_alpha,im_alpha,value\n" + "".join(cells.ravel().tolist())
    meta = json.dumps({"quantity": quantity}, indent=2).replace("\n", "\n  ")
    rows = ",\n    ".join(_json_list(row, "      ") for row in texts.tolist())
    axis = _json_list(axis_texts.tolist(), "    ")
    return (f'{{\n  "meta": {meta},\n  "values": [\n    {rows}\n  ],\n'
            f'  "x_axis": {axis},\n  "y_axis": {axis}\n}}\n')


def _json_text(value) -> str:
    """Strict JSON (``indent=2``, sorted keys) with every non-finite float as null."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(value), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _record_text(record: dict, fmt: str) -> str:
    """A record file's text: a header and one row of ``repr`` texts, or JSON."""
    if fmt == "csv":
        return f"{','.join(record)}\n{','.join(map(repr, record.values()))}\n"
    return _json_text(record)


def run(config: RunConfig) -> int:
    """Execute one run and return 0, or 1 when ``--compare`` found a deviation
    above its tolerance (the files and manifest are written either way); every
    other outcome raises.  Every file's contents are computed before the first
    is written, so a run that fails to compute them writes nothing.
    """
    started = _time.perf_counter()
    ext = config.format
    axis = config.grid.axis()
    p0 = initial_p_function(config.state)

    trace_deficits: list[float] = []
    if "oracle-compare" in config.outputs:
        cutoff = config.oracle_cutoff or default_cutoff(p0, config.bath.nbar)  # RunConfig rejects 0
        rho0 = fock_density(config.state, cutoff)
        rhos = integrate(rho0, config.bath, config.times)
        trace_deficits = [rho0.trace_deficit] + [r.trace_deficit for t, r in zip(config.times, rhos) if t > 0]

    # each data file's text, or a grid's (quantity, values) to format below
    files: dict[str, str | tuple[str, np.ndarray]] = {}
    deviations: list[float] = []
    for idx, t in enumerate(config.times):
        form = p0.convolved(*scale_bath(config.bath, t))
        mt = MomentSet.from_p(form)
        for artifact in config.outputs:
            if artifact in _GRID_KERNELS:
                quantity, width = _GRID_KERNELS[artifact]
                # W and Q are always regular: every P width exceeds -1/2.
                shown = form.convolved(1.0, width)
                singular = singular_part(shown)
                if singular:
                    raise ValueError(
                        f"state {config.state.family!r} at t={t} has a singular P "
                        f"function ({singular}); p-grid is not representable on a sample grid"
                    )
                # A window far out in phase space can overflow; the non-finite
                # values that this leaves are refused below.
                with np.errstate(all="ignore"):
                    values = evaluate_p(shown, axis[:, None], axis[None, :])
                if not np.isfinite(values).all():
                    raise ValueError(f"{artifact} at t={t} has a non-finite value")
                contents = (quantity, values)
            elif artifact in _RECORDS:
                contents = _record_text({"time": t, **_RECORDS[artifact](mt)}, ext)
            else:  # oracle-compare
                mo = moments_from_rho(rhos[idx])
                devs = {
                    f"dev_{f.name}": abs(getattr(mt, f.name) - getattr(mo, f.name))
                    for f in dataclasses.fields(MomentSet)
                }
                populations = np.diagonal(rhos[idx].elements).real
                devs["dev_populations"] = float(np.max(np.abs(fock_populations(form, cutoff) - populations)))
                deviations.extend(devs.values())
                contents = _record_text({"time": t, **devs}, ext)
            files[f"{artifact}-{idx:03d}.{ext}"] = contents

    # One formatter pass per run, over the axis and each grid's values; each
    # grid's text is built as it is written.
    texts = _texts([axis, *(c[1] for c in files.values() if isinstance(c, tuple))])
    axis_texts = next(texts)
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, contents in files.items():
        if isinstance(contents, tuple):
            contents = _grid_text(axis_texts, next(texts), contents[0], ext)
        (out_dir / name).write_text(contents)

    # np.max propagates NaN, where max() would drop it
    worst_dev = float(np.max(deviations)) if deviations else 0.0
    manifest = {
        "config": config.echo(),
        "version": __version__,
        "files": list(files),
        "trace_deficits": trace_deficits,
        "oracle_compare": {"worst_deviation": worst_dev, "tolerance": config.compare_tolerance}
        if deviations
        else None,
        "wall_time_seconds": _time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(_json_text(manifest))

    if deviations and not worst_dev <= config.compare_tolerance:
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


#: config keys that name a flag other than their own
_CONFIG_ALIASES = {"family": "state", "compare_tolerance": "compare"}


def _config_flags(path: Path, parser: argparse.ArgumentParser) -> list[str]:
    """The ``run`` flags that a ``key=value`` config file mirrors, one
    ``--key=value`` per line.  A key is its flag's name with ``_`` for ``-``,
    or an alias in ``_CONFIG_ALIASES``; the bare ``compare`` is not a key."""
    settings = vars(parser.parse_args(["run"]))
    keys = [k for k in settings if k not in ("command", "config", "compare")] + list(_CONFIG_ALIASES)
    tokens = []
    for raw in path.read_text(encoding="utf-8-sig").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line must be key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise ValueError(f"unknown config key {key!r} in {path}; choose from {', '.join(keys)}")
        tokens.append(f"--{_CONFIG_ALIASES.get(key, key).replace('_', '-')}={value}")
    return tokens


# One parser per process: building it costs more than a parse, and parsing
# leaves it unchanged, so every call may share it.
@functools.cache
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
    run_p.add_argument("--gamma", type=float, default=1.0, help="bath damping rate")
    run_p.add_argument("--nbar", type=float, default=0.0, help="bath mean occupation")
    run_p.add_argument("--times", type=_times_arg, default="0,1", help="comma-separated sample times")
    run_p.add_argument("--grid", type=_grid_arg, default="-3:3:41",
                       help="phase-space window LO:HI:POINTS (both axes)")
    run_p.add_argument("--out", type=Path, default="phasebath-out", help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv", help="data file format")
    run_p.add_argument("--outputs", default="q-grid,moments",
                       help=f"comma-separated artifacts from: {', '.join(ARTIFACTS)}")
    run_p.add_argument("--oracle-cutoff", type=int, help="basis size for the --compare oracle")
    run_p.add_argument(
        "--compare",
        nargs="?",
        const=COMPARE_TOLERANCE,
        type=float,
        metavar="TOL",
        help="add the oracle-compare artifact; exit nonzero if any deviation exceeds TOL (default %(const)s)",
    )

    list_p = sub.add_parser("list-states", help="describe the available state families")
    list_p.add_argument("--json", action="store_true", help="machine-readable listing")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.state is None:
        raise ValueError("a state family is required (--state or config file)")
    given = {k: v for k, v in vars(args).items() if v is not None}
    state = parse_state_spec({**given, "family": args.state})
    outputs = [v.strip() for v in args.outputs.split(",") if v.strip()]
    if args.compare is not None and "oracle-compare" not in outputs:
        outputs.append("oracle-compare")
    return RunConfig(
        state=state,
        bath=BathParams(gamma=args.gamma, nbar=args.nbar),
        times=args.times,
        grid=GridSpec(*args.grid),
        outputs=tuple(outputs),
        output_dir=args.out,
        format=args.format,
        oracle_cutoff=args.oracle_cutoff,
        compare_tolerance=COMPARE_TOLERANCE if args.compare is None else args.compare,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
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
        if args.config is not None:
            # The file's flags go first, so every flag on the command line wins.
            args = parser.parse_args(["run", *_config_flags(args.config, parser), *argv[1:]])
        return run(_config_from_args(args))
    except (OSError, ValueError, RuntimeError, OverflowError, MemoryError) as exc:
        # The run cannot be carried out: a bad setting, an unreadable config or
        # unwritable output, a numerical guard (oracle trace drift), a value too
        # large for floats, or a basis or grid too large to hold.  Any other
        # exception is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
