"""Command-line surface: configuration, dispatch, and file emission.

Commands
--------
spectrum  Band levels of one momentum block over an eta grid -> spectrum.csv
sweep     Ground-state curvature sweep -> sweep.csv
scaling   Finite-size scaling fits -> scaling.json
fidelity  Midgap fidelity curve -> fidelity.csv
square    Square-lattice flatness report -> square_report.json + per-N CSVs
validate  Self-check suite -> validate.json, exit 1 on any failure

Configuration comes from an optional JSON file (--config) plus flags
that mirror the JSON keys one-to-one and take precedence over the file.
OPTIONS lists every key once, with its flag settings and the commands
that accept it. Outputs are written atomically into --out (default:
current directory) with fixed float formatting, so identical
configurations produce byte-identical files. Exit codes: 0 success,
1 check/computation failure, 2 configuration error (including a sweep
grid with fewer than criticality.MIN_STEPS steps or an empty eta range).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .blocks import blocks_to_csv, ring_lams, ring_stack
from .criticality import (
    DEFAULT_STEPS,
    MIN_STEPS,
    fidelity_exact,
    fidelity_to_csv,
    scaling_scan,
    scaling_to_json_dict,
    sweep,
    sweep_range,
    sweep_to_csv,
)
from .models import KINDS, ModelSpec
from .output import atomic_write_text, csv_text, fmt_float, json_text
from .ssh import CONVENTIONS, corner_coupling
from .validate import run_validation

COMMANDS = ("spectrum", "sweep", "scaling", "fidelity", "square", "validate")


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


# The option table: config key, argparse settings (None: config file only),
# help text, and the commands that accept the key. Every command parses every
# flag; parse_config rejects a key that its command does not accept.
_MODEL = ("spectrum", "sweep")
_FLUX = ("spectrum", "sweep", "scaling", "fidelity", "square")
_GRID = ("spectrum", "sweep", "square")
OPTIONS = (
    ("out", {}, "output directory (default: current directory)", COMMANDS),
    ("kind", {"choices": KINDS}, "lattice kind", _MODEL),
    ("M", {"type": int}, "number of rows", ("spectrum", "sweep", "scaling", "square")),
    ("N", {"type": int}, "ring length", ("spectrum", "sweep", "fidelity")),
    ("t", {"type": float}, "hopping energy unit", _FLUX),
    ("eta", {"type": float}, "boundary coupling", _MODEL),
    ("phi", {"type": float}, "flux phase in radians", _FLUX),
    ("phi_over_pi", {"type": float}, "flux phase as a fraction of pi", _FLUX),
    ("eta_min", {"type": float}, "sweep grid start", _GRID),
    ("eta_max", {"type": float}, "sweep grid end", _GRID),
    ("steps", {"type": int}, "number of grid steps", ("spectrum", "sweep", "scaling", "square")),
    ("convention", {"choices": CONVENTIONS}, "corner exponent convention", COMMANDS),
    ("lam", {"type": float}, "ring coupling lambda (block selection)", ("spectrum", "fidelity")),
    ("mode", {"type": int}, "momentum mode index m (block selection, needs --M)", ("spectrum",)),
    ("n_list", {}, "comma-separated ring lengths", ("scaling", "square")),
    ("eta_center", {"type": float}, "fidelity center eta", ("fidelity",)),
    ("delta_min", {"type": float}, "smallest delta", ("fidelity",)),
    ("delta_max", {"type": float}, "largest delta", ("fidelity",)),
    ("delta_steps", {"type": int}, "number of delta points", ("fidelity",)),
    ("dump_blocks", {"action": "store_const", "const": True}, "also write blocks.csv with all momentum blocks",
     _MODEL),
    ("tolerances", None, "check name -> tolerance overrides", ("validate",)),
)


@dataclass(frozen=True)
class RunConfig:
    """One validated run: the command plus its merged key-value block."""

    command: str
    data: dict

    def get(self, key, default=None):
        return self.data.get(key, default)

    def to_json_dict(self) -> dict:
        out = {"command": self.command}
        out.update(self.data)
        return out


def parse_config(command: str, file_data: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge config-file values with flag overrides and validate keys.

    Flags win over file values. A flux given by flag (either 'phi' or
    'phi_over_pi') replaces any flux key from the file. Unknown keys,
    a command mismatch, or both flux forms at once raise ConfigError.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    merged = dict(file_data or {})
    if overrides:
        if ("phi" in overrides or "phi_over_pi" in overrides):
            merged.pop("phi", None)
            merged.pop("phi_over_pi", None)
        merged.update(overrides)
    if "command" in merged:
        if merged["command"] != command:
            raise ConfigError(f"config file is for command {merged['command']!r}, not {command!r}")
        del merged["command"]
    unknown = set(merged) - {key for key, _, _, commands in OPTIONS if command in commands}
    if unknown:
        raise ConfigError(f"keys not used by command {command!r}: {sorted(unknown)}")
    if "phi" in merged and "phi_over_pi" in merged:
        raise ConfigError("provide exactly one of 'phi' and 'phi_over_pi'")
    convention = merged.get("convention", "cells")
    if convention not in CONVENTIONS:
        raise ConfigError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return RunConfig(command, merged)


def _resolve_phi(config: RunConfig, default: float) -> float:
    if "phi" in config.data:
        return float(config.data["phi"])
    if "phi_over_pi" in config.data:
        return float(config.data["phi_over_pi"]) * math.pi
    return default


def _int_value(config: RunConfig, key: str, default: int) -> int:
    value = config.get(key, default)
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}") from None


def _float_value(config: RunConfig, key: str, default: float) -> float:
    value = config.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}") from None


def _n_list_value(config: RunConfig, default: list[int]) -> list[int]:
    value = config.get("n_list", default)
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ConfigError(f"n_list must be a comma-separated integer list, got {value!r}") from None
    if not isinstance(value, (list, tuple)) or not value or not all(isinstance(n, int) for n in value):
        raise ConfigError(f"n_list must be a non-empty list of integers, got {value!r}")
    return list(value)


def _steps_value(config: RunConfig, default: int) -> int:
    steps = _int_value(config, "steps", default)
    if steps < MIN_STEPS:
        raise ConfigError(f"steps must be >= {MIN_STEPS}, got {steps}")
    return steps


def _sweep_range(spec: ModelSpec, eta_min, eta_max, convention: str) -> tuple[float, float]:
    try:
        return sweep_range(spec, eta_min, eta_max, convention)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _out_path(config: RunConfig, filename: str) -> str:
    return os.path.join(config.get("out", "."), filename)


def _build_model(config: RunConfig, kind: str, M: int, N: int, eta: float, phi_default: float) -> ModelSpec:
    try:
        return ModelSpec(
            kind=config.get("kind", kind),
            M=_int_value(config, "M", M),
            N=_int_value(config, "N", N),
            t=_float_value(config, "t", 1.0),
            eta=_float_value(config, "eta", eta),
            phi=_resolve_phi(config, phi_default),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _maybe_dump_blocks(config: RunConfig, spec: ModelSpec) -> None:
    if config.get("dump_blocks"):
        path = _out_path(config, "blocks.csv")
        atomic_write_text(path, blocks_to_csv(spec))
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(config: RunConfig) -> int:
    kind = config.get("kind", "honeycomb")
    if kind not in KINDS:
        raise ConfigError(f"unknown lattice kind {kind!r}")
    N = _int_value(config, "N", 20)
    t = _float_value(config, "t", 1.0)
    phi = _resolve_phi(config, 0.0)
    has_lam = "lam" in config.data
    has_mode = "mode" in config.data
    if has_lam and has_mode:
        raise ConfigError("select the block via either 'lam' or 'mode', not both")
    if has_mode:
        M = _int_value(config, "M", 0)
        if M < 1:
            raise ConfigError("'mode' selection needs 'M'")
        mode = _int_value(config, "mode", 0)
        if not 1 <= mode <= M:
            raise ConfigError(f"invalid mode index {mode} for M={M}")
        lam = ring_lams(kind, M, [mode])[0]
    else:
        lam = _float_value(config, "lam", 0.5)
    eta_min = _float_value(config, "eta_min", 0.0)
    eta_max = _float_value(config, "eta_max", 1.0)
    steps = _int_value(config, "steps", 200)
    if steps < 1 or not eta_max > eta_min:
        raise ConfigError("need steps >= 1 and eta_max > eta_min")

    grid = np.linspace(eta_min, eta_max, steps + 1)
    rows = []
    # one eigvalsh call per chunk; map keeps no chunk alive once it is solved
    for levels in map(np.linalg.eigvalsh, ring_stack(kind, [lam], N, grid, phi, t)):
        rows.extend([float(eta)] + list(row) for eta, row in zip(grid[len(rows) :], levels))
    header = ["eta"] + [f"e{i}" for i in range(1, N + 1)]
    path = _out_path(config, "spectrum.csv")
    atomic_write_text(path, csv_text(header, rows))
    print(f"spectrum: lambda={fmt_float(lam)} N={N} rows={steps + 1}")
    print(f"wrote {path}")
    if config.get("dump_blocks"):
        if "M" not in config.data:
            raise ConfigError("'dump_blocks' needs a full model; provide 'M'")
        spec = _build_model(config, kind, _int_value(config, "M", 0), N, 1.0, phi)
        _maybe_dump_blocks(config, spec)
    return 0


def cmd_sweep(config: RunConfig) -> int:
    spec = _build_model(config, "honeycomb", 7, 20, 0.0, math.pi / 4)
    convention = config.get("convention", "cells")
    eta_min, eta_max = (
        _float_value(config, key, 0.0) if key in config.data else None for key in ("eta_min", "eta_max")
    )
    lo, hi = _sweep_range(spec, eta_min, eta_max, convention)
    result = sweep(spec, lo, hi, _steps_value(config, DEFAULT_STEPS), convention)
    path = _out_path(config, "sweep.csv")
    atomic_write_text(path, sweep_to_csv(result))
    print(f"sweep: eta_m={fmt_float(result.eta_m)} peak={fmt_float(result.peak)} flags={list(result.flags)}")
    if result.eta_m_analytic is not None:
        print(
            f"sweep (analytic): eta_m={fmt_float(result.eta_m_analytic)} "
            f"peak={fmt_float(result.peak_analytic)}"
        )
    print(f"wrote {path}")
    _maybe_dump_blocks(config, spec)
    return 0


def cmd_scaling(config: RunConfig) -> int:
    M = _int_value(config, "M", 7)
    phi = _resolve_phi(config, math.pi / 4)
    n_list = _n_list_value(config, [8, 12, 16, 20, 24])
    if M < 3:
        raise ConfigError(f"need M >= 3, got {M}")
    if math.sin(phi) == 0.0:
        raise ConfigError("scaling needs sin(phi) != 0 (otherwise the transition is first order)")
    bad = [n for n in n_list if n % 4 != 0 or n < 4]
    if bad:
        raise ConfigError(f"ring lengths must be positive multiples of 4, got {bad}")
    report = scaling_scan(
        M=M,
        phi=phi,
        t=_float_value(config, "t", 1.0),
        n_list=n_list,
        steps=_steps_value(config, 128),
        convention=config.get("convention", "cells"),
    )
    path = _out_path(config, "scaling.json")
    atomic_write_text(path, json_text(scaling_to_json_dict(report)))
    print(
        f"scaling: eta_m fit slope={fmt_float(report.fit_eta.slope)} r2={fmt_float(report.fit_eta.r2)}; "
        f"peak fit slope={fmt_float(report.fit_peak.slope)} r2={fmt_float(report.fit_peak.r2)}"
    )
    print(f"wrote {path}")
    return 0


def cmd_fidelity(config: RunConfig) -> int:
    lam = _float_value(config, "lam", 0.5)
    N = _int_value(config, "N", 20)
    t = _float_value(config, "t", 1.0)
    phi = _resolve_phi(config, math.pi / 4)
    convention = config.get("convention", "cells")
    try:
        c = corner_coupling(lam, N, convention)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    eta_center = _float_value(config, "eta_center", c * math.cos(phi))
    need_defaults = "delta_min" not in config.data or "delta_max" not in config.data
    if need_defaults and c == 0.0:
        raise ConfigError("lambda = 0 has no natural delta scale; give delta_min and delta_max")
    delta_min = _float_value(config, "delta_min", abs(c) / 100.0)
    delta_max = _float_value(config, "delta_max", 10.0 * abs(c))
    delta_steps = _int_value(config, "delta_steps", 25)
    if not (0.0 < delta_min < delta_max) or delta_steps < 2:
        raise ConfigError("need 0 < delta_min < delta_max and delta_steps >= 2")
    deltas = np.geomspace(delta_min, delta_max, delta_steps)
    curve = fidelity_exact(lam, N, phi, t, eta_center, deltas, convention)
    path = _out_path(config, "fidelity.csv")
    atomic_write_text(path, fidelity_to_csv(curve))
    print(f"fidelity: eta_center={fmt_float(curve.eta_center)} deltas={delta_steps}")
    print(f"wrote {path}")
    return 0


def cmd_square(config: RunConfig) -> int:
    M = _int_value(config, "M", 3)
    t = _float_value(config, "t", 1.0)
    phi = _resolve_phi(config, math.pi / 4)
    n_sorted = sorted(set(_n_list_value(config, [8, 16, 32])))
    steps = _steps_value(config, 128)
    convention = config.get("convention", "cells")
    try:
        specs = [ModelSpec("square", M, n, t, 0.0, phi) for n in n_sorted]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    eta_min, eta_max = _sweep_range(
        specs[0], _float_value(config, "eta_min", 0.0), _float_value(config, "eta_max", 1.0), convention
    )

    peaks = []
    flags = {}
    for spec in specs:
        result = sweep(spec, eta_min, eta_max, steps, convention)
        peaks.append(abs(result.peak))
        flags[str(spec.N)] = list(result.flags)
        path = _out_path(config, f"sweep_square_N{spec.N}.csv")
        atomic_write_text(path, sweep_to_csv(result))
        print(f"wrote {path}")
    ratio = max(peaks) / min(peaks) if min(peaks) > 0 else None
    report = {
        "m": M,
        "n_values": n_sorted,
        "peak_abs": peaks,
        "flatness_ratio": ratio,
        "no_divergence": bool(ratio is not None and ratio <= 2.0),
        "flags": flags,
    }
    path = _out_path(config, "square_report.json")
    atomic_write_text(path, json_text(report))
    ratio_text = "n/a" if ratio is None else fmt_float(ratio)
    print(f"square: peak ratio across N={n_sorted} is {ratio_text}")
    print(f"wrote {path}")
    return 0


def cmd_validate(config: RunConfig) -> int:
    tolerances = config.get("tolerances")
    if tolerances is not None and not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object mapping check names to numbers")
    try:
        report = run_validation(config.get("convention", "cells"), tolerances)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = _out_path(config, "validate.json")
    atomic_write_text(path, json_text(report))
    for entry in report["checks"]:
        status = "PASS" if entry["pass"] else "FAIL"
        print(
            f"{status} {entry['name']}: measured={fmt_float(entry['measured'])} "
            f"tolerance={fmt_float(entry['tolerance'])}"
        )
    overall = "PASS" if report["pass"] else "FAIL"
    print(f"{overall} ({len(report['checks'])} checks, {report['runtime_s']:.2f} s)")
    print(f"wrote {path}")
    return 0 if report["pass"] else 1


_RUNNERS = {
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "scaling": cmd_scaling,
    "fidelity": cmd_fidelity,
    "square": cmd_square,
    "validate": cmd_validate,
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-qpt",
        description="Boundary-coupling phase transition diagnostics for flux-threaded tight-binding tori.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    descriptions = {
        "spectrum": "band levels of one momentum block over an eta grid",
        "sweep": "ground-state curvature sweep over eta",
        "scaling": "finite-size scaling fits of the curvature peak",
        "fidelity": "midgap fidelity versus delta",
        "square": "square-lattice flatness report",
        "validate": "run the self-check suite",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, settings, help_text, _ in OPTIONS:
            if settings is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **settings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_data = None
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    file_data = json.load(handle)
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
            if not isinstance(file_data, dict):
                raise ConfigError("config file must contain a JSON object")
        overrides = {key: getattr(args, key) for key, *_ in OPTIONS if getattr(args, key, None) is not None}
        config = parse_config(args.command, file_data, overrides)
        return _RUNNERS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
