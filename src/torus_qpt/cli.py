"""Command-line surface: configuration, dispatch, and file emission.

`torus-qpt --help` lists the commands and the files each writes
(build_parser's descriptions). Configuration comes from an optional JSON
file (--config) plus flags that mirror the JSON keys one-to-one and take
precedence over the file. OPTIONS lists every key once, with its
converter, its flag settings and the commands that accept it. The
converter is the only place a value is typed and checked: argparse uses
it as the flag's type, parse_config applies it to every merged value,
and a command reads the typed values from parse_config's dict. A command
rejects a value that nothing would read (`_needs`). Outputs are written
atomically into --out (default: current directory) with fixed float
formatting, so identical configurations produce byte-identical files.

Exit codes: 0 success. 2 the input was rejected before any work: any
ValueError, ConfigError included, from a converter (a non-integral
count, NaN or +-inf, t <= 0, an unknown choice) or from the library's own
domain checks (ModelSpec, sweep's grid, scaling_scan's ring lengths).
1 a computation or check failed: RuntimeError, LinAlgError, a failing
validate check, or FloatingPointError (NumPy raises on overflow, invalid
values and division by zero in every command: an output past double range).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from .blocks import blocks_to_csv, ring_lams, ring_levels, sin_cos
from .criticality import DEFAULT_STEPS, fidelity_exact, scaling_scan, sweep, sweep_to_csv
from .models import KINDS, ModelSpec
from .output import atomic_write_text, csv_text, fmt_float, json_text
from .ssh import CONVENTIONS, analytic_curvature, corner_coupling, fidelity_perturbative
from .validate import run_validation

COMMANDS = ("spectrum", "sweep", "scaling", "fidelity", "square", "validate")


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2, like every ValueError)."""


# Converters: each types and checks one key's value, from a flag's text
# (argparse calls it with the text alone) or a config file's JSON value, and
# returns an already-converted value unchanged.


def integer(value, key: str = "value") -> int:
    if isinstance(value, str):
        digits = value.strip().lstrip("+-")
        if digits.isdecimal() and len(value.strip()) - len(digits) <= 1:
            return int(value)
    elif isinstance(value, float) and value.is_integer() or isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key!r} must be an integer, got {value!r}")


def number(value, key: str = "value") -> float:
    try:
        x = math.nan if isinstance(value, bool) or not isinstance(value, (int, float, str)) else float(value)
    except (ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    return x


def positive(value, key: str = "value") -> float:
    x = number(value, key)
    if not x > 0.0:
        raise ConfigError(f"{key!r} must be a positive number, got {value!r}")
    return x


def _one_of(name: str, choices: tuple[str, ...]):
    def convert(value, key: str = name) -> str:
        if value not in choices:
            raise ConfigError(f"{key!r} must be one of {choices}, got {value!r}")
        return value

    convert.__name__ = name  # argparse names the converter in its error message
    return convert


def _instance_of(cls: type, what: str):
    def convert(value, key: str = "value"):
        if not isinstance(value, cls):
            raise ConfigError(f"{key!r} must be {what}, got {value!r}")
        return value

    return convert


def ring_lengths(value, key: str = "value") -> list[int]:
    """A comma-separated list ("8,12,") or a JSON list of integers, not empty."""
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key!r} must be a non-empty list of integers, got {value!r}")
    return [integer(n, key) for n in value]


def tolerances(value, key: str = "value") -> dict:
    """Check name -> finite tolerance; run_validation rejects unknown names."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must map check names to numbers, got {value!r}")
    return {name: number(tol, f"{key}.{name}") for name, tol in value.items()}


# The option table: config key, converter, flag (None: config file only;
# True: argparse converts with the converter; otherwise the argparse settings),
# help text, and the commands that accept the key. Every command parses every
# flag; parse_config rejects a key that its command does not accept and
# converts every value it keeps.
_MODEL = ("spectrum", "sweep")
_FLUX = ("spectrum", "sweep", "scaling", "fidelity", "square")
_GRID = ("spectrum", "sweep", "square")
_STEPS = ("spectrum", "sweep", "scaling", "square")
OPTIONS = (
    ("out", _instance_of(str, "a string"), True, "output directory (default: current directory)", COMMANDS),
    ("kind", _one_of("kind", KINDS), True, f"lattice kind: {' or '.join(KINDS)}", _MODEL),
    ("M", integer, True, "number of rows", _STEPS),
    ("N", integer, True, "ring length", ("spectrum", "sweep", "fidelity")),
    ("t", positive, True, "hopping energy unit (> 0)", ("spectrum", "sweep", "scaling", "square")),
    ("eta", number, True, "boundary coupling", _MODEL),
    ("phi", number, True, "flux phase in radians", _FLUX),
    ("phi_over_pi", number, True, "flux phase as a fraction of pi", _FLUX),
    ("eta_min", number, True, "sweep grid start", _GRID),
    ("eta_max", number, True, "sweep grid end", _GRID),
    ("steps", integer, True, "number of grid steps", _STEPS),
    ("convention", _one_of("convention", CONVENTIONS), True,
     f"corner exponent convention of the perturbative comparison: {' or '.join(CONVENTIONS)}",
     ("sweep", "fidelity", "validate")),
    ("lam", number, True, "ring coupling lambda (block selection)", ("spectrum", "fidelity")),
    ("mode", integer, True, "momentum mode index m (block selection, needs --M)", ("spectrum",)),
    ("n_list", ring_lengths, {}, "comma-separated ring lengths", ("scaling", "square")),
    ("eta_center", number, True, "fidelity center eta", ("fidelity",)),
    ("delta_min", number, True, "smallest delta", ("fidelity",)),
    ("delta_max", number, True, "largest delta", ("fidelity",)),
    ("delta_steps", integer, True, "number of delta points", ("fidelity",)),
    ("dump_blocks", _instance_of(bool, "true or false"), {"action": "store_const", "const": True},
     "also write blocks.csv with all momentum blocks", _MODEL),
    ("tolerances", tolerances, None, "check name -> tolerance overrides", ("validate",)),
)
_CONVERTERS = {key: convert for key, convert, *_ in OPTIONS}


def parse_config(command: str, file_data: dict | None = None, overrides: dict | None = None) -> dict:
    """Merge config-file values with flag overrides, check keys, convert values;
    return the converted key-value dict.

    Flags win over file values. A flux given by flag (either 'phi' or
    'phi_over_pi') replaces any flux key from the file. Unknown keys,
    a command mismatch, both flux forms at once, or a value its
    converter rejects raise ConfigError.
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
    unknown = set(merged) - {key for key, *_, commands in OPTIONS if command in commands}
    if unknown:
        raise ConfigError(f"keys not used by command {command!r}: {sorted(unknown)}")
    if "phi" in merged and "phi_over_pi" in merged:
        raise ConfigError("provide exactly one of 'phi' and 'phi_over_pi'")
    return {key: _CONVERTERS[key](value, key) for key, value in merged.items()}


def _resolve_phi(config: dict, default: float) -> float:
    if "phi_over_pi" in config:
        return config["phi_over_pi"] * math.pi
    return config.get("phi", default)


def _build_model(config: dict, kind: str, M: int, N: int, eta: float, phi_default: float) -> ModelSpec:
    return ModelSpec(
        kind=config.get("kind", kind),
        M=config.get("M", M),
        N=config.get("N", N),
        t=config.get("t", 1.0),
        eta=config.get("eta", eta),
        phi=_resolve_phi(config, phi_default),
    )


def _needs(config: dict, key: str, *keys: str) -> None:
    """ConfigError when `key` is given (and not false) but none of `keys` is."""
    if config.get(key, False) is not False and all(config.get(other, False) is False for other in keys):
        raise ConfigError(f"{key!r} needs {' or '.join(map(repr, keys))}")


def _publish(config: dict, filename: str, text: str, *summary: str) -> None:
    """Write one output file atomically into --out, then print the command's
    summary lines and `wrote <path>`."""
    path = os.path.join(config.get("out", "."), filename)
    atomic_write_text(path, text)
    print(*summary, f"wrote {path}", sep="\n")


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(config: dict) -> int:
    kind = config.get("kind", "honeycomb")
    N = config.get("N", 20)
    phi = _resolve_phi(config, 0.0)
    if "lam" in config and "mode" in config:
        raise ConfigError("select the block via either 'lam' or 'mode', not both")
    _needs(config, "mode", "M")
    _needs(config, "M", "mode", "dump_blocks")  # the one ring reads M only through 'mode'
    _needs(config, "eta", "dump_blocks")  # and eta not at all: the grid replaces it
    _needs(config, "dump_blocks", "M")
    if "mode" in config:
        M, mode = config["M"], config["mode"]
        if not 1 <= mode <= M:
            raise ConfigError(f"invalid mode index {mode} for M={M}")
        lam = ring_lams(kind, M, [mode])[0]
    else:
        lam = config.get("lam", 0.5)
    eta_min, eta_max, steps = config.get("eta_min", 0.0), config.get("eta_max", 1.0), config.get("steps", 200)
    if steps < 1 or not eta_max > eta_min:
        raise ConfigError("need steps >= 1 and eta_max > eta_min")
    spec = _build_model(config, kind, 0, N, 1.0, phi) if config.get("dump_blocks") else None

    grid = np.linspace(eta_min, eta_max, steps + 1)
    levels = config.get("t", 1.0) * ring_levels(kind, [lam], N, grid, phi)[:, 0]
    rows = [[float(eta)] + list(row) for eta, row in zip(grid, levels)]
    header = ["eta"] + [f"e{i}" for i in range(1, N + 1)]
    _publish(config, "spectrum.csv", csv_text(header, rows),
             f"spectrum: lambda={fmt_float(lam)} N={N} rows={steps + 1}")
    if spec is not None:
        _publish(config, "blocks.csv", blocks_to_csv(spec))
    return 0


def cmd_sweep(config: dict) -> int:
    _needs(config, "eta", "dump_blocks")  # the sweep's grid does not read eta
    spec = _build_model(config, "honeycomb", 7, 20, 0.0, math.pi / 4)
    result = sweep(spec, config.get("eta_min"), config.get("eta_max"), config.get("steps", DEFAULT_STEPS))
    d2_analytic, extremum = analytic_curvature(spec, result.eta_grid, config.get("convention", "cells"))
    summary = [f"sweep: eta_m={fmt_float(result.eta_m)} peak={fmt_float(result.peak)} flags={list(result.flags)}"]
    if extremum is not None:
        summary.append(f"sweep (analytic): eta_m={fmt_float(extremum[0])} peak={fmt_float(extremum[1])}")
    _publish(config, "sweep.csv", sweep_to_csv(result, d2_analytic), *summary)
    if config.get("dump_blocks"):
        _publish(config, "blocks.csv", blocks_to_csv(spec))
    return 0


def cmd_scaling(config: dict) -> int:
    report = scaling_scan(
        M=config.get("M", 7),
        phi=_resolve_phi(config, math.pi / 4),
        t=config.get("t", 1.0),
        n_list=config.get("n_list", [8, 12, 16, 20, 24]),
        steps=config.get("steps", 128),
    )
    fit_eta, fit_peak = report["fit_eta"], report["fit_peak"]
    _publish(
        config, "scaling.json", json_text(report),
        f"scaling: eta_m fit slope={fmt_float(fit_eta['slope'])} r2={fmt_float(fit_eta['r2'])}; "
        f"peak fit slope={fmt_float(fit_peak['slope'])} r2={fmt_float(fit_peak['r2'])}",
    )
    return 0


def cmd_fidelity(config: dict) -> int:
    lam, N, phi = config.get("lam", 0.5), config.get("N", 20), _resolve_phi(config, math.pi / 4)
    c = corner_coupling(lam, N)  # the physical corner: convention selects only f_perturbative
    if c == 0.0 and not ("delta_min" in config and "delta_max" in config):
        raise ConfigError("lambda = 0 has no natural delta scale; give delta_min and delta_max")
    delta_min, delta_max = config.get("delta_min", abs(c) / 100.0), config.get("delta_max", 10.0 * abs(c))
    delta_steps = config.get("delta_steps", 25)
    if not (0.0 < delta_min < delta_max) or delta_steps < 2:
        raise ConfigError("need 0 < delta_min < delta_max and delta_steps >= 2")
    deltas = np.geomspace(delta_min, delta_max, delta_steps)
    eta_center = config.get("eta_center", c * sin_cos(phi)[1])
    f_exact = fidelity_exact(lam, N, phi, eta_center, deltas)
    f_pert = fidelity_perturbative(lam, N, eta_center, deltas, phi, config.get("convention", "cells"))
    _publish(config, "fidelity.csv", csv_text(["delta", "f_exact", "f_perturbative"], zip(deltas, f_exact, f_pert)),
             f"fidelity: eta_center={fmt_float(eta_center)} deltas={delta_steps}")
    return 0


def cmd_square(config: dict) -> int:
    M = config.get("M", 3)
    n_sorted = sorted(set(config.get("n_list", [8, 16, 32])))
    phi = _resolve_phi(config, math.pi / 4)
    specs = [ModelSpec("square", M, n, config.get("t", 1.0), 0.0, phi) for n in n_sorted]
    # the first sweep checks the grid, shared by every N, before any file is written
    grid = (config.get("eta_min", 0.0), config.get("eta_max", 1.0), config.get("steps", 128))

    peaks = []
    flags = {}
    for spec in specs:
        result = sweep(spec, *grid)
        peaks.append(abs(result.peak))
        flags[str(spec.N)] = list(result.flags)
        nan_column = analytic_curvature(spec, result.eta_grid)[0]  # the square lattice has no closed form
        _publish(config, f"sweep_square_N{spec.N}.csv", sweep_to_csv(result, nan_column))
    ratio = max(peaks) / min(peaks) if min(peaks) > 0 else None
    report = {
        "m": M,
        "n_values": n_sorted,
        "peak_abs": peaks,
        "flatness_ratio": ratio,
        "no_divergence": bool(ratio is not None and ratio <= 2.0),
        "flags": flags,
    }
    ratio_text = "n/a" if ratio is None else fmt_float(ratio)
    _publish(config, "square_report.json", json_text(report),
             f"square: peak ratio across N={n_sorted} is {ratio_text}")
    return 0


def cmd_validate(config: dict) -> int:
    report = run_validation(config.get("convention", "cells"), config.get("tolerances"))
    lines = [
        f"{'PASS' if entry['pass'] else 'FAIL'} {entry['name']}: measured={fmt_float(entry['measured'])} "
        f"tolerance={fmt_float(entry['tolerance'])}"
        for entry in report["checks"]
    ]
    overall = "PASS" if report["pass"] else "FAIL"
    lines.append(f"{overall} ({len(report['checks'])} checks, {report['runtime_s']:.2f} s)")
    _publish(config, "validate.json", json_text(report), *lines)
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
        "spectrum": "band levels of one momentum block over an eta grid -> spectrum.csv",
        "sweep": "ground-state curvature sweep over eta -> sweep.csv",
        "scaling": "finite-size scaling fits of the curvature peak -> scaling.json",
        "fidelity": "midgap fidelity versus delta -> fidelity.csv",
        "square": "square-lattice flatness report -> square_report.json and sweep_square_N*.csv",
        "validate": "run the self-check suite -> validate.json; exit 1 on any failure",
    }
    # every command takes every flag: register them once, on a parent that each subparser copies
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    for key, convert, flag, help_text, _ in OPTIONS:
        if flag is not None:
            settings = {"type": convert} if flag is True else flag
            common.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **settings)
    for name in COMMANDS:
        sub.add_parser(name, help=descriptions[name], parents=[common])
    return parser


def main(argv=None) -> int:
    """Run one command. Exit 2 when the input is rejected (any ValueError,
    ConfigError included, or an unreadable file), 1 when a computation or
    check fails (RuntimeError, LinAlgError, FloatingPointError)."""
    args = build_parser().parse_args(argv)
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
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _RUNNERS[args.command](config)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError: test it first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry point (console script and `python -m torus_qpt`): main,
    then gc.freeze(), so the interpreter's final collections skip every object
    NumPy and the package made; the process exit frees them. Exit still runs
    atexit handlers, flushes stdio and keeps main's exit code. Frozen cycles
    are never collected, which is safe because the package defines no __del__
    and closes every file before os.replace. In-process callers (tests, the
    benchmark's tracer) call main, which leaves the collector alone."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
