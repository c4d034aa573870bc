"""Command-line surface: flags, dispatch, and file emission.

`torus-qpt --help` lists the commands and the files each writes
(build_parser's descriptions). Flags are the one input. OPTIONS is
argparse's table: it lists every flag once, with its argparse settings,
its help text and the commands that accept it. argparse types and checks
each flag's text (a converter below, or a choice), parse_config rejects
a flag its command does not accept, and a command reads the typed values
from parse_config's dict. A command rejects a value that nothing would
read (`_needs`). Outputs are written atomically into --out (default:
current directory) with fixed float formatting, so identical flags
produce byte-identical files. Every energy a command writes is in units
of the hopping t, so no flag sets it.

Exit codes: 0 success. 2 the input was rejected before any work: a flag's
text that argparse rejects (an unknown choice, or a converter's reason: a
non-integral count, NaN or +-inf), or any ValueError (a flag its command
does not accept, a value nothing would read, the library's own domain
checks: ModelSpec, sweep's grid, scaling_scan's ring lengths).
1 a computation or check failed: RuntimeError, LinAlgError, a failing
validate check, or FloatingPointError (NumPy raises on overflow, invalid
values and division by zero in every command: an output past double range).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .blocks import blocks_to_csv, ring_lams, sin_cos
from .criticality import fidelity_exact, scaling_scan, sweep, sweep_to_csv
from .eigensolve import ring_levels
from .models import KINDS, ModelSpec
from .output import atomic_write_text, csv_text, fmt_float, json_text
from .ssh import analytic_curvature, corner_coupling, fidelity_perturbative
from .validate import CONVENTIONS, run_validation

COMMANDS = ("spectrum", "sweep", "scaling", "fidelity", "square", "validate")


# Converters: argparse calls each with a flag's text, and prints the message
# of the ArgumentTypeError it raises after the flag's name.


def integer(text: str) -> int:
    digits = text.strip().lstrip("+-")
    if digits.isdecimal() and len(text.strip()) - len(digits) <= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def number(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def ring_lengths(text: str) -> list[int]:
    """A comma-separated list of integers ("8,12," too), not empty."""
    parts = [part for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"no ring length in {text!r}")
    return [integer(part) for part in parts]


# argparse's table: key (the flag is --key with '-' for '_'), argparse
# settings, help text, and the commands that accept the key. Every command
# parses every flag; parse_config rejects a key that its command does not accept.
_MODEL = ("spectrum", "sweep")
_FLUX = ("spectrum", "sweep", "scaling", "fidelity", "square")
_GRID = ("spectrum", "sweep", "square")
_STEPS = ("spectrum", "sweep", "scaling", "square")
OPTIONS = (
    ("out", {}, "output directory (default: current directory)", COMMANDS),
    ("kind", {"choices": KINDS}, "lattice kind", _MODEL),
    ("M", {"type": integer}, "number of rows", _STEPS),
    ("N", {"type": integer}, "ring length", ("spectrum", "sweep", "fidelity")),
    ("eta", {"type": number}, "boundary coupling", _MODEL),
    ("phi", {"type": number}, "flux phase in radians", _FLUX),
    ("phi_over_pi", {"type": number}, "flux phase as a fraction of pi", _FLUX),
    ("eta_min", {"type": number}, "sweep grid start", _GRID),
    ("eta_max", {"type": number}, "sweep grid end", _GRID),
    ("steps", {"type": integer}, "number of grid steps", _STEPS),
    ("convention", {"choices": CONVENTIONS},
     "corner exponent convention of the self-checks ('sites' fails them by design)", ("validate",)),
    ("lam", {"type": number}, "ring coupling lambda (block selection)", ("spectrum", "fidelity")),
    ("mode", {"type": integer}, "momentum mode index m (block selection, needs --M)", ("spectrum",)),
    ("n_list", {"type": ring_lengths}, "comma-separated ring lengths", ("scaling", "square")),
    ("eta_center", {"type": number}, "fidelity center eta", ("fidelity",)),
    ("delta_min", {"type": number}, "smallest delta", ("fidelity",)),
    ("delta_max", {"type": number}, "largest delta", ("fidelity",)),
    ("delta_steps", {"type": integer}, "number of delta points", ("fidelity",)),
    ("dump_blocks", {"action": "store_const", "const": True}, "also write blocks.csv with all momentum blocks", _MODEL),
)


def parse_config(command: str, flags: dict) -> dict:
    """The typed flags given to `command`, key -> value, once checked: a key
    the command does not accept, or both flux forms at once, raise ValueError."""
    unknown = set(flags) - {key for key, *_, commands in OPTIONS if command in commands}
    if unknown:
        raise ValueError(f"keys not used by command {command!r}: {sorted(unknown)}")
    if "phi" in flags and "phi_over_pi" in flags:
        raise ValueError("provide exactly one of 'phi' and 'phi_over_pi'")
    return flags


def _resolve_phi(config: dict, default: float) -> float:
    if "phi_over_pi" in config:
        return config["phi_over_pi"] * math.pi
    return config.get("phi", default)


def _build_model(config: dict, kind: str, M: int, N: int, eta: float, phi_default: float) -> ModelSpec:
    return ModelSpec(
        kind=config.get("kind", kind),
        M=config.get("M", M),
        N=config.get("N", N),
        eta=config.get("eta", eta),
        phi=_resolve_phi(config, phi_default),
    )


def _needs(config: dict, key: str, *keys: str) -> None:
    """ValueError when `key` is given but none of `keys` is."""
    if key in config and not any(other in config for other in keys):
        raise ValueError(f"{key!r} needs {' or '.join(map(repr, keys))}")


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
        raise ValueError("select the block via either 'lam' or 'mode', not both")
    _needs(config, "mode", "M")
    _needs(config, "M", "mode", "dump_blocks")  # the one ring reads M only through 'mode'
    _needs(config, "eta", "dump_blocks")  # and eta not at all: the grid replaces it
    _needs(config, "dump_blocks", "M")
    if "mode" in config:
        M, mode = config["M"], config["mode"]
        if not 1 <= mode <= M:
            raise ValueError(f"invalid mode index {mode} for M={M}")
        lam = ring_lams(kind, M, [mode])[0]
    else:
        lam = config.get("lam", 0.5)
    eta_min, eta_max, steps = config.get("eta_min", 0.0), config.get("eta_max", 1.0), config.get("steps", 200)
    if steps < 1 or not eta_max > eta_min:
        raise ValueError("need steps >= 1 and eta_max > eta_min")
    spec = _build_model(config, kind, 0, N, 1.0, phi) if "dump_blocks" in config else None

    grid = np.linspace(eta_min, eta_max, steps + 1)
    levels = ring_levels(kind, [lam], N, grid, phi)[:, 0]
    blocks = None if spec is None else blocks_to_csv(spec)  # before any file is written: it can fail
    rows = [[float(eta)] + list(row) for eta, row in zip(grid, levels)]
    header = ["eta"] + [f"e{i}" for i in range(1, N + 1)]
    _publish(config, "spectrum.csv", csv_text(header, rows),
             f"spectrum: lambda={fmt_float(lam)} N={N} rows={steps + 1}")
    if blocks is not None:
        _publish(config, "blocks.csv", blocks)
    return 0


def cmd_sweep(config: dict) -> int:
    _needs(config, "eta", "dump_blocks")  # the sweep's grid does not read eta
    spec = _build_model(config, "honeycomb", 7, 20, 0.0, math.pi / 4)
    result = sweep(spec, config.get("eta_min"), config.get("eta_max"), config.get("steps"))
    d2_analytic, extremum = analytic_curvature(spec, result.eta_grid)
    blocks = blocks_to_csv(spec) if "dump_blocks" in config else None  # before any file is written: it can fail
    summary = [f"sweep: eta_m={fmt_float(result.eta_m)} peak={fmt_float(result.peak)} flags={list(result.flags)}"]
    if extremum is not None:
        summary.append(f"sweep (analytic): eta_m={fmt_float(extremum[0])} peak={fmt_float(extremum[1])}")
    _publish(config, "sweep.csv", sweep_to_csv(result, d2_analytic), *summary)
    if blocks is not None:
        _publish(config, "blocks.csv", blocks)
    return 0


def cmd_scaling(config: dict) -> int:
    report = scaling_scan(
        M=config.get("M", 7),
        phi=_resolve_phi(config, math.pi / 4),
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
    c = corner_coupling(lam, N)
    if c == 0.0 and not ("delta_min" in config and "delta_max" in config):
        raise ValueError(f"the corner coupling c = lambda^(N/2) is 0 (lambda={fmt_float(lam)}, N={N}): "
                          "no natural delta scale; give delta_min and delta_max")
    delta_min, delta_max = config.get("delta_min", abs(c) / 100.0), config.get("delta_max", 10.0 * abs(c))
    delta_steps = config.get("delta_steps", 25)
    if not (0.0 < delta_min < delta_max) or delta_steps < 2:
        raise ValueError("need 0 < delta_min < delta_max and delta_steps >= 2")
    deltas = np.geomspace(delta_min, delta_max, delta_steps)
    eta_center = config.get("eta_center", c * sin_cos(phi)[1])
    f_exact = fidelity_exact(lam, N, phi, eta_center, deltas)
    f_pert = fidelity_perturbative(lam, N, eta_center, deltas, phi)
    _publish(config, "fidelity.csv", csv_text(["delta", "f_exact", "f_perturbative"], zip(deltas, f_exact, f_pert)),
             f"fidelity: eta_center={fmt_float(eta_center)} deltas={delta_steps}")
    return 0


def cmd_square(config: dict) -> int:
    M = config.get("M", 3)
    n_sorted = sorted(set(config.get("n_list", [8, 16, 32])))
    phi = _resolve_phi(config, math.pi / 4)
    specs = [ModelSpec("square", M, n, 0.0, phi) for n in n_sorted]
    grid = (config.get("eta_min", 0.0), config.get("eta_max", 1.0), config.get("steps", 128))

    # every sweep runs, and every file's text is built, before any file is written: any of them can fail
    results = [sweep(spec, *grid) for spec in specs]
    peaks = [abs(result.peak) for result in results]
    flags = {str(spec.N): list(result.flags) for spec, result in zip(specs, results)}
    # the square lattice has no closed form: analytic_curvature's column is NaN
    texts = [sweep_to_csv(result, analytic_curvature(spec, result.eta_grid)[0]) for spec, result in zip(specs, results)]
    for spec, text in zip(specs, texts):
        _publish(config, f"sweep_square_N{spec.N}.csv", text)
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
    report = run_validation(config.get("convention", "cells"))
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
    for key, settings, help_text, _ in OPTIONS:
        common.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **settings)
    for name in COMMANDS:
        sub.add_parser(name, help=descriptions[name], parents=[common])
    return parser


def main(argv=None) -> int:
    """Run one command. Exit 2 when the input is rejected (by argparse, or any
    ValueError) or --out cannot be written (OSError), 1 when a computation or
    check fails (RuntimeError, LinAlgError, FloatingPointError)."""
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.command, {key: getattr(args, key) for key, *_ in OPTIONS
                                             if getattr(args, key) is not None})
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
