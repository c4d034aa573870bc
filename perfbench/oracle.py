"""Independent output oracle for the benchmark.

The oracle never imports ``torus_qpt``. It rebuilds the momentum ring blocks
and the full honeycomb/square tori from the definitions in the README with
plain NumPy index arrays, and checks the data files a CLI command wrote
against them. All checks run outside the benchmark's timed region.

Tolerances, in units of the hopping t (every workload uses t = 1):

* ``e_g`` (sweep files): |file - oracle| <= E_G_RTOL * sum|eps|, where sum|eps|
  is the sum of the absolute single-particle levels, the roundoff scale of
  the sum. On the README sweep this is 2e-10, well below a 1e-8 change.
  Lattices of at most FULL_LATTICE_MAX sites are diagonalized whole, larger
  ones block by block.
* ``d2_analytic``: relative E_D2_RTOL against the closed form
  -(t/Omega) c^2 sin^2(phi) / |eta e^{i phi} - c|^3 summed over the critical
  window, with Omega the squared norm of the unnormalized zero mode.
* ``spectrum.csv`` levels: LEVEL_ATOL absolute.
* ``fidelity.csv``: FIDELITY_ATOL absolute for both columns.
* ``scaling.json``: per ring length, eta_m within one grid step of the
  oracle's curvature argmax and ln|peak| within ln(1 + PEAK_RTOL) of the
  oracle's grid peak; fits within FIT_ATOL of an independent least-squares
  fit of the file's own points.
* grids (eta, delta): relative GRID_RTOL.

Files with more than ALL_ROWS_MAX rows are checked on ROW_SAMPLE rows that
the workload seed picks (always including the first and last row); smaller
files are checked row by row. ``d2_numeric`` and the summary extremum that
``sweep`` prints are not gated: at M=31 finite differences of E_g sit at the
roundoff floor, a known defect recorded in the project roadmap.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

E_G_RTOL = 1e-12
E_D2_RTOL = 1e-9
LEVEL_ATOL = 1e-11
FIDELITY_ATOL = 1e-9
FIT_ATOL = 1e-9
PEAK_RTOL = 0.01
GRID_RTOL = 1e-13

FULL_LATTICE_MAX = 256
ALL_ROWS_MAX = 256
ROW_SAMPLE = 40


# ---------------------------------------------------------------------------
# command-line parameters, with the CLI's documented defaults


def parse_flags(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Split ``[command, --key, value, ...]`` into the command and a flag map."""
    command, rest = argv[0], argv[1:]
    if len(rest) % 2:
        raise ValueError(f"expected --key value pairs, got {rest}")
    flags = {}
    for key, value in zip(rest[::2], rest[1::2]):
        if not key.startswith("--"):
            raise ValueError(f"expected a --flag, got {key!r}")
        flags[key[2:].replace("-", "_")] = value
    return command, flags


def _phi(flags: dict, default: float) -> float:
    if "phi" in flags:
        return float(flags["phi"])
    if "phi_over_pi" in flags:
        return float(flags["phi_over_pi"]) * math.pi
    return default


def _n_list(flags: dict, default: list[int]) -> list[int]:
    if "n_list" not in flags:
        return default
    return sorted({int(p) for p in flags["n_list"].split(",") if p.strip()})


# ---------------------------------------------------------------------------
# builders


def honeycomb_lams(M: int) -> np.ndarray:
    return 2.0 * np.cos(np.pi * np.arange(1, M + 1) / M)


def square_lams(M: int) -> np.ndarray:
    return 2.0 * np.cos(2.0 * np.pi * np.arange(1, M + 1) / M)


def critical_lams(M: int) -> np.ndarray:
    """lambda_m for the modes with M < 3m < 2M (|lambda| < 1, edges excluded)."""
    m = np.array([m for m in range(1, M + 1) if M < 3 * m < 2 * M], dtype=np.int64)
    return 2.0 * np.cos(np.pi * m / M)


def rings(kind: str, lams, N: int, eta: float, phi: float, t: float) -> np.ndarray:
    """Stack of N x N ring blocks, one per lambda."""
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    H = np.zeros((lams.size, N, N), dtype=np.complex128)
    bond = np.arange(N - 1)
    if kind == "honeycomb":
        amp = np.where(bond % 2 == 0, lams[:, None] * t, -t)
    else:
        amp = np.full((lams.size, N - 1), -t)
        H[:, np.arange(N), np.arange(N)] = -lams[:, None] * t
    H[:, bond, bond + 1] = amp
    H[:, bond + 1, bond] = amp
    boundary = -eta * t * np.exp(1j * phi)
    H[:, N - 1, 0] += boundary
    H[:, 0, N - 1] += np.conj(boundary)
    return H


def torus(kind: str, M: int, N: int, eta: float, phi: float, t: float) -> np.ndarray:
    """Full M*N-site torus; site (m, n) (0-based) has index m*N + n."""
    H = np.zeros((M * N, M * N), dtype=np.complex128)

    def bond(i, j, amp):
        np.add.at(H, (i, j), amp)
        np.add.at(H, (j, i), np.conj(amp))

    rows = np.arange(M)[:, None]
    cols = np.arange(N - 1)[None, :]
    along = (rows * N + cols).ravel()
    bond(along, along + 1, -t)
    bond(np.arange(M) * N + N - 1, np.arange(M) * N, -eta * t * np.exp(1j * phi))
    up = (np.arange(M) + 1) % M
    if kind == "honeycomb":
        cell = np.arange(N // 4)
        # 1-based column pairs (4j, 4j-1) and (4j-3, 4j-2) stitch row m to m+1
        lower = np.concatenate([4 * cell + 3, 4 * cell])
        upper = np.concatenate([4 * cell + 2, 4 * cell + 1])
    else:
        lower = upper = np.arange(N)
    bond((np.arange(M)[:, None] * N + lower).ravel(), (up[:, None] * N + upper).ravel(), -t)
    return H


def ground_energy(kind: str, M: int, N: int, eta: float, phi: float, t: float) -> tuple[float, float]:
    """Half-filled E_g (sum of negative levels) and sum|eps| for its tolerance."""
    if M * N <= FULL_LATTICE_MAX:
        levels = np.linalg.eigvalsh(torus(kind, M, N, eta, phi, t))
    else:
        lams = honeycomb_lams(M) if kind == "honeycomb" else square_lams(M)
        levels = np.linalg.eigvalsh(rings(kind, lams, N, eta, phi, t)).ravel()
    return float(levels[levels < 0.0].sum()), float(np.abs(levels).sum())


def block_energy_curve(M: int, N: int, phi: float, t: float, grid: np.ndarray) -> np.ndarray:
    lams = honeycomb_lams(M)
    out = np.empty(grid.size)
    for i, eta in enumerate(grid):
        levels = np.linalg.eigvalsh(rings("honeycomb", lams, N, float(eta), phi, t))
        out[i] = levels[levels < 0.0].sum()
    return out


def zero_mode_norm(lam: float, N: int) -> float:
    """Squared norm of the unnormalized zero mode (1, lam, lam^2, ...) on N/2 cells."""
    return float(np.sum(lam ** (2.0 * np.arange(N // 2))))


def d2_closed_form(M: int, N: int, eta: float, phi: float, t: float) -> float:
    """Second eta-derivative of the summed perturbative lower midgap levels."""
    s2 = math.sin(phi) ** 2
    total = 0.0
    for lam in critical_lams(M):
        c = float(lam) ** (N // 2)
        if c == 0.0:
            continue
        absz = abs(eta * complex(math.cos(phi), math.sin(phi)) - c)
        total -= t * c * c * s2 / (zero_mode_norm(float(lam), N) * absz ** 3)
    return total


def default_eta_range(M: int, N: int, phi: float) -> tuple[float, float]:
    corners = [abs(float(lam) ** (N // 2)) for lam in critical_lams(M)]
    hi = 3.0 * max(corners) * math.cos(phi) if corners else 0.0
    return (0.0, min(hi, 1.0)) if hi > 0.0 else (0.0, 1.0)


# ---------------------------------------------------------------------------
# file readers and helpers


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows; a ragged or non-numeric row raises ValueError."""
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise ValueError("file does not end with a newline (truncated?)")
    lines = text.split("\n")[:-1]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("a row has the wrong number of fields")
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def pick_rows(n: int, seed: int) -> np.ndarray:
    if n <= ALL_ROWS_MAX:
        return np.arange(n)
    inner = np.random.default_rng(seed).choice(np.arange(1, n - 1), ROW_SAMPLE - 2, replace=False)
    return np.sort(np.concatenate([[0, n - 1], inner]))


def _grid_problems(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: {got.size} values, expected {want.size}"]
    scale = max(float(np.max(np.abs(want))), 1e-300)
    worst = float(np.max(np.abs(got - want))) / scale
    return [] if worst <= GRID_RTOL else [f"{name} grid deviates by {worst:.3g} (relative)"]


# ---------------------------------------------------------------------------
# per-file checks; each returns a list of problems (empty when the file passes)


def check_sweep_csv(path: Path, kind: str, M: int, N: int, t: float, phi: float,
                    eta_range: tuple[float, float], steps: int, seed: int) -> list[str]:
    header, data = read_csv(path)
    if header != ["eta", "e_g", "d2_numeric", "d2_analytic"]:
        return [f"unexpected header {header}"]
    problems = _grid_problems("eta", data[:, 0], np.linspace(*eta_range, steps + 1))
    if problems:
        return problems
    for i in pick_rows(len(data), seed):
        eta, e_g, _, d2 = (float(x) for x in data[i])
        want, scale = ground_energy(kind, M, N, float(eta), phi, t)
        if not abs(e_g - want) <= E_G_RTOL * scale:
            problems.append(f"row {i}: e_g={e_g!r}, oracle {want!r} (tolerance {E_G_RTOL * scale:.3g})")
        if kind == "square":
            if not math.isnan(d2):
                problems.append(f"row {i}: d2_analytic={d2!r}, expected nan for a square lattice")
            continue
        want = d2_closed_form(M, N, float(eta), phi, t)
        if not abs(d2 - want) <= E_D2_RTOL * abs(want):
            problems.append(f"row {i}: d2_analytic={d2!r}, oracle {want!r}")
    return problems


def check_spectrum_csv(path: Path, flags: dict, seed: int) -> list[str]:
    kind = flags.get("kind", "honeycomb")
    N = int(flags.get("N", 20))
    t = float(flags.get("t", 1.0))
    phi = _phi(flags, 0.0)
    if "mode" in flags:
        M, mode = int(flags["M"]), int(flags["mode"])
        lam = 2.0 * math.cos((1.0 if kind == "honeycomb" else 2.0) * math.pi * mode / M)
    else:
        lam = float(flags.get("lam", 0.5))
    steps = int(flags.get("steps", 200))
    grid = np.linspace(float(flags.get("eta_min", 0.0)), float(flags.get("eta_max", 1.0)), steps + 1)
    header, data = read_csv(path)
    if header != ["eta"] + [f"e{i}" for i in range(1, N + 1)]:
        return [f"unexpected header ({len(header)} columns)"]
    problems = _grid_problems("eta", data[:, 0], grid)
    if problems:
        return problems
    rows = pick_rows(len(data), seed)
    levels = np.linalg.eigvalsh(np.concatenate([rings(kind, [lam], N, float(data[i, 0]), phi, t) for i in rows]))
    worst = float(np.max(np.abs(data[rows, 1:] - levels)))
    if not worst <= LEVEL_ATOL * t:
        problems.append(f"levels deviate by {worst:.3g} on the checked rows")
    return problems


def check_sweep_command(out: Path, flags: dict, seed: int) -> list[str]:
    kind = flags.get("kind", "honeycomb")
    M, N = int(flags.get("M", 7)), int(flags.get("N", 20))
    phi = _phi(flags, math.pi / 4)
    lo, hi = default_eta_range(M, N, phi) if kind == "honeycomb" else (0.0, 1.0)
    eta_range = (float(flags.get("eta_min", lo)), float(flags.get("eta_max", hi)))
    return check_sweep_csv(out / "sweep.csv", kind, M, N, float(flags.get("t", 1.0)), phi,
                           eta_range, int(flags.get("steps", 200)), seed)


def _midgap_phase(lam: float, N: int, eta: float, phi: float) -> float:
    return math.atan2(eta * math.sin(phi), eta * math.cos(phi) - lam ** (N // 2))


def check_fidelity_csv(path: Path, flags: dict) -> list[str]:
    lam, N = float(flags.get("lam", 0.5)), int(flags.get("N", 20))
    t, phi = float(flags.get("t", 1.0)), _phi(flags, math.pi / 4)
    c = lam ** (N // 2)
    center = float(flags.get("eta_center", c * math.cos(phi)))
    deltas = np.sort(np.geomspace(float(flags.get("delta_min", abs(c) / 100.0)),
                                  float(flags.get("delta_max", 10.0 * abs(c))),
                                  int(flags.get("delta_steps", 25))))
    header, data = read_csv(path)
    if header != ["delta", "f_exact", "f_perturbative"]:
        return [f"unexpected header {header}"]
    problems = _grid_problems("delta", data[:, 0], deltas)
    if problems:
        return problems
    h = N // 2
    for i, delta in enumerate(deltas):
        # perturbative doublet vectors (a+ - e^{i theta} a-)/sqrt(2): overlap |cos(dtheta/2)|
        f_pert = abs(math.cos(0.5 * (_midgap_phase(lam, N, center + delta, phi)
                                     - _midgap_phase(lam, N, center - delta, phi))))
        pair = np.concatenate([rings("honeycomb", [lam], N, center - delta, phi, t),
                               rings("honeycomb", [lam], N, center + delta, phi, t)])
        (w1, w2), (v1, v2) = np.linalg.eigh(pair)
        if min(w1[h] - w1[h - 1], w2[h] - w2[h - 1]) <= 1e-9 * t:
            sub = v1[:, h - 1:h + 1].conj().T @ v2[:, h - 1:h + 1]
            f_exact = float(np.linalg.svd(sub, compute_uv=False)[-1])
        else:
            f_exact = float(abs(np.vdot(v1[:, h], v2[:, h])))
        for name, got, want in (("f_exact", data[i, 1], f_exact), ("f_perturbative", data[i, 2], f_pert)):
            if not abs(got - want) <= FIDELITY_ATOL:
                problems.append(f"row {i}: {name}={float(got)!r}, oracle {want!r}")
    return problems


def _ols(x, y) -> tuple[float, float, float]:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(dy @ dy)
    return slope, intercept, (1.0 - ss_res / ss_tot) if ss_tot else float(ss_res == 0.0)


def check_scaling_json(path: Path, flags: dict) -> list[str]:
    M, t, phi = int(flags.get("M", 7)), float(flags.get("t", 1.0)), _phi(flags, math.pi / 4)
    steps = int(flags.get("steps", 128))
    n_values = _n_list(flags, [8, 12, 16, 20, 24])
    report = json.loads(path.read_text(encoding="utf-8"))
    if report["n_values"] != n_values:
        return [f"n_values {report['n_values']} != {n_values}"]
    problems = []
    for N, ln_eta, ln_peak in zip(n_values, report["ln_eta_m"], report["ln_abs_peak"]):
        lo, hi = default_eta_range(M, N, phi)
        grid = np.linspace(lo, hi, steps + 1)
        h = (hi - lo) / steps
        energy = block_energy_curve(M, N, phi, t, grid)
        d2 = (energy[2:] - 2.0 * energy[1:-1] + energy[:-2]) / (h * h)
        i_star = int(np.argmax(np.abs(d2)))
        if not abs(math.exp(ln_eta) - grid[i_star + 1]) <= h * (1.0 + 1e-9):
            problems.append(f"N={N}: eta_m={math.exp(ln_eta)!r} not within one step of {grid[i_star + 1]!r}")
        if not abs(ln_peak - math.log(abs(d2[i_star]))) <= math.log1p(PEAK_RTOL):
            problems.append(f"N={N}: |peak|={math.exp(ln_peak)!r}, oracle grid peak {abs(d2[i_star])!r}")
    for fit, ys in (("fit_eta", report["ln_eta_m"]), ("fit_peak", report["ln_abs_peak"])):
        want = _ols(n_values, ys)
        got = (report[fit]["slope"], report[fit]["intercept"], report[fit]["r2"])
        if not all(abs(g - w) <= FIT_ATOL for g, w in zip(got, want)):
            problems.append(f"{fit}={got}, oracle {want}")
    return problems


def check_square_command(out: Path, flags: dict, seed: int) -> list[str]:
    M, t, phi = int(flags.get("M", 3)), float(flags.get("t", 1.0)), _phi(flags, math.pi / 4)
    n_values = _n_list(flags, [8, 16, 32])
    eta_range = (float(flags.get("eta_min", 0.0)), float(flags.get("eta_max", 1.0)))
    problems = []
    for N in n_values:
        csv = out / f"sweep_square_N{N}.csv"
        problems += [f"N={N}: {p}" for p in check_sweep_csv(csv, "square", M, N, t, phi, eta_range,
                                                            int(flags.get("steps", 128)), seed)]
    report = json.loads((out / "square_report.json").read_text(encoding="utf-8"))
    peaks = report["peak_abs"]
    if report["m"] != M or report["n_values"] != n_values or len(peaks) != len(n_values):
        return problems + ["square_report.json does not describe the requested sweeps"]
    ratio = max(peaks) / min(peaks) if min(peaks) > 0 else None
    got = report["flatness_ratio"]
    if (got is None) != (ratio is None) or (ratio is not None and not abs(got - ratio) <= 1e-12 * ratio) \
            or report["no_divergence"] != (ratio is not None and ratio <= 2.0):
        problems.append(f"flatness_ratio/no_divergence inconsistent with peak_abs {peaks}")
    return problems


def check_validate_json(path: Path, flags: dict) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = [f"check {c['name']}: pass={c['pass']} but measured={c['measured']!r} tolerance={c['tolerance']!r}"
                for c in report["checks"] if c["pass"] != (c["measured"] <= c["tolerance"])]
    if report["pass"] != all(c["pass"] for c in report["checks"]):
        problems.append("overall pass flag disagrees with the checks")
    if report["pass"] != (flags.get("convention", "cells") == "cells"):
        problems.append(f"overall pass={report['pass']} for convention {flags.get('convention', 'cells')}")
    return problems


def expected_files(argv: list[str]) -> list[str]:
    command, flags = parse_flags(argv)
    if command == "square":
        return ["square_report.json"] + [f"sweep_square_N{n}.csv" for n in _n_list(flags, [8, 16, 32])]
    return [{"spectrum": "spectrum.csv", "sweep": "sweep.csv", "scaling": "scaling.json",
             "fidelity": "fidelity.csv", "validate": "validate.json"}[command]]


def check_command(argv: list[str], out: Path, seed: int) -> list[str]:
    """Check every data file one CLI command wrote into ``out``."""
    command, flags = parse_flags(argv)
    missing = [name for name in expected_files(argv) if not (out / name).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    try:
        if command == "spectrum":
            return check_spectrum_csv(out / "spectrum.csv", flags, seed)
        if command == "sweep":
            return check_sweep_command(out, flags, seed)
        if command == "scaling":
            return check_scaling_json(out / "scaling.json", flags)
        if command == "fidelity":
            return check_fidelity_csv(out / "fidelity.csv", flags)
        if command == "square":
            return check_square_command(out, flags, seed)
        return check_validate_json(out / "validate.json", flags)
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def main(argv: list[str]) -> int:
    """``python oracle.py SEED`` reads [[argv, directory], ...] as JSON on stdin and
    prints the list of problems found for each command as JSON."""
    jobs = json.load(sys.stdin)
    print(json.dumps([check_command(cmd, Path(where), int(argv[0])) for cmd, where in jobs]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
