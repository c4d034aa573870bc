"""Run the command lines of cli_lines.txt, and compare the outputs of two runs.

    python tests/outputs.py run [--src DIR] [--tag TAG] [--console-script] [--allow FILE] OUT
    python tests/outputs.py compare [--tag TAG] [--allow FILE] A B

`run` executes each row of the table (only those tagged TAG, if given) as
`python -m torus_qpt <arguments> --out out` in a fresh process, with the
package imported from DIR (default: the src/ next to this directory), or
through the installed `torus-qpt` console script; rows tagged `stress` or
`fails` run with PYTHONWARNINGS=error::RuntimeWarning. Row k runs in OUT/kk/,
which keeps `row` (its table line), `exit`, `stdout`, `stderr` and, under
`out/`, the files the command wrote. Then it checks what the table says of
each row (see its header) and exits 1 when a row breaks it. A row that the
--allow file names (see below) is a row the parent commit runs differently:
what it breaks is reported as allowed, and no tag's measure reads it.

`compare` reports each row of A and B as identical or not. It compares the
exit code, stdout (masking the seconds of `validate`'s `(N checks, X s)`
line), stderr, the set of files written, and each file's bytes;
`validate.json` is compared without `runtime_s`. A differing CSV file is
reported per column, a differing JSON file per numeric key, each with its
largest absolute and relative deviation. It exits 1 on any difference,
except in files whose names match a glob pattern of the --allow file (one
pattern per line; `#` starts a comment): those are still reported. When
every differing file of a row is allow-listed, stdout lines that match
apart from their numbers are allowed too, and each number that moved is
reported with its absolute and relative deviation. A line `row: <arguments
as in the table>` of the --allow file names a row: every difference of
that row is allowed, and still reported. Both jobs exit with an error when
a `row:` line names no row of the table.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TESTS = Path(__file__).resolve().parent
TABLE = TESTS / "cli_lines.txt"
SRC = TESTS.parent / "src"

# validate's summary line carries its run time
TIMING = re.compile(r"^((?:PASS|FAIL) \(\d+ checks, )\d+\.\d+( s\))$", re.MULTILINE)
# a printed number, not the digits inside a word such as a file name's N32
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


@dataclass(frozen=True)
class Row:
    number: int  # position in the table, which names the row's directory
    exit: int
    tags: frozenset[str]
    args: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.number:02d}"

    @property
    def line(self) -> str:
        return f"{self.exit} | {' '.join(sorted(self.tags)) or '-'} | {shlex.join(self.args)}"


def parse_row(number: int, line: str) -> Row:
    code, tags, args = (part.strip() for part in line.split("|", 2))
    return Row(number, int(code), frozenset(tags.split()) - {"-"}, tuple(shlex.split(args)))


def read_table(tag: str | None = None) -> list[Row]:
    """The table's rows, or those tagged `tag`."""
    lines = [line for line in TABLE.read_text(encoding="utf-8").splitlines() if line.strip() and not line.startswith("#")]
    rows = [parse_row(number, line) for number, line in enumerate(lines)]
    return [row for row in rows if tag is None or tag in row.tags]


def with_config_file(args, path: Path) -> list[str]:
    """args with an inline `--config {...}` value written to `path` and
    replaced by it."""
    args = list(args)
    if "--config" in args:
        i = args.index("--config") + 1
        if args[i].startswith("{"):
            path.write_text(args[i], encoding="utf-8")
            args[i] = str(path)
    return args


# ---------------------------------------------------------------------------
# run


def _slope_deviation(dirs: list[Path]) -> float:
    want = math.log(abs(2.0 * math.cos(3.0 * math.pi / 7.0))) / 2.0
    return max(abs(json.loads((d / "out" / "scaling.json").read_text())["fit_eta"]["slope"] - want) for d in dirs)


def _fidelity_rows(directory: Path) -> list[dict]:
    with open(directory / "out" / "fidelity.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def _pt_fidelity_deviation(dirs: list[Path]) -> float:
    return max(abs(float(r["f_exact"]) - float(r["f_perturbative"])) for d in dirs for r in _fidelity_rows(d))


def _off_crossing_deviation(dirs: list[Path]) -> float:
    curves = [[float(r["f_exact"]) for r in _fidelity_rows(d)] for d in dirs]
    if len(curves) != 2 or any(len(curve) != 3 for curve in curves):
        return math.inf
    return max(abs(a - b) for a, b in zip(*curves))


# tag -> (what is measured over the rows so tagged, its bound)
MEASURES = {
    "slope": ("fit_eta slope deviation from ln|2cos(3pi/7)|/2", 1e-9, _slope_deviation),
    "pt-fidelity": ("fidelity max |f_exact - f_perturbative|", 1e-6, _pt_fidelity_deviation),
    "off-crossing": ("off-crossing N=100 vs N=80 f_exact deviation", 1e-12, _off_crossing_deviation),
}


def _written(directory: Path) -> list[str]:
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file()) if directory.is_dir() else []


def row_problems(row: Row, directory: Path) -> list[str]:
    """What the table says of a row that its run in `directory` breaks."""
    problems = []
    code = int((directory / "exit").read_text())
    stdout = (directory / "stdout").read_text().splitlines()
    stderr = (directory / "stderr").read_text()
    if code != row.exit:
        problems.append(f"exited with {code}, expected {row.exit}")
    if row.exit == 2 or "fails" in row.tags:
        if _written(directory / "out"):
            problems.append(f"wrote {', '.join(_written(directory / 'out'))}")
        if "error:" not in stderr or "Traceback" in stderr:
            problems.append("stderr has no 'error:' or has a traceback")
        if "fails" in row.tags and not (stderr.startswith("error: ") and stderr.count("\n") == 1):
            problems.append("stderr is not one 'error:' line")
    elif not stdout or not stdout[-1].startswith("wrote "):
        problems.append("the last stdout line is not a 'wrote' line")
    return problems


def _check_source(src: Path, env: dict) -> None:
    proc = subprocess.run([sys.executable, "-c", "import torus_qpt; print(torus_qpt.__file__)"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: torus_qpt does not import from {src}: {proc.stdout.strip() or proc.stderr}")


def run_table(out: Path, src: Path = SRC, tag: str | None = None, console_script: bool = False,
              allow: frozenset[str] = frozenset()) -> int:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    # stdout goes to a file, block-buffered, so a flush lost at exit shows as a missing last line
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src.resolve())
    _check_source(src, env)
    if console_script:
        script = shutil.which("torus-qpt")
        if script is None:
            raise SystemExit("error: no torus-qpt console script on PATH")
        command = [script]
    else:
        command = [sys.executable, "-m", "torus_qpt"]
    rows, named = read_table(tag), allowed_rows(allow)
    failed = 0
    for row in rows:
        directory = (out / row.name).resolve()
        directory.mkdir(parents=True)
        (directory / "row").write_text(row.line + "\n", encoding="utf-8")
        args = with_config_file(row.args, directory / "config.json")
        row_env = {**env, "PYTHONWARNINGS": "error::RuntimeWarning"} if row.tags & {"stress", "fails"} else env
        start = time.perf_counter()
        with open(directory / "stdout", "w") as stdout, open(directory / "stderr", "w") as stderr:
            code = subprocess.run([*command, *args, "--out", "out"], cwd=directory, env=row_env,
                                  stdout=stdout, stderr=stderr).returncode
        (directory / "exit").write_text(f"{code}\n")
        problems = row_problems(row, directory)
        allowed = row.args in named
        failed += bool(problems) and not allowed
        print(f"{row.name} exit {code} {time.perf_counter() - start:5.2f} s  {shlex.join(row.args)}")
        for problem in problems:
            print(f"    {'allowed: ' if allowed else ''}{problem}")
    for measure_tag, (label, bound, deviation) in MEASURES.items():
        dirs = [(out / row.name) for row in rows if measure_tag in row.tags and row.args not in named]
        if dirs:
            try:
                value = deviation(dirs)
            except (OSError, KeyError, ValueError) as exc:
                value, label = math.nan, f"{label}: unreadable ({exc})"
            print(f"{label}: {value:.3g} (bound {bound:g})")
            failed += not value <= bound
    print(f"{len(rows)} rows run, {failed} checks failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare


def _deviation(x: float, y: float) -> tuple[float, float]:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    absolute = abs(x - y)
    if not math.isfinite(absolute):
        return math.inf, math.inf
    return absolute, absolute / max(abs(x), abs(y))


def _number(value) -> float | None:
    """A JSON number or a CSV cell as a float; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _deviation_note(what: str, pairs) -> str | None:
    """One line for the differing (a, b) values of a column or key: how many
    differ and the largest deviations, or None when all are the same text."""
    worst_abs = worst_rel = 0.0
    count = text = 0
    for a, b in pairs:
        if repr(a) == repr(b):
            continue
        count += 1
        x, y = _number(a), _number(b)
        if x is None or y is None:
            text += 1
            continue
        absolute, relative = _deviation(x, y)
        worst_abs, worst_rel = max(worst_abs, absolute), max(worst_rel, relative)
    if not count:
        return None
    differ = f"{count} values differ" if count > 1 else "1 value differs"
    note = f"{what}: {differ}, max abs {worst_abs:.3g}, max rel {worst_rel:.3g}"
    return note + (f" ({text} not numbers)" if text else "")


def _csv_notes(a: str, b: str) -> list[str]:
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if rows_a[:1] != rows_b[:1]:
        return [f"header {rows_a[:1]} -> {rows_b[:1]}"]
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return [f"{len(rows_a) - 1} -> {len(rows_b) - 1} rows, or rows of different lengths"]
    columns = zip(zip(*rows_a[1:]), zip(*rows_b[1:]))
    notes = (_deviation_note(f"column {name}", zip(*pair)) for name, pair in zip(rows_a[0], columns))
    return [note for note in notes if note]


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _json_notes(a, b) -> list[str]:
    leaves_a, leaves_b = dict(_leaves(a)), dict(_leaves(b))
    notes = [f"{key}: only in {side}" for side, keys in (("A", leaves_a.keys() - leaves_b.keys()),
                                                         ("B", leaves_b.keys() - leaves_a.keys())) for key in sorted(keys)]
    for key in sorted(leaves_a.keys() & leaves_b.keys()):
        x, y = leaves_a[key], leaves_b[key]
        if repr(x) != repr(y):
            numeric = not isinstance(x, str) and not isinstance(y, str) and None not in (_number(x), _number(y))
            notes.append(_deviation_note(key, [(x, y)]) if numeric else f"{key}: {x!r} -> {y!r}")
    return notes


def file_notes(a: Path, b: Path) -> list[str]:
    """How file b differs from file a; empty when they are the same."""
    if a.name == "validate.json":
        data_a, data_b = ({k: v for k, v in json.loads(p.read_text()).items() if k != "runtime_s"} for p in (a, b))
        return _json_notes(data_a, data_b)
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    if bytes_a == bytes_b:
        return []
    notes = []
    if a.suffix == ".csv":
        notes = _csv_notes(bytes_a.decode(), bytes_b.decode())
    elif a.suffix == ".json":
        notes = _json_notes(json.loads(bytes_a), json.loads(bytes_b))
    return notes or ["bytes differ"]


def _text_note(what: str, a: str, b: str) -> list[str]:
    if a == b:
        return []
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return [f"{what} line {i}: {x!r} -> {y!r}"]
    return [f"{what}: {len(lines_a)} -> {len(lines_b)} lines"]


def _number_notes(a: str, b: str) -> list[str] | None:
    """One note per number that differs between two stdouts whose lines
    match apart from their numbers; None when some line's text differs."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    notes = []
    for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            return None
        for j, (p, q) in enumerate(zip(NUMBER.findall(x), NUMBER.findall(y)), start=1):
            if p != q:
                absolute, relative = _deviation(float(p), float(q))
                notes.append(f"stdout line {i} number {j}: {p} -> {q}, abs {absolute:.3g}, rel {relative:.3g}")
    return notes


def row_notes(a: Path, b: Path, allow: frozenset[str] = frozenset()) -> tuple[list[str], list[str]]:
    """The differences between two runs of one row, split into those that
    fail a comparison and those allowed: the differences of allow-listed
    files, and the numbers of stdout when only allow-listed files differ."""
    code_a, code_b = ((d / "exit").read_text().strip() for d in (a, b))
    exit_notes = [f"exit code {code_a} -> {code_b}"] if code_a != code_b else []
    written_a, written_b = set(_written(a / "out")), set(_written(b / "out"))
    notes, allowed = [], []
    for path in sorted(written_a | written_b):
        if path not in written_b:
            found = [f"{path}: only in A"]
        elif path not in written_a:
            found = [f"{path}: only in B"]
        else:
            found = [f"{path}: {note}" for note in file_notes(a / "out" / path, b / "out" / path)]
        name = Path(path).name
        (allowed if any(fnmatch.fnmatchcase(name, pattern) for pattern in allow) else notes).extend(found)
    stdout_a, stdout_b = (TIMING.sub(r"\1*\2", (d / "stdout").read_text()) for d in (a, b))
    numbers = _number_notes(stdout_a, stdout_b) if allowed and not notes else None
    stdout_notes = _text_note("stdout", stdout_a, stdout_b) if numbers is None else []
    stderr_notes = _text_note("stderr", *((d / "stderr").read_text() for d in (a, b)))
    return exit_notes + stdout_notes + stderr_notes + notes, allowed + (numbers or [])


def _rows_in(tree: Path, tag: str | None) -> dict[str, str]:
    rows = {}
    for row_file in tree.glob("*/row"):
        line = row_file.read_text(encoding="utf-8").strip()
        if tag is None or tag in parse_row(0, line).tags:
            rows[row_file.parent.name] = line
    return rows


def read_allow(path: Path | None) -> frozenset[str]:
    """The entries of an --allow file: file-name glob patterns and `row:`
    lines. A `row:` line that names no row of the table is an error, not a
    silent no-op."""
    if path is None:
        return frozenset()
    lines = (line.split("#", 1)[0].strip() for line in path.read_text(encoding="utf-8").splitlines())
    entries = frozenset(line for line in lines if line)
    stale = allowed_rows(entries) - {row.args for row in read_table()}
    if stale:
        raise SystemExit(f"error: {path} names rows that {TABLE.name} does not have: "
                         f"{', '.join(sorted(shlex.join(args) for args in stale))}")
    return entries


def allowed_rows(allow: frozenset[str]) -> set[tuple[str, ...]]:
    """The arguments of the rows that the `row:` entries of an --allow file name."""
    return {tuple(shlex.split(entry[len("row:"):])) for entry in allow if entry.startswith("row:")}


def compare_trees(a: Path, b: Path, allow: frozenset[str] = frozenset(), tag: str | None = None) -> tuple[list[str], bool]:
    """The report lines for two `run` trees, and whether they match apart
    from allow-listed files."""
    rows_a, rows_b, named = _rows_in(a, tag), _rows_in(b, tag), allowed_rows(allow)
    report, counts = [], {"identical": 0, "allowed": 0, "DIFFERS": 0}
    for name in sorted(rows_a.keys() | rows_b.keys(), key=int):
        line = rows_a.get(name) or rows_b[name]
        if name not in rows_a or name not in rows_b:
            notes, allowed = [f"only in {'A' if name in rows_a else 'B'}"], []
        elif rows_a[name] != rows_b[name]:
            notes, allowed = [f"command lines differ: {rows_a[name]!r} -> {rows_b[name]!r}"], []
        else:
            notes, allowed = row_notes(a / name, b / name, allow)
            if parse_row(0, line).args in named:
                notes, allowed = [], notes + allowed
        status = "DIFFERS" if notes else "allowed" if allowed else "identical"
        counts[status] += 1
        report.append(f"{status:9} {name}  {line.split('|', 2)[2].strip()}")
        report += [f"    {note}" for note in notes] + [f"    allowed: {note}" for note in allowed]
    report.append(f"{counts['identical']} rows identical, {counts['allowed']} differ only in allowed files, "
                  f"{counts['DIFFERS']} differ")
    return report, counts["DIFFERS"] == 0 and bool(rows_a)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    jobs = parser.add_subparsers(dest="job", required=True)
    run = jobs.add_parser("run", help="run the table's rows into OUT and check each")
    run.add_argument("out", type=Path, metavar="OUT")
    run.add_argument("--src", type=Path, default=SRC, help="the src/ directory to import torus_qpt from")
    run.add_argument("--tag", help="run only the rows with this tag")
    run.add_argument("--console-script", action="store_true", help="run through the installed torus-qpt script")
    run.add_argument("--allow", type=Path, help="file naming the rows whose table checks do not fail (`row:` lines)")
    compare = jobs.add_parser("compare", help="compare the outputs of two runs")
    compare.add_argument("a", type=Path, metavar="A")
    compare.add_argument("b", type=Path, metavar="B")
    compare.add_argument("--tag", help="compare only the rows with this tag")
    compare.add_argument("--allow", type=Path, help="file naming the files and rows whose differences do not fail")
    args = parser.parse_args(argv)
    if args.job == "run":
        return run_table(args.out, args.src, args.tag, args.console_script, read_allow(args.allow))
    report, same = compare_trees(args.a, args.b, read_allow(args.allow), args.tag)
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
