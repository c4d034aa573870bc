"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs two README commands once, then checks that:
* the oracle accepts their files, rejects a sweep.csv with one e_g value
  moved by 1e-8 and rejects a truncated spectrum.csv;
* a traced run writes the same bytes as an untraced one and its layer self
  times plus unattributed time add up to its wall time;
* tracer.summarize gets a hand-made span tree right and refuses spans that
  do not nest or that exceed the wall time;
* every name in tracer.LAYERS still exists in torus_qpt.
Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import importlib
import json
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracle
import tracer
from run import PYTHON, SRC, TRACER, WORK, WORKLOADS, invoke, run_env

SEED = 20161
FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def readme_command(name: str) -> list[str]:
    return next(shlex.split(line) for line, _ in WORKLOADS["readme"].commands if line.startswith(name))


def run_cli(argv: list[str], where: Path, traced: bool = False):
    where.mkdir(parents=True)
    head = [PYTHON, str(TRACER), str(where / "spans.json")] if traced else [PYTHON, "-m", "torus_qpt"]
    proc = invoke(head + argv, where, where / "log.txt", run_env())
    if proc.code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.code}: {(where / 'log.txt').read_text()}")
    return proc


def check_oracle(tmp: Path) -> None:
    sweep = readme_command("sweep")
    run_cli(sweep, tmp / "sweep")
    report("oracle accepts sweep.csv", oracle.check_command(sweep, tmp / "sweep", SEED) == [])
    lines = (tmp / "sweep" / "sweep.csv").read_text().split("\n")
    rng = np.random.default_rng(SEED)
    for row in rng.choice(np.arange(1, len(lines) - 1), 2, replace=False):
        moved = lines.copy()
        cells = moved[row].split(",")
        cells[1] = "%.17g" % (float(cells[1]) + 1e-8)
        moved[row] = ",".join(cells)
        where = tmp / f"sweep-moved-{row}"
        where.mkdir()
        (where / "sweep.csv").write_text("\n".join(moved))
        problems = oracle.check_command(sweep, where, SEED)
        report(f"oracle rejects e_g + 1e-8 on data row {row - 1}", bool(problems), "; ".join(problems[:1]))

    spectrum = readme_command("spectrum")
    run_cli(spectrum, tmp / "spectrum")
    report("oracle accepts spectrum.csv", oracle.check_command(spectrum, tmp / "spectrum", SEED) == [])
    text = (tmp / "spectrum" / "spectrum.csv").read_text()
    for label, cut in (("last row dropped", text[: text.rstrip("\n").rfind("\n") + 1]),
                       ("cut mid-row", text[: len(text) // 2])):
        where = tmp / f"spectrum-{label.replace(' ', '-')}"
        where.mkdir()
        (where / "spectrum.csv").write_text(cut)
        problems = oracle.check_command(spectrum, where, SEED)
        report(f"oracle rejects truncated spectrum.csv ({label})", bool(problems), "; ".join(problems[:1]))


def check_traced_run(tmp: Path) -> None:
    sweep = readme_command("sweep")
    proc = run_cli(sweep, tmp / "traced", traced=True)
    same = (tmp / "traced" / "sweep.csv").read_bytes() == (tmp / "sweep" / "sweep.csv").read_bytes()
    report("traced run writes the same sweep.csv bytes", same)
    metrics = tracer.summarize([json.loads((tmp / "traced" / "spans.json").read_text())], proc.wall_s)
    total = metrics["cli.import_s"] + metrics["trace.unattributed_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    report("self times + unattributed = traced wall", abs(total - proc.wall_s) <= 1e-9 * proc.wall_s,
           f"{total:.9f} vs {proc.wall_s:.9f} s")
    silent = [layer for layer in ("cli", "models", "blocks", "eigensolve", "ssh", "criticality", "output")
              if not metrics[f"{layer}.calls"]]
    report("every layer a sweep uses records calls", not silent, f"silent: {silent}" if silent else "")


def check_summarize() -> None:
    names = ["cli.import", "cli.main", "blocks.peierls_ring", "eigensolve.numpy.linalg.eigvalsh", "output.csv_text",
             "blocks.import"]
    spans = [[0, 0.0, 1.0, -1], [5, 0.25, 0.5, 0], [1, 1.0, 9.0, -1], [2, 2.0, 5.0, 2], [3, 3.0, 4.0, 3],
             [4, 6.0, 7.0, 2]]
    trace = {"names": names, "spans": spans, "blocks_built": 4, "blocks_distinct": 2,
             "eig_max_dim": 3, "eig_flops": 27, "output_bytes": 5, "missing": []}
    got = tracer.summarize([trace], 10.0)
    want = {"cli.import_s": 0.75, "cli.self_s": 4.0, "blocks.self_s": 2.25, "eigensolve.self_s": 1.0,
            "output.self_s": 1.0, "trace.unattributed_s": 1.0, "cli.calls": 1, "blocks.calls": 1,
            "blocks.distinct_ratio": 0.5}
    wrong = {k: got[k] for k, v in want.items() if got[k] != v}
    report("summarize self times on a hand-made span tree", not wrong, f"wrong: {wrong}" if wrong else "")
    for label, bad_spans, wall in (("a child outside its parent", [[0, 0.0, 1.0, -1], [1, 0.5, 2.0, 0]], 3.0),
                                   ("spans longer than the wall time", [[0, 0.0, 4.0, -1]], 3.0)):
        try:
            tracer.summarize([dict(trace, spans=bad_spans)], wall)
            report(f"summarize refuses {label}", False)
        except ValueError:
            report(f"summarize refuses {label}", True)


def check_layer_table() -> None:
    sys.path.insert(0, str(SRC))
    missing, untraced = [], []
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"torus_qpt.{layer}")
        missing += [f"{layer}.{n}" for n in names if not hasattr(module, n)]
        untraced += [f"{layer}.{n}" for n, obj in vars(module).items()
                     if not n.startswith("_") and n not in names and callable(obj)
                     and getattr(obj, "__module__", None) == module.__name__]
    report("every traced name exists in torus_qpt", not missing, f"missing: {missing}" if missing else "")
    print(f"note: public names not traced (see tracer.LAYERS): {', '.join(untraced) or 'none'}")


def main() -> int:
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            check_oracle(Path(tmp))
            check_traced_run(Path(tmp))
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    check_summarize()
    check_layer_table()
    print(f"{'FAIL' if FAILURES else 'PASS'}: {len(FAILURES)} failing checks")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
