"""Benchmark of the torus-qpt command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]

A workload is a fixed list of ``python -m torus_qpt ...`` command lines. They
run the way a user runs them: one process at a time, closed loop, a single
client, in the machine's default environment (BLAS threads are not pinned, so
cpu_s shows what the default costs). A run repeats the workload for about S
seconds of elapsed time, timing the CLI start-up before each repetition (at
least SETUP_REPS times in all). Outside the timed region
the independent oracle in oracle.py checks every data file, and each file's
sha256 is recorded (not gated) so byte identity across commits can be read
from the output.

--trace 0 reports the end-to-end metrics, each the median over the samples
of the run that the host's steal (/proc/stat) disturbed least (least_stolen):
  wall_s       spawn of the workload's first process to exit of its last
  cpu_s        user+sys CPU time of the workload's processes
  setup_s      wall time of ``<command> --help``: interpreter start, import
               torus_qpt, build the parser; users pay it on every command
  peak_rss_mb  largest resident set among the workload's processes
--trace 1 alternates untraced repetitions with ones under tracer.py, which
wraps each torus_qpt layer from outside, and reports the per-layer figures of
the least-stolen traced repetition with the median wall time, plus
trace.overhead_s (its wall time minus the untraced median).

The seed picks the rows the oracle checks in large files; the command lines
are fixed. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: failed/attempted is the failed_ratio of CLI
invocations (unexpected exit code, or a data file the oracle rejects).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
TRACER = Path(tracer.__file__).resolve()
ORACLE = TRACER.with_name("oracle.py")
PYTHON = sys.executable

SETUP_REPS = 7
QUIET_STEAL = 0.02  # a sample is undisturbed when steal took at most this share of its wall time
USER_HZ = os.sysconf("SC_CLK_TCK")
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BLAS_KEYS = ("name", "version", "found", "openblas configuration")

ALL_LAYERS = tuple(tracer.LAYERS)
SOLVER_LAYERS = ("cli", "models", "blocks", "eigensolve", "ssh", "criticality", "output")


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple[tuple[str, int], ...]  # (torus-qpt arguments, expected exit code)
    layers: tuple[str, ...]  # layers a traced run must see called


WORKLOADS = {
    "readme": Workload(
        "the eight README command lines users run; 0.2-0.3 s of each is start-up, so import changes show",
        (
            ("spectrum --lam 0.5 --N 20 --phi 0 --eta-min 0 --eta-max 1 --steps 200", 0),
            ("spectrum --mode 3 --M 7 --N 20 --phi-over-pi 0.25", 0),
            ("sweep --M 7 --N 20 --phi-over-pi 0.25", 0),
            ("scaling --M 7 --phi-over-pi 0.25 --n-list 8,12,16,20,24 --steps 128", 0),
            ("fidelity --lam 0.5 --N 20 --phi-over-pi 0.25", 0),
            ("square --M 3 --n-list 8,16,32 --phi-over-pi 0.25", 0),
            ("validate", 0),
            ("validate --convention sites", 1),
        ),
        ALL_LAYERS,
    ),
    "sweep-wide": Workload(
        "12k eigvalsh calls on 64-site rings are most of the time; mode folding and sweep engines show here",
        (("sweep --M 31 --N 64 --phi-over-pi 0.25 --steps 400", 0),),
        SOLVER_LAYERS,
    ),
    "scaling-small": Workload(
        "12.8k solves of 8-32-site rings; per-call Python overhead dominates, so batching shows here",
        (("scaling --M 7 --phi-over-pi 0.25 --n-list 8,12,16,20,24,28,32 --steps 256", 0),),
        SOLVER_LAYERS,
    ),
    "spectrum-dump": Workload(
        "keeps and writes every level (5 MB CSV); only serialization and memory changes show here",
        (("spectrum --lam 0.5 --N 64 --phi-over-pi 0.25 --eta-min 0 --eta-max 1 --steps 4000", 0),),
        ("cli", "blocks", "eigensolve", "output"),
    ),
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"blocks.distinct_ratio": "ratio", "eigensolve.max_dim": "rows",
            "eigensolve.flops_computed": "flop", "output.bytes": "B"}.get(name, "count")


class LayerSilent(RuntimeError):
    """A layer expected to work on a workload recorded no calls in a traced run."""


class RunTimeout(RuntimeError):
    pass


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def invoke(cmd: list[str], cwd: Path, log: Path, env: dict) -> Proc:
    """Run one process to completion and return its exit code and resource use."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's vCPUs since boot,
    summed over vCPUs (0 where /proc/stat does not report it)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / USER_HZ
    except (OSError, IndexError, ValueError):
        return 0.0


def least_stolen(samples: list[dict]) -> list[dict]:
    """The samples the host disturbed least: every one that lost at most
    QUIET_STEAL of its wall time to steal, and at least the least-stolen half.
    On a shared host a burst of steal stretches wall time by tens of percent
    for a minute or more, while the program's own time does not change."""
    order = sorted(samples, key=lambda s: s["steal_s"] / s["wall_s"])
    quiet = sum(s["steal_s"] <= QUIET_STEAL * s["wall_s"] for s in order)
    return order[:max(quiet, (len(order) + 1) // 2)]


def run_env() -> dict:
    """The children's environment: the caller's, with the checkout's src/ first
    on PYTHONPATH and bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# Run by the children's interpreter: proves which torus_qpt they import, warms
# its bytecode cache and reports the numerical environment they see.
PROBE = """import json, os, sys, numpy, torus_qpt
config = numpy.show_config(mode="dicts")
print(json.dumps({"torus_qpt": torus_qpt.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas_lapack": config.get("Build Dependencies"),
                  "simd": config.get("SIMD Extensions"), "nproc": len(os.sched_getaffinity(0)),
                  "thread_vars": {name: os.environ.get(name) for name in %r}}))
""" % (THREAD_VARS,)


def probe(where: Path, env: dict) -> dict:
    log = where / "probe.log"
    proc = invoke([PYTHON, "-c", PROBE], where, log, env)
    text = log.read_text(errors="replace").strip()
    if proc.code != 0:
        raise SystemExit(f"error: the CLI's interpreter cannot import torus_qpt: {text}")
    found = json.loads(text.splitlines()[-1])
    package = Path(found["torus_qpt"]).resolve()
    if SRC not in package.parents:
        raise SystemExit(f"error: children import torus_qpt from {package}, not from {SRC}")
    # Keep the record free of host paths: library identity and build options only.
    found["torus_qpt"] = str(package.relative_to(ROOT))
    found["blas_lapack"] = {lib: {k: v for k, v in info.items() if k in BLAS_KEYS}
                            for lib, info in (found["blas_lapack"] or {}).items()}
    return found


def run_oracle(seed: int, jobs: list[tuple[list[str], str]]) -> list[list[str]]:
    """Check command outputs in a separate process, so the benchmark process stays
    small: a child's ru_maxrss includes the parent's resident set at fork time."""
    proc = subprocess.run([PYTHON, str(ORACLE), str(seed)], input=json.dumps(jobs),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the oracle crashed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class WorkloadRun:
    """One workload's run: invocations, oracle verdicts, hashes and samples."""

    def __init__(self, name: str, seed: int, tmp: Path, env: dict) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict = {}
        self.sha256: dict[str, str] = {}
        self.hashes_stable = True
        self.missing_names: set[str] = set()
        self.iterations = 0
        self.setups: list[dict] = []

    def fail(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def time_setup(self) -> None:
        """One start-up sample: the workload's first command with --help."""
        cmd = [PYTHON, "-m", "torus_qpt", self.workload.commands[0][0].split()[0], "--help"]
        steal = steal_s()
        proc = invoke(cmd, self.tmp, self.tmp / "help.log", self.env)
        steal = steal_s() - steal
        self.attempted += 1
        if proc.code != 0:
            self.failed += 1
            self.fail(f"{' '.join(cmd[3:])}: exit code {proc.code}, expected 0")
        self.setups.append({"wall_s": proc.wall_s, "steal_s": steal})

    def iterate(self, traced: bool) -> dict:
        it_dir = self.tmp / f"it{self.iterations}"
        self.iterations += 1
        jobs = []
        for i, (line, _) in enumerate(self.workload.commands):
            argv = shlex.split(line)
            cwd = it_dir / f"{i}-{argv[0]}"
            cwd.mkdir(parents=True)
            spans = it_dir / f"{i}.spans.json"
            if traced:
                cmd = [PYTHON, str(TRACER), str(spans), *argv]
            else:
                cmd = [PYTHON, "-m", "torus_qpt", *argv]
            jobs.append((cmd, cwd, it_dir / f"{i}.log", spans))
        steal = steal_s()
        start = time.perf_counter()
        procs = [invoke(cmd, cwd, log, self.env) for cmd, cwd, log, _ in jobs]
        wall = time.perf_counter() - start
        sample = {"wall_s": wall, "cpu_s": sum(p.cpu_s for p in procs),
                  "peak_rss_mb": max(p.rss_mb for p in procs), "steal_s": steal_s() - steal}
        self.check([(cwd, log) for _, cwd, log, _ in jobs], procs)
        if traced:
            traces = [json.loads(spans.read_text()) for *_, spans in jobs if spans.is_file()]
            if len(traces) != len(jobs):
                raise LayerSilent(f"{self.name}: a traced process wrote no spans")
            for trace in traces:
                self.missing_names.update(trace["missing"])
            sample["layers"] = tracer.summarize(traces, wall)
            layers = sample["layers"]
            silent = [layer for layer in self.workload.layers if not layers[f"{layer}.calls"]]
            # The counters behind the ratios must see work too: ring builds and LAPACK calls.
            if "blocks" in self.workload.layers and not layers["blocks.distinct_ratio"]:
                silent.append("blocks ring builders")
            if "eigensolve" in self.workload.layers and not layers["eigensolve.flops_computed"]:
                silent.append("eigensolve LAPACK boundary")
            if silent:
                raise LayerSilent(f"{self.name}: layers {silent} recorded zero calls; "
                                  "update LAYERS in perfbench/tracer.py")
        shutil.rmtree(it_dir)
        return sample

    def check(self, outputs: list[tuple[Path, Path]], procs: list[Proc]) -> None:
        """Count an invocation as failed on an unexpected exit code or a rejected data file."""
        keys = []
        for (line, _), (cwd, _) in zip(self.workload.commands, outputs):
            digests = {path.name: sha256_file(path) for path in sorted(cwd.iterdir())}
            for name, digest in digests.items():
                if name == "validate.json":  # carries runtime_s
                    continue
                if self.sha256.setdefault(f"{cwd.name}/{name}", digest) != digest:
                    self.hashes_stable = False
            keys.append((line, tuple(digests.items())))
        todo = {key: str(cwd) for key, (cwd, _) in zip(keys, outputs) if key not in self.verdicts}
        if todo:
            found = run_oracle(self.seed, [(shlex.split(key[0]), cwd) for key, cwd in todo.items()])
            self.verdicts.update(zip(todo, found))
        for (line, expected), (_, log), proc, key in zip(self.workload.commands, outputs, procs, keys):
            self.attempted += 1
            problems = list(self.verdicts[key])
            if proc.code != expected:
                tail = " | ".join(log.read_text(errors="replace").strip().splitlines()[-3:])
                problems.insert(0, f"exit code {proc.code}, expected {expected}: {tail}")
            for problem in problems:
                self.fail(f"{line}: {problem}")
            self.failed += bool(problems)

    def repeat(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Repeat the workload for `seconds` of elapsed time. A start-up sample
        precedes each repetition and, with `trace`, a traced repetition follows
        each untraced one, so all samples span the whole run. A repetition
        starts only if one more of median length still ends within `seconds`,
        so a run lasts about `seconds` whatever the workload's length."""
        untraced: list[dict] = []
        traced: list[dict] = []
        lengths: list[float] = []
        start = time.perf_counter()
        while not lengths or time.perf_counter() - start + statistics.median(lengths) <= seconds:
            begin = time.perf_counter()
            self.time_setup()
            untraced.append(self.iterate(traced=False))
            if trace:
                traced.append(self.iterate(traced=True))
            lengths.append(time.perf_counter() - begin)
        while len(self.setups) < SETUP_REPS:
            self.time_setup()
        return untraced, traced


def median_sample(samples: list[dict]) -> dict:
    """The sample with the median wall time (the lower one of an even count)."""
    ordered = sorted(samples, key=lambda s: s["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path, env: dict) -> dict:
    run = WorkloadRun(name, seed, tmp, env)
    load_before = os.getloadavg()
    environment = probe(tmp, env)
    untraced, traced = run.repeat(seconds, trace)
    samples = {
        "setup_s": [s["wall_s"] for s in run.setups],
        "setup_steal_s": [s["steal_s"] for s in run.setups],
        "wall_s": [s["wall_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "steal_s": [s["steal_s"] for s in untraced],
    }
    kept = least_stolen(untraced)
    kept_setups = least_stolen(run.setups)
    used = {"setup_s": len(kept_setups), "repetitions": len(kept)}
    medians = {k: statistics.median(s[k] for s in kept) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    medians["setup_s"] = statistics.median(s["wall_s"] for s in kept_setups)
    if trace:
        samples["traced_wall_s"] = [s["wall_s"] for s in traced]
        samples["traced_steal_s"] = [s["steal_s"] for s in traced]
        kept_traced = least_stolen(traced)
        used["traced_repetitions"] = len(kept_traced)
        layers = dict(median_sample(kept_traced)["layers"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - medians["wall_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": medians[k], "unit": u} for k, u in E2E_UNITS.items()}
    return {
        "workload": name,
        "why": run.workload.why,
        "commands": [line for line, _ in run.workload.commands],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": dict(environment, loadavg_before=list(load_before)),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "samples": samples,
        "samples_used": used,
        "metrics": metrics,
        "sha256": run.sha256,
        "hashes_stable": run.hashes_stable,
        "missing_trace_names": sorted(run.missing_names),
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']}, trace {result['trace']}): {result['why']}")
    print("  env: " + json.dumps(result["environment"], sort_keys=True))
    for key, values in result["samples"].items():
        unit = "MB" if key == "peak_rss_mb" else "s"
        print(f"  {key:<14} median {statistics.median(values):.6g} {unit} over n={len(values)} "
              f"(min {min(values):.6g}, max {max(values):.6g})")
    print("  medians over the least-stolen samples: " + json.dumps(result["samples_used"]))
    for key, metric in result["metrics"].items():
        print(f"  metric {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio = {result['failed']}/{result['attempted']} = {result['failed_ratio']:.6g}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for name in result["missing_trace_names"]:
        print(f"  note: traced name {name} no longer exists")
    if not result["hashes_stable"]:
        print("  note: a data file's sha256 changed between repetitions")
    for path, digest in result["sha256"].items():
        print(f"  sha256 {digest} {path}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record (environment, samples, hashes) here")
    return parser.parse_args(argv)


def _alarm(signum, frame):
    raise RunTimeout(f"workload run exceeded {RUN_LIMIT_S} s")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "torus_qpt" / "__init__.py").is_file():
        print(f"error: no torus_qpt sources under {SRC}", file=sys.stderr)
        return 2
    env = run_env()
    record = {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    WORK.mkdir(exist_ok=True)
    try:
        for name in names:
            signal.alarm(RUN_LIMIT_S)
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                result = run_workload(name, args.seed, args.seconds, bool(args.trace), Path(tmp), env)
            signal.alarm(0)
            report(result)
            record[name] = result
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        try:
            WORK.rmdir()
        except OSError:
            pass
    results = record.values()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if len(names) == 1:
        metrics = record[names[0]]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] and not r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
