"""Outside-in tracing of the torus_qpt layers for the benchmark's traced run.

Run as ``python perfbench/tracer.py SPANS_JSON <torus-qpt arguments>``. It
imports torus_qpt (the span ``cli.import``, with one ``<layer>.import`` span
per layer module inside it), wraps the public names listed in LAYERS and
NumPy's eigvalsh/eigh boundary in this process only, runs ``torus_qpt.cli.main`` and writes every span (name, start, end,
parent) plus a few counters to SPANS_JSON. No file under src/ is touched.

`summarize` turns the span files of one workload iteration into per-layer
figures. A layer's self time is the duration of its spans minus the part
covered by their child spans; the traced wall time minus every self time is
reported as unattributed (interpreter start-up, span output, harness gaps).
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The layers are the torus_qpt modules. Each entry lists the module-level
# public names wrapped from outside; for a class, its __init__ is wrapped.
# Left out on purpose:
# * output.fmt_float runs once per number written (260k times on
#   spectrum-dump); a span there would cost more than the work it times.
# * cli.cmd_* and validate.check_* are reached only through the _RUNNERS and
#   CHECKS tables, which hold the unwrapped functions; their time counts to
#   cli.main and validate.run_validation.
LAYERS = {
    "cli": ("main", "build_parser", "parse_config", "serialize_config", "RunConfig"),
    "models": ("ModelSpec", "HermitianOperator", "site_basis", "build_honeycomb_torus",
               "build_square_torus", "build_lattice"),
    "blocks": ("BlochBlock", "peierls_ring", "square_ring", "honeycomb_blocks", "square_blocks",
               "lattice_blocks", "in_critical_set", "critical_modes", "union_eigenvalues",
               "blocks_to_csv"),
    "eigensolve": ("Spectrum", "eigh", "matrix_fingerprint", "square_ring_closed_form",
                   "degenerate_clusters"),
    "ssh": ("corner_coupling", "omega_factor", "ZeroModePair", "zero_modes", "build_h0_hprime",
            "MidgapSolution", "midgap_perturbation", "fidelity_perturbative", "fidelity_at_minimum"),
    "criticality": ("GroundStateResult", "SweepResult", "LinearFit", "ScalingReport", "FidelityCurve",
                    "exact_midgap_gap", "ground_energy_exact", "ground_energy_perturbative",
                    "d2_analytic", "golden_section_min", "sweep", "linear_fit", "scaling_scan",
                    "fidelity_exact", "sweep_to_csv", "fidelity_to_csv", "scaling_to_json_dict"),
    "validate": ("run_validation",),
    "output": ("csv_text", "json_text", "atomic_write_text"),
}

# The eigensolve layer also owns LAPACK as torus_qpt calls it: production
# code calls numpy.linalg directly, not eigensolve.eigh.
NUMPY_BOUNDARY = ("eigvalsh", "eigh")

IMPORT_SPAN = "cli.import"
RING_BUILDERS = ("peierls_ring", "square_ring")


class Recorder:
    """Spans and counters of one traced process, kept in memory until exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.blocks_built = 0
        self.block_keys: set = set()
        self.eig_max_dim = 0
        self.eig_flops = 0
        self.output_bytes = 0

    def wrap(self, name: str, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, kwargs)
                return result
            finally:
                spans[index] = (nid, start, clock(), parent)
                stack.pop()

        return traced

    def note_ring(self, builder: str):
        # A honeycomb ring with -lambda equals the one with +lambda up to the
        # sublattice gauge; a square ring's lambda is an on-site shift, so its
        # sign matters.
        def note(args, kwargs):
            lam = float(args[0])
            key = round(abs(lam) if builder == "peierls_ring" else lam, 12)
            self.blocks_built += 1
            self.block_keys.add((builder, key, args[1:], tuple(sorted(kwargs.items()))))
        return note

    def note_eig(self, args, kwargs):
        shape = getattr(args[0], "shape", None) or (0,)
        n = shape[-1]
        batch = 1
        for d in shape[:-2]:
            batch *= d
        self.eig_max_dim = max(self.eig_max_dim, n)
        self.eig_flops += batch * n ** 3

    def note_write(self, args, kwargs):
        self.output_bytes += os.path.getsize(args[0])

    def dump(self, path: str, missing: list[str]) -> None:
        record = {
            "names": self.names,
            "spans": self.spans,
            "blocks_built": self.blocks_built,
            "blocks_distinct": len(self.block_keys),
            "eig_max_dim": self.eig_max_dim,
            "eig_flops": self.eig_flops,
            "output_bytes": self.output_bytes,
            "missing": missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record))  # dumps uses the C encoder, dump does not


def install(rec: Recorder) -> list[str]:
    """Wrap every name in LAYERS and the NumPy boundary; return the names not found."""
    import numpy.linalg

    missing = []
    replacements = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"torus_qpt.{layer}")
        for name in names:
            obj = getattr(module, name, None)
            if obj is None:
                missing.append(f"{layer}.{name}")
            elif isinstance(obj, type):
                obj.__init__ = rec.wrap(f"{layer}.{name}", obj.__init__)
            else:
                note = None
                if name in RING_BUILDERS:
                    note = rec.note_ring(name)
                elif name == "atomic_write_text":
                    note = rec.note_write
                replacements[id(obj)] = (obj, rec.wrap(f"{layer}.{name}", obj, note))
    # Modules bind each other's functions by name, so rebind every alias.
    for modname, module in list(sys.modules.items()):
        if modname == "torus_qpt" or modname.startswith("torus_qpt."):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    for name in NUMPY_BOUNDARY:
        original = getattr(numpy.linalg, name)
        traced = rec.wrap(f"eigensolve.numpy.linalg.{name}", original, rec.note_eig)

        def boundary(*args, _original=original, _traced=traced, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == "torus_qpt" or caller.startswith("torus_qpt."):
                return _traced(*args, **kwargs)
            return _original(*args, **kwargs)

        setattr(numpy.linalg, name, functools.wraps(original)(boundary))
    return missing


class LayerImports(importlib.abc.MetaPathFinder):
    """Records executing each layer's module as a '<layer>.import' span, so
    a layer's self time includes its import and is never exactly zero."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "torus_qpt" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader.exec_module = self.rec.wrap(f"{layer}.import", spec.loader.exec_module)
        return spec


def import_cli():
    # NumPy first, so its import counts to cli.import and not to the first
    # layer module that happens to import it.
    import numpy  # noqa: F401

    return importlib.import_module("torus_qpt.cli")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    finder = LayerImports(rec)
    sys.meta_path.insert(0, finder)
    try:
        cli = rec.wrap(IMPORT_SPAN, import_cli)()
    finally:
        sys.meta_path.remove(finder)
    package = Path(sys.modules["torus_qpt"].__file__).resolve()
    if (ROOT / "src") not in package.parents:
        print(f"error: torus_qpt was imported from {package}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    missing = install(rec)
    try:
        return cli.main(cli_args)
    except SystemExit as exc:
        return exc.code
    finally:
        rec.dump(spans_path, missing)


# ---------------------------------------------------------------------------
# analysis, used by run.py


def summarize(traces: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer figures for one workload iteration from its processes' span files.

    Raises ValueError when spans do not nest or exceed the traced wall time,
    which would make the self times meaningless.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    import_s = roots = 0.0
    d2_calls = built = distinct = max_dim = flops = out_bytes = 0
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        covered = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                if not p_start <= start <= end <= p_end:
                    raise ValueError(f"span {names[nid]} is not inside its parent {names[spans[parent][0]]}")
                covered[parent] += end - start
        for index, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            own = (end - start) - covered[index]
            if parent < 0:
                roots += end - start
            if name == IMPORT_SPAN:
                import_s += own
                continue
            layer, _, what = name.partition(".")
            self_s[layer] += own
            calls[layer] += what != "import"
            d2_calls += name == "criticality.d2_analytic"
        built += trace["blocks_built"]
        distinct += trace["blocks_distinct"]
        max_dim = max(max_dim, trace["eig_max_dim"])
        flops += trace["eig_flops"]
        out_bytes += trace["output_bytes"]
    unattributed = wall_s - roots
    if unattributed < 0.0:
        raise ValueError(f"spans cover {roots:.6f} s, more than the traced wall time {wall_s:.6f} s")
    metrics = {"cli.import_s": import_s}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
    metrics.update({
        "blocks.distinct_ratio": distinct / built if built else 0.0,
        "eigensolve.max_dim": max_dim,
        "eigensolve.flops_computed": flops,
        "criticality.d2_analytic_calls": d2_calls,
        "output.bytes": out_bytes,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed,
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
