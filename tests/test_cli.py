import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_ring
from outputs import read_table, with_config_file
from torus_qpt.cli import (
    COMMANDS,
    OPTIONS,
    ConfigError,
    build_parser,
    integer,
    main,
    number,
    parse_config,
    positive,
    ring_lengths,
    tolerances,
)
from torus_qpt.output import atomic_write_text, csv_text, fmt_float, json_text


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# serialization helpers


def test_fmt_float_round_trips_doubles():
    for x in (1 / 3, -7444.369610950703, 2.155252e-4, 1e308, -0.0):
        assert float(fmt_float(x)) == x


def test_csv_text_layout():
    text = csv_text(["a", "b"], [[1.0, 0.5], [float("nan"), 2.0]])
    assert text == "a,b\n1,0.5\nnan,2\n"


def test_json_text_trailing_newline():
    assert json_text({"x": 1}).endswith("\n")


def test_atomic_write_creates_directories(tmp_path):
    target = tmp_path / "deep" / "nested" / "file.txt"
    atomic_write_text(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in (tmp_path / "deep" / "nested").iterdir() if p.name != "file.txt"]
    assert leftovers == []


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "file.txt"
    target.write_text("old")
    atomic_write_text(str(target), "new")
    assert target.read_text() == "new"


# ---------------------------------------------------------------------------
# config merging


def test_parse_config_flag_overrides_file():
    assert parse_config("sweep", {"M": 5, "N": 8}, {"N": 12}) == {"M": 5, "N": 12}


def test_parse_config_flag_phi_replaces_file_phi_form():
    cfg = parse_config("sweep", {"phi_over_pi": 0.5}, {"phi": 0.1})
    assert cfg == {"phi": 0.1}
    cfg = parse_config("sweep", {"phi": 0.1}, {"phi_over_pi": 0.5})
    assert cfg == {"phi_over_pi": 0.5}


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("sweep", {"bogus": 1}, None)
    with pytest.raises(ConfigError):
        parse_config("validate", None, {"M": 7})


def test_parse_config_rejects_both_phi_forms():
    with pytest.raises(ConfigError):
        parse_config("sweep", {"phi": 0.1, "phi_over_pi": 0.5}, None)


def test_parse_config_rejects_command_mismatch():
    with pytest.raises(ConfigError):
        parse_config("sweep", {"command": "fidelity"}, None)


def test_parse_config_rejects_bad_convention():
    with pytest.raises(ConfigError):
        parse_config("sweep", {"convention": "bonds"}, None)


# ---------------------------------------------------------------------------
# commands (in-process)


def test_spectrum_writes_csv(tmp_path, capsys):
    code = run_cli(["spectrum", "--lam", "0.5", "--N", "8", "--steps", "64", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "eta," + ",".join(f"e{i}" for i in range(1, 9))
    assert len(lines) == 66
    assert "wrote" in capsys.readouterr().out


def test_spectrum_mode_selection_matches_lambda(tmp_path):
    run_cli(["spectrum", "--mode", "3", "--M", "7", "--N", "8", "--steps", "64", "--out", str(tmp_path / "a")])
    lam = 2.0 * math.cos(3.0 * math.pi / 7.0)
    run_cli(["spectrum", "--lam", str(lam), "--N", "8", "--steps", "64", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "spectrum.csv").read_bytes() == (tmp_path / "b" / "spectrum.csv").read_bytes()


@pytest.mark.parametrize(
    "kind,lam,N,phi",
    [("honeycomb", 0.5, 20, 0.0), ("honeycomb", 0.5, 20, math.pi / 4), ("square", 0.3, 12, math.pi / 4), ("square", 0.3, 2, 0.0)],
)
def test_spectrum_rows_equal_per_ring_solves(tmp_path, kind, lam, N, phi):
    run_cli(["spectrum", "--kind", kind, "--lam", str(lam), "--N", str(N), "--phi", repr(phi), "--out", str(tmp_path)])
    grid = np.linspace(0.0, 1.0, 201)
    rows = [[float(eta)] + list(np.linalg.eigvalsh(dense_ring(kind, lam, N, float(eta), phi))) for eta in grid]
    header = ["eta"] + [f"e{i}" for i in range(1, N + 1)]
    assert (tmp_path / "spectrum.csv").read_text() == csv_text(header, rows)


def test_spectrum_rejects_lam_and_mode_together(tmp_path, capsys):
    code = run_cli(["spectrum", "--lam", "0.5", "--mode", "3", "--M", "7", "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_mode_requires_m(tmp_path):
    assert run_cli(["spectrum", "--mode", "3", "--out", str(tmp_path)]) == 2
    assert run_cli(["spectrum", "--mode", "9", "--M", "7", "--out", str(tmp_path)]) == 2


def test_sweep_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep", "--N", "12", "--steps", "64", "--out", str(a)]) == 0
    assert run_cli(["sweep", "--N", "12", "--steps", "64", "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_dump_blocks(tmp_path):
    code = run_cli(["sweep", "--N", "8", "--steps", "64", "--dump-blocks", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "blocks.csv").read_text().strip().split("\n")
    assert len(lines) == 8  # header + M=7 blocks


def test_sweep_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "sweep", "M": 5, "N": 8, "steps": 64, "phi_over_pi": 0.25}))
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("eta,e_g,d2_numeric,d2_analytic\n")


def test_sweep_missing_config_file(tmp_path, capsys):
    assert run_cli(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_sweep_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run_cli(["sweep", "--config", str(cfg)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_scaling_writes_report(tmp_path):
    code = run_cli(["scaling", "--n-list", "8,12", "--steps", "128", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert data["n_values"] == [8, 12]
    assert set(data["paper_comparison"]["deviations"]) == {
        "eta_slope",
        "eta_intercept",
        "peak_slope",
        "peak_intercept",
    }


def test_scaling_rejects_bad_n_list(tmp_path, capsys):
    assert run_cli(["scaling", "--n-list", "8,13", "--out", str(tmp_path)]) == 2
    assert run_cli(["scaling", "--n-list", "abc", "--out", str(tmp_path)]) == 2
    assert run_cli(["scaling", "--phi", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_scaling_tolerates_trailing_commas(tmp_path):
    assert run_cli(["scaling", "--n-list", "8,12,", "--steps", "128", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert data["n_values"] == [8, 12]


def test_fidelity_writes_curve(tmp_path):
    code = run_cli(["fidelity", "--N", "12", "--delta-steps", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "fidelity.csv").read_text().strip().split("\n")
    assert lines[0] == "delta,f_exact,f_perturbative"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)


def test_fidelity_lambda_zero_needs_explicit_deltas(tmp_path, capsys):
    assert run_cli(["fidelity", "--lam", "0", "--N", "12", "--out", str(tmp_path)]) == 2
    assert "delta" in capsys.readouterr().err
    code = run_cli(
        ["fidelity", "--lam", "0", "--N", "12", "--eta-center", "0.001",
         "--delta-min", "1e-4", "--delta-max", "1e-3", "--out", str(tmp_path)]
    )
    assert code == 0


def test_fidelity_isolation_failure_exits_1(tmp_path, capsys):
    for argv, message in ((["--N", "4", "--phi-over-pi", "0.5"], "isolable"),
                          (["--lam", "0.5", "--N", "100", "--phi-over-pi", "0.25"], "below double resolution")):
        code = run_cli(["fidelity", *argv, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1
        assert list(tmp_path.iterdir()) == []


def test_fidelity_isolation_message_states_a_true_inequality(tmp_path, capsys):
    # the separation 0.444992 is below ten gaps, 1.41278, not below one gap, 0.141278
    assert run_cli(["fidelity", "--lam", "0.999", "--N", "20", "--phi-over-pi", "0.25", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "separation 0.444992 < 10*gap_min = 1.41278 (separation/gap_min = 3.15)" in err


def test_fidelity_convention_moves_only_the_perturbative_column(tmp_path):
    args = ["fidelity", "--lam", "0.5", "--N", "20", "--phi-over-pi", "0.25"]
    columns = {}
    for convention in ("cells", "sites"):
        out = tmp_path / convention
        assert run_cli([*args, "--convention", convention, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "fidelity.csv").read_text().splitlines()]
        columns[convention] = list(zip(*rows))  # delta, f_exact, f_perturbative
    assert columns["sites"][:2] == columns["cells"][:2]
    assert columns["sites"][2] != columns["cells"][2]


def test_square_report(tmp_path):
    code = run_cli(["square", "--n-list", "8,16", "--steps", "80", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "square_report.json").read_text())
    assert data["m"] == 3
    assert data["n_values"] == [8, 16]
    assert len(data["peak_abs"]) == 2
    assert data["flatness_ratio"] == pytest.approx(max(data["peak_abs"]) / min(data["peak_abs"]))
    assert data["no_divergence"] is True
    assert set(data["flags"]) == {"8", "16"}
    assert (tmp_path / "sweep_square_N8.csv").exists()
    assert (tmp_path / "sweep_square_N16.csv").exists()


def test_square_report_flags_a_level_crossing(tmp_path):
    argv = ["square", "--M", "5", "--n-list", "4,8,12", "--phi", "0.7", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    flags = json.loads((tmp_path / "square_report.json").read_text())["flags"]
    assert flags["12"] == ["level-crossing"]


def test_validate_passes_and_prints_checks(tmp_path, capsys):
    code = run_cli(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["pass"] is True
    assert len(report["checks"]) == 9
    for entry in report["checks"]:
        assert set(entry) == {"name", "pass", "measured", "tolerance"}
        assert f"PASS {entry['name']}" in out
    assert isinstance(report["runtime_s"], float)


def test_validate_sites_convention_fails(tmp_path, capsys):
    code = run_cli(["validate", "--convention", "sites", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["pass"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "zero-mode-residual" in failed
    assert "FAIL zero-mode-residual" in out


def test_validate_tolerance_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"zero-mode-residual": 1e-30}}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    cfg.write_text(json.dumps({"tolerances": {"no-such-check": 1.0}}))
    assert run_cli(["validate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_unknown_flag_for_command(tmp_path, capsys):
    assert run_cli(["validate", "--M", "7", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


# The config keys each command accepts; the option table must reproduce them
# exactly. 'convention' goes only to the commands with a perturbative output,
# and 't' not to fidelity, whose outputs are ratios of energies.
ACCEPTED_KEYS = {
    "spectrum": {"command", "out", "kind", "M", "N", "t", "eta", "phi", "phi_over_pi",
                 "lam", "mode", "eta_min", "eta_max", "steps", "dump_blocks"},
    "sweep": {"command", "convention", "out", "kind", "M", "N", "t", "eta", "phi", "phi_over_pi",
              "eta_min", "eta_max", "steps", "dump_blocks"},
    "scaling": {"command", "out", "M", "t", "phi", "phi_over_pi", "n_list", "steps"},
    "fidelity": {"command", "convention", "out", "lam", "N", "phi", "phi_over_pi", "eta_center",
                 "delta_min", "delta_max", "delta_steps"},
    "square": {"command", "out", "M", "t", "phi", "phi_over_pi", "n_list", "eta_min",
               "eta_max", "steps"},
    "validate": {"command", "convention", "out", "tolerances"},
}


# One value per key that its converter accepts (1 for every number and count).
SAMPLE_VALUES = {"convention": "cells", "out": "o", "kind": "square", "n_list": [8, 12], "tolerances": {},
                 "dump_blocks": True}


@pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
def test_accepted_config_keys_per_command(command):
    accepted = set()
    for key in sorted(set().union(*ACCEPTED_KEYS.values()) | {"config", "bogus"}):
        value = {"command": command, **SAMPLE_VALUES}.get(key, 1)
        try:
            parse_config(command, {key: value})
        except ConfigError as exc:
            assert "keys not used" in str(exc), (key, str(exc))
        else:
            accepted.add(key)
    assert accepted == ACCEPTED_KEYS[command]


def test_every_command_parses_every_flag():
    flags = ["--config", "c.json", "--out", "o", "--kind", "square", "--M", "3", "--N", "4", "--t", "2",
             "--eta", "0.5", "--phi", "0.1", "--phi-over-pi", "0.25", "--eta-min", "0", "--eta-max", "1",
             "--steps", "64", "--convention", "sites", "--lam", "0.5", "--mode", "1", "--n-list", "8,12",
             "--eta-center", "0.2", "--delta-min", "0.1", "--delta-max", "1", "--delta-steps", "3",
             "--dump-blocks"]
    parser = build_parser()
    for command in COMMANDS:
        args = vars(parser.parse_args([command] + flags))
        assert args == {
            "command": command, "config": "c.json", "out": "o", "kind": "square", "M": 3, "N": 4, "t": 2.0,
            "eta": 0.5, "phi": 0.1, "phi_over_pi": 0.25, "eta_min": 0.0, "eta_max": 1.0, "steps": 64,
            "convention": "sites", "lam": 0.5, "mode": 1, "n_list": "8,12", "eta_center": 0.2,
            "delta_min": 0.1, "delta_max": 1.0, "delta_steps": 3, "dump_blocks": True,
        }


@pytest.mark.parametrize("payload", ["[]", "null", "0", '""', "[1, 2]"])
def test_config_file_must_be_an_object(tmp_path, capsys, payload):
    cfg = tmp_path / "c.json"
    cfg.write_text(payload)
    assert run_cli(["fidelity", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config file must contain a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "fidelity.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--steps", "10"],
        ["scaling", "--steps", "10"],
        ["square", "--steps", "63"],
        ["sweep", "--eta-min", "2", "--eta-max", "1"],
        ["sweep", "--eta-min", "0.5", "--eta-max", "0.5"],
        ["sweep", "--eta-min", "2"],
        ["sweep", "--eta-min", "-0.5"],
        ["square", "--eta-min", "1", "--eta-max", "0"],
    ],
)
def test_sweep_grid_errors_are_config_errors(tmp_path, capsys, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _table_args(select):
    return [list(row.args) for row in read_table() if select(row)]


def _run_collecting_exit(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag's value with exit 2
        return exc.code


# Every row exits 2 before any work: a converter rejects the value (argparse for a
# flag, parse_config for a file key) or the library rejects the domain.
@pytest.mark.parametrize("argv", _table_args(lambda row: row.exit == 2), ids=" ".join)
def test_rejected_input_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert _run_collecting_exit(with_config_file(argv, tmp_path / "c.json") + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("argv", _table_args(lambda row: row.exit == 2 and "process" in row.tags), ids=" ".join)
def test_rejected_input_exits_2_without_traceback_as_a_process(tmp_path, argv):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "torus_qpt", *with_config_file(argv, tmp_path / "c.json"), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,needs",
    [(["spectrum", "--lam", "0.5", "--N", "20", "--eta", "0.3"], "'eta' needs 'dump_blocks'"),
     (["sweep", "--M", "7", "--N", "20", "--phi-over-pi", "0.25", "--eta", "0.3"], "'eta' needs 'dump_blocks'"),
     (["spectrum", "--lam", "0.5", "--N", "20", "--M", "9"], "'M' needs 'mode' or 'dump_blocks'"),
     (["fidelity", "--t", "2"], "keys not used by command 'fidelity': ['t']")],
)
def test_options_nothing_reads_are_rejected(tmp_path, capsys, argv, needs):
    # nothing reads these values: the output would be byte-identical without them
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert needs in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _sweep_id(argv):
    return " ".join(argv[1:])  # every double-range row is a sweep


@pytest.mark.parametrize("argv", _table_args(lambda row: "double-range" in row.tags), ids=_sweep_id)
def test_sweep_out_of_double_range_exits_1_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "out of double range" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", _table_args(lambda row: {"double-range", "process"} <= row.tags), ids=_sweep_id)
def test_sweep_out_of_double_range_writes_one_stderr_line_as_a_process(tmp_path, argv):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "torus_qpt", *argv, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_output_past_double_range_exits_1_and_writes_nothing(tmp_path, capsys):
    # a square ring at lambda = 2 has levels down to -4t: at t = 1e308 spectrum's levels leave double
    # range, which is one error line and no file, not an inf in spectrum.csv
    argv = ["spectrum", "--kind", "square", "--lam", "2", "--N", "4", "--t", "1e308", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: overflow encountered in multiply\n"
    assert list(tmp_path.iterdir()) == []


def test_unbracketed_scaling_peak_exits_1(tmp_path, capsys):
    assert run_cli(["scaling", "--M", "11", "--n-list", "8,12", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "not bracketed" in err and "Traceback" not in err
    assert not (tmp_path / "scaling.json").exists()


@pytest.mark.parametrize(
    "convert,value,want",
    [(integer, "7", 7), (integer, " -3 ", -3), (integer, 8.0, 8), (integer, 5, 5),
     (number, "1e-3", 1e-3), (number, 2, 2.0), (number, 0.25, 0.25),
     (ring_lengths, "8,12,", [8, 12]), (ring_lengths, [8, 12.0], [8, 12]),
     (tolerances, {"zero-mode-residual": 1}, {"zero-mode-residual": 1.0}), (positive, "1e-3", 1e-3),
     (positive, 2, 2.0)],
)
def test_converters_accept_and_are_idempotent(convert, value, want):
    assert convert(value) == want and type(convert(value)) is type(want)
    assert convert(convert(value)) == want


@pytest.mark.parametrize(
    "convert,value",
    [(integer, 3.5), (integer, "3.5"), (integer, "+-3"), (integer, ""), (integer, True), (integer, None),
     (integer, math.inf), (number, math.nan), (number, -math.inf), (number, "inf"), (number, "abc"),
     (number, 10**400), (number, True), (number, [1]), (ring_lengths, []), (ring_lengths, "8,x"),
     (ring_lengths, 8), (ring_lengths, [8, 8.5]), (tolerances, [1]), (tolerances, {"a": math.nan}),
     (positive, 0), (positive, "-1"), (positive, -0.0), (positive, math.nan), (positive, "inf")],
)
def test_converters_reject(convert, value):
    with pytest.raises(ConfigError):
        convert(value)


def test_option_table_checks_choices_once(capsys):
    with pytest.raises(ConfigError, match="'kind' must be one of"):
        parse_config("sweep", {"kind": "hex"})
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--convention", "bonds"])
    assert "invalid convention value: 'bonds'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("out", 5), ("dump_blocks", 1), ("steps", 64.5), ("eta", "nan")])
def test_parse_config_converts_file_values(key, value):
    with pytest.raises(ConfigError, match=f"'{key}' must be"):
        parse_config("sweep", {key: value})


def _parse_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


@pytest.mark.parametrize(
    "kind,M,N,eta,phi", [("honeycomb", 7, 8, 0.0, math.pi / 4), ("square", 4, 3, 1.0, 0.5)]
)
def test_dump_blocks_content(tmp_path, kind, M, N, eta, phi):
    argv = ["sweep", "--kind", kind, "--M", str(M), "--N", str(N), "--eta", repr(eta), "--phi", repr(phi)]
    assert run_cli(argv + ["--steps", "64", "--dump-blocks", "--out", str(tmp_path)]) == 0
    header, table = _parse_csv(tmp_path / "blocks.csv")
    assert header[:4] == ["k", "lambda", "re_1_1", "im_1_1"] and header[-1] == f"im_{N}_{N}"
    assert table.shape == (M, 2 + 2 * N * N)
    for m, row in enumerate(table, start=1):
        if kind == "honeycomb":
            lam = 2.0 * math.cos(math.pi * m / M)
            ring = dense_ring(kind, lam, N, eta, phi)
        else:
            # cos(k) at k = pi/2 and 3pi/2 is exactly 0 (4m = M, 3M), not the rounded 6e-17
            lam = 0.0 if 4 * m in (M, 3 * M) else 2.0 * math.cos(2.0 * math.pi * m / M)
            ring = dense_ring(kind, lam, N, eta, phi)
        want = np.array([2.0 * math.pi * m / M, lam, *np.stack([ring.real, ring.imag], axis=-1).ravel()])
        assert np.array_equal(row, want), m
        assert np.array_equal(np.signbit(row), np.signbit(want)), m


def test_energies_scale_exactly_with_t(tmp_path, capsys):
    # at t = 2 every energy spectrum, sweep and square write is exactly twice its t = 1 value, while
    # eta_m, the flags and square's flatness ratio do not move
    commands = (["spectrum", "--lam", "0.5", "--N", "20", "--phi-over-pi", "0.25"],
                ["sweep", "--M", "7", "--N", "20", "--phi-over-pi", "0.25"],
                ["square", "--M", "5", "--n-list", "4,8,12", "--phi", "0.7"])
    for argv in commands:
        printed = {}
        for t in ("1", "2"):
            assert run_cli([*argv, "--t", t, "--out", str(tmp_path / argv[0] / t)]) == 0
            printed[t] = capsys.readouterr().out
        unit, scaled = tmp_path / argv[0] / "1", tmp_path / argv[0] / "2"
        for csv_file in sorted(unit.glob("*.csv")):
            (header, table), (_, doubled) = _parse_csv(csv_file), _parse_csv(scaled / csv_file.name)
            assert header[0] == "eta" and np.array_equal(doubled[:, 0], table[:, 0])
            assert np.array_equal(doubled[:, 1:], 2.0 * table[:, 1:], equal_nan=True), csv_file.name
        if argv[0] == "sweep":
            line_1, line_2 = (printed[t].splitlines()[0].split() for t in ("1", "2"))
            assert (line_2[1], line_2[3:]) == (line_1[1], line_1[3:])  # eta_m= and flags=
            assert float(line_2[2][len("peak="):]) == 2.0 * float(line_1[2][len("peak="):])
        if argv[0] == "square":
            report, doubled = (json.loads((d / "square_report.json").read_text()) for d in (unit, scaled))
            assert doubled["peak_abs"] == [2.0 * peak for peak in report["peak_abs"]]
            assert doubled["flatness_ratio"] == report["flatness_ratio"] and doubled["flags"] == report["flags"]


def _central_levels(path, n):
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    lower = np.array([float(r[n // 2] ) for r in rows])
    upper = np.array([float(r[n // 2 + 1]) for r in rows])
    return lower, upper


def test_spectrum_trivial_ring_has_no_midgap_levels(tmp_path):
    # lam = 1.5, phi = 0: no levels detach from the bands anywhere in eta
    run_cli(["spectrum", "--lam", "1.5", "--N", "20", "--phi", "0", "--steps", "100", "--out", str(tmp_path)])
    lower, upper = _central_levels(tmp_path / "spectrum.csv", 20)
    assert np.min(upper - lower) > 0.5


def test_spectrum_topological_ring_exact_crossing(tmp_path):
    # lam = 0.5, phi = 0: midgap pair present, exact crossing at eta = lam^(N/2)
    c = 0.5**10
    run_cli(
        ["spectrum", "--lam", "0.5", "--N", "20", "--phi", "0",
         "--eta-max", str(2 * c), "--steps", "200", "--out", str(tmp_path)]
    )
    lower, upper = _central_levels(tmp_path / "spectrum.csv", 20)
    assert abs(lower[0]) < 1e-2 and abs(upper[0]) < 1e-2  # in-gap pair at eta = 0
    assert np.min(upper - lower) < 1e-4  # crossing reached within the grid


def test_spectrum_avoided_crossing_minimum_gap(tmp_path):
    # lam = 0.5, N = 4, phi = pi/4: minimum gap 2*(t/Omega)*c*|sin(phi)|
    run_cli(
        ["spectrum", "--lam", "0.5", "--N", "4", "--phi-over-pi", "0.25",
         "--eta-max", "0.5", "--steps", "200", "--out", str(tmp_path)]
    )
    lower, upper = _central_levels(tmp_path / "spectrum.csv", 4)
    gap_min = 2.0 * 0.25 * math.sin(math.pi / 4) / 1.25
    # first-order prediction carries O(c^2) corrections at N = 4
    assert np.min(upper - lower) == pytest.approx(gap_min, rel=3e-2)
    assert np.min(upper - lower) > 0.1  # clearly avoided, not a crossing


# ---------------------------------------------------------------------------
# process-level entry points


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torus_qpt", "sweep", "--N", "8", "--steps", "64", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "sweep.csv").exists()
    assert "eta_m" in proc.stdout


def test_module_entry_point_config_error():
    proc = subprocess.run(
        [sys.executable, "-m", "torus_qpt", "sweep", "--phi", "1", "--phi-over-pi", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "torus_qpt", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for command in ("spectrum", "sweep", "scaling", "fidelity", "square", "validate"):
        assert command in proc.stdout


def _module_to_file(tmp_path, *argv):
    """Run `python -m torus_qpt *argv` with stdout going to a file, block-buffered
    (without PYTHONUNBUFFERED, which would hide a lost flush at exit); return the
    finished process, its stderr captured, and the stdout text."""
    log = tmp_path / "stdout.txt"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open(log, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "torus_qpt", *argv], stdout=stdout, stderr=subprocess.PIPE,
                              text=True, env=env)
    return proc, log.read_text()


def test_module_run_flushes_stdout_to_a_file(tmp_path):
    # run() freezes the collector before exit; stdout must still be flushed
    proc, out = _module_to_file(tmp_path, "sweep", "--M", "7", "--N", "20", "--phi-over-pi", "0.25",
                                "--out", str(tmp_path))
    assert proc.returncode == 0
    lines = out.splitlines()
    assert lines[0].startswith("sweep: eta_m=") and lines[-1] == f"wrote {tmp_path / 'sweep.csv'}"


def test_module_help_lists_every_flag(tmp_path):
    proc, out = _module_to_file(tmp_path, "scaling", "--help")
    assert proc.returncode == 0
    assert out.startswith("usage: torus-qpt scaling [-h] [--config CONFIG]")
    flags = ["--config"] + ["--" + key.replace("_", "-") for key, _, setting, *_ in OPTIONS if setting is not None]
    for flag in flags:
        assert f"  {flag}" in out, flag


def test_module_rejection_prints_the_command_usage(tmp_path):
    proc, out = _module_to_file(tmp_path, "sweep", "--eta-max", "inf")
    assert proc.returncode == 2 and out == ""
    assert proc.stderr.startswith("usage: torus-qpt sweep ")
    assert "torus-qpt sweep: error: argument --eta-max:" in proc.stderr


def test_cli_import_and_parser_leave_logging_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, torus_qpt.cli; torus_qpt.cli.build_parser(); sys.exit('logging' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_package_import_suspends_the_collector_and_restores_it(enabled):
    # a finder that records the collector's state whenever NumPy or a package module is looked up
    code = (
        "import gc, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name in ('numpy', 'torus_qpt.blocks', 'torus_qpt.validate'):\n"
        "            seen.append(gc.isenabled())\n"
        "sys.meta_path.insert(0, Spy())\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "import torus_qpt\n"
        "print(seen, gc.isenabled())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == f"[False, False, False] {enabled}\n"
