"""The command-line table parses, and `compare` reports every kind of
difference between two runs, on small synthetic run trees."""

import json
import math
import os
import re
import shlex
import shutil

import pytest

from outputs import MEASURES, TESTS, check_measures, compare_trees, read_allow, read_table, row_problems

TAGS = {"readme", "stress", "fails", "double-range", "process"} | set(MEASURES)

SWEEP = "eta,e_g\n0,-7444.3845132354072\n0.5,-7440.25\n"
SCALING = {"n_values": [8, 12], "fit_eta": {"slope": -0.40479345801634142, "r2": 1}, "flags": {"8": []}}
VALIDATE = {"checks": [{"name": "a", "pass": True, "measured": 1e-15}], "pass": True, "runtime_s": 0.12}
STDOUT = "PASS a: measured=1e-15\nPASS (1 checks, 0.12 s)\nwrote out/validate.json\n"


def test_table_rows_are_distinct_and_tagged_from_the_known_set():
    rows = read_table()
    assert len({row.args for row in rows}) == len(rows)
    assert set().union(*(row.tags for row in rows)) <= TAGS
    assert {row.exit for row in rows} == {0, 1, 2}
    assert all(row.exit == 1 for row in rows if "fails" in row.tags)
    assert len(read_table("readme")) == 8


def test_same_eta_m_measure_reads_the_printed_eta_m(tmp_path):
    deviation = MEASURES["same-eta-m"][2]
    dirs = []
    for name, eta_m in (("a", "0.00021552296749367968"), ("b", "0.00021552296393136252"), ("c", "2.1552296749367968e-4")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "stdout").write_text(f"sweep: eta_m={eta_m} peak=-7444.38 flags=[]\nwrote out/sweep.csv\n")
        dirs.append(tmp_path / name)
    assert deviation([dirs[0], dirs[2]]) == 0.0
    assert deviation(dirs) == pytest.approx(1.653e-8, rel=1e-3)
    assert deviation(dirs[:1]) == math.inf
    (tmp_path / "b" / "stdout").write_text("error: out of range\n")
    assert deviation(dirs) == math.inf


def test_same_eta_m_measure_reads_the_analytic_eta_m_too(tmp_path):
    # the parent of the single extremum finder printed these two analytic eta_m on the tagged rows
    deviation = MEASURES["same-eta-m"][2]
    dirs = []
    for name, analytic in (("a", "0.00021552303526736061"), ("b", "0.00021552303526726379"), ("c", None)):
        lines = ["sweep: eta_m=0.00021552296749367968 peak=-7444.38 flags=[]"]
        lines += [] if analytic is None else [f"sweep (analytic): eta_m={analytic} peak=-7441.78"]
        (tmp_path / name).mkdir()
        (tmp_path / name / "stdout").write_text("\n".join(lines + ["wrote out/sweep.csv\n"]))
        dirs.append(tmp_path / name)
    assert deviation([dirs[0], dirs[0]]) == 0.0
    assert deviation(dirs[:2]) == pytest.approx(4.49e-13, rel=1e-2)
    assert deviation(dirs[:2]) > MEASURES["same-eta-m"][1]
    assert deviation([dirs[0], dirs[2]]) == deviation([dirs[2], dirs[0]]) == math.inf



def test_a_measure_runs_only_over_every_row_of_its_tag(tmp_path):
    # `run --tag readme` holds one of the two same-eta-m rows: the measure read it alone and failed with inf
    tagged = read_table("same-eta-m")
    for row, analytic in zip(tagged, ("0.00021552303526736061", "0.00021552303526726379")):
        (tmp_path / row.name).mkdir()
        (tmp_path / row.name / "stdout").write_text(
            f"sweep: eta_m=0.00021552296749367968 peak=-7444.38 flags=[]\n"
            f"sweep (analytic): eta_m={analytic} peak=-7441.78\nwrote out/sweep.csv\n")
    label = MEASURES["same-eta-m"][0]
    lines, failed = check_measures(tmp_path, read_table("readme"), set())
    assert failed == 0 and f"{label}: skipped (1/2 rows ran)" in lines
    assert len(lines) == len(MEASURES) and all("skipped" in line for line in lines)
    lines, failed = check_measures(tmp_path, tagged, {tagged[0].args})
    assert failed == 0 and f"{label}: skipped (the --allow file names row {tagged[0].name})" in lines
    lines, failed = check_measures(tmp_path, tagged, set())
    assert failed == 1 and f"{label}: 4.49e-13 (bound 1e-14)" in lines
    # the full table runs every measure: here the others find no outputs and fail
    lines, failed = check_measures(tmp_path, read_table(), set())
    assert failed == len(MEASURES) and not any("skipped" in line for line in lines)


def test_readme_example_block_is_the_tables_readme_rows():
    # the README's example block is its fenced sh block that ends with `validate --convention sites`;
    # its torus-qpt lines, trailing comments stripped, are the `readme` rows in table order
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    blocks = [[shlex.split(line, comments=True) for line in block.splitlines()]
              for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)]
    examples = [block for block in blocks if block and block[-1] == ["torus-qpt", "validate", "--convention", "sites"]]
    assert len(examples) == 1
    lines = [tuple(words[1:]) for words in examples[0] if words[:1] == ["torus-qpt"]]
    assert lines == [row.args for row in read_table("readme")]


def _tree(root, exit=0, stdout=STDOUT, stderr="", files=None):
    files = {"sweep.csv": SWEEP, "scaling.json": json.dumps(SCALING), "validate.json": json.dumps(VALIDATE)} \
        if files is None else files
    row = root / "00"  # laid out as `outputs.py run` leaves a row
    (row / "out").mkdir(parents=True)
    for name, text in {"row": "0 | readme | validate\n", "exit": f"{exit}\n", "stdout": stdout, "stderr": stderr}.items():
        (row / name).write_text(text)
    for name, text in files.items():
        (row / "out" / name).write_text(text)
    return root


def test_a_written_file_must_have_the_mode_open_gives(tmp_path):
    previous = os.umask(0o022)
    try:
        row = _tree(tmp_path) / "00"
        assert row_problems(read_table()[0], row) == []
        (row / "out" / "sweep.csv").chmod(0o600)
        assert row_problems(read_table()[0], row) == [
            "out/sweep.csv has mode 0o600, not 0o644 (what open() gives under umask 0o22)"]
    finally:
        os.umask(previous)


def _compare(tmp_path, allow=frozenset(), **changes):
    report, same = compare_trees(_tree(tmp_path / "a"), _tree(tmp_path / "b", **changes), frozenset(allow))
    return "\n".join(report), same


def test_identical_trees_show_no_difference(tmp_path):
    report, same = _compare(tmp_path)
    assert same and report.startswith("identical 00  validate")
    assert report.endswith("1 rows identical, 0 differ only in allowed files, 0 differ")


def test_one_ulp_in_a_csv_cell_is_reported_by_file_and_column(tmp_path):
    nudged = SWEEP.replace("-7444.3845132354072", repr(math.nextafter(-7444.3845132354072, 0.0)))
    report, same = _compare(tmp_path, files={"sweep.csv": nudged, "scaling.json": json.dumps(SCALING),
                                             "validate.json": json.dumps(VALIDATE)})
    ulp = math.ulp(7444.3845132354072)
    assert not same
    assert f"sweep.csv: column e_g: 1 value differs, max abs {ulp:.3g}, max rel {ulp / 7444.3845132354072:.3g}" \
        in report


def test_one_json_leaf_is_reported_by_its_key_path(tmp_path):
    changed = {**SCALING, "fit_eta": {"slope": -0.405, "r2": 1}}
    report, same = _compare(tmp_path, files={"sweep.csv": SWEEP, "scaling.json": json.dumps(changed),
                                             "validate.json": json.dumps(VALIDATE)})
    assert not same
    assert "scaling.json: fit_eta.slope: 1 value differs, max abs 0.000207" in report
    assert "r2" not in report and "n_values" not in report


def test_validate_runtime_and_its_timing_line_do_not_count(tmp_path):
    report, same = _compare(tmp_path, stdout=STDOUT.replace("0.12 s", "3.45 s"), files={
        "sweep.csv": SWEEP, "scaling.json": json.dumps(SCALING), "validate.json": json.dumps({**VALIDATE, "runtime_s": 3.45})})
    assert same, report


@pytest.mark.parametrize(
    "changes,note",
    [({"files": {"sweep.csv": SWEEP, "validate.json": json.dumps(VALIDATE)}}, "scaling.json: only in A"),
     ({"exit": 1}, "exit code 0 -> 1"),
     ({"stderr": "error: boom\n"}, "stderr: 0 -> 1 lines"),
     ({"stdout": STDOUT.replace("PASS a", "FAIL a")}, "stdout line 1: 'PASS a: measured=1e-15' -> 'FAIL a: measured=1e-15'")],
    ids=["missing-file", "exit-code", "stderr", "stdout"],
)
def test_each_kind_of_difference_is_reported(tmp_path, changes, note):
    report, same = _compare(tmp_path, **changes)
    assert not same and f"    {note}" in report.splitlines()


def test_an_allowed_file_is_reported_but_does_not_fail(tmp_path):
    files = {"sweep.csv": SWEEP.replace("-7440.25", "-7440.5"), "scaling.json": json.dumps(SCALING),
             "validate.json": json.dumps(VALIDATE)}
    report, same = _compare(tmp_path, allow={"sweep*.csv"}, files=files)
    assert same
    assert "allowed   00  validate" in report
    assert "    allowed: sweep.csv: column e_g: 1 value differs, max abs 0.25, max rel 3.36e-05" in report
    # an exit code cannot be allowed
    assert not _compare(tmp_path / "again", allow={"*"}, exit=1)[1]


def test_a_row_missing_from_one_tree_fails(tmp_path):
    a = _tree(tmp_path / "a")
    (tmp_path / "b").mkdir()
    report, same = compare_trees(a, tmp_path / "b")
    assert not same and "    only in A" in report


MOVED_SWEEP = SWEEP.replace("-7440.25", "-7440.5")
MOVED_STDOUT = STDOUT.replace("measured=1e-15", "measured=2e-15")


@pytest.mark.parametrize(
    "sweep,stdout,note",
    [(MOVED_SWEEP, MOVED_STDOUT, "    allowed: stdout line 1 number 1: 1e-15 -> 2e-15, abs 1e-15, rel 0.5"),
     (MOVED_SWEEP, MOVED_STDOUT.replace("PASS a", "FAIL a"),
      "    stdout line 1: 'PASS a: measured=1e-15' -> 'FAIL a: measured=2e-15'"),
     (SWEEP, MOVED_STDOUT, "    stdout line 1: 'PASS a: measured=1e-15' -> 'PASS a: measured=2e-15'")],
    ids=["allowed", "text-differs", "no-allowed-file-differs"],
)
def test_printed_numbers_move_only_with_an_allowed_file(tmp_path, sweep, stdout, note):
    files = {"sweep.csv": sweep, "scaling.json": json.dumps(SCALING), "validate.json": json.dumps(VALIDATE)}
    report, same = _compare(tmp_path, allow={"sweep*.csv"}, stdout=stdout, files=files)
    assert same == note.startswith("    allowed:")
    assert note in report.splitlines()


@pytest.mark.parametrize("entry", ["row: validate", "row: validate --convention sites"], ids=["named", "unnamed"])
def test_a_row_named_in_the_allow_file_may_differ(tmp_path, entry):
    # a row the parent commit runs differently (a row added with the change that mends it)
    report, same = _compare(tmp_path, allow={entry}, exit=2, stdout="", stderr="error: rejected\n", files={})
    assert same == (entry == "row: validate")
    assert ("allowed   00  validate" in report) == same
    prefix = "    allowed: " if same else "    "
    for note in ("exit code 0 -> 2", "stderr: 0 -> 1 lines", "sweep.csv: only in A"):
        assert prefix + note in report.splitlines()


def test_every_row_entry_of_the_allow_file_names_a_row_of_the_table(tmp_path):
    read_allow(TESTS / "outputs_allow.txt")  # the committed list names no stale row
    stale = tmp_path / "allow.txt"
    stale.write_text("sweep.csv\nrow: validate\nrow: sweep --M 7 --N 801\n")
    with pytest.raises(SystemExit, match="does not have: sweep --M 7 --N 801$"):
        read_allow(stale)


@pytest.mark.parametrize("entry", ["row: validate", "sweep*.csv"], ids=["row", "pattern"])
def test_a_stale_allow_entry_fails(tmp_path, entry):
    # the trees are identical, so the entry allows nothing: the parent already runs the row as the table says
    report, same = _compare(tmp_path, allow={entry})
    assert not same
    assert report.splitlines()[-1] == f"stale allow entry: {entry}"


def test_only_the_compared_rows_make_an_entry_stale(tmp_path):
    # row 00 (readme) is identical; row 01 (stress) differs only in sweep.csv
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    for root, sweep in ((a, SWEEP), (b, MOVED_SWEEP)):
        shutil.copytree(root / "00", root / "01")
        (root / "01" / "row").write_text("0 | stress | sweep\n")
        (root / "01" / "out" / "sweep.csv").write_text(sweep)
    for allow in ({"sweep*.csv"}, {"row: sweep"}):
        assert compare_trees(a, b, frozenset(allow))[1]
    # under --tag readme row 01 is not compared: its difference uses no pattern, and no `row:` entry of it is stale
    report, same = compare_trees(a, b, frozenset({"sweep*.csv"}), tag="readme")
    assert not same and report[-1] == "stale allow entry: sweep*.csv"
    assert compare_trees(a, b, frozenset({"row: sweep"}), tag="readme")[1]
    assert not compare_trees(a, b, frozenset({"row: validate"}), tag="readme")[1]
