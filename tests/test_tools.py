"""The scripts under `tools/`: `count_code_lines.py`, which measures the line
budget of `src/`, the `bench_*.py` timers and the tree comparison of
`compare_artifacts.py`."""
import json
import os
import sys
from unittest import mock

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import compare_artifacts  # noqa: E402
import count_code_lines  # noqa: E402

with mock.patch.dict(os.environ):  # the timers pin BLAS threads for their own runs
    import bench_artifacts  # noqa: E402
    import bench_build  # noqa: E402
    import bench_common  # noqa: E402
    import bench_law  # noqa: E402
    import bench_oracle  # noqa: E402

import graphon_lqr  # noqa: E402
from graphon_lqr import cli  # noqa: E402

FIXTURE = '''"""Module docstring,
over two lines."""
# a comment line

import os  # a trailing comment counts as code


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        text = """a multi-line string
that is not a docstring"""
        return text + os.sep


async def run():
    """Coroutine docstring."""
    return f(
        1,
    )
'''

# import, class, def, the two lines of `text`, return, async def and the
# three lines of the final return
FIXTURE_CODE_LINES = 10


def test_code_lines_skips_comments_blanks_and_docstrings():
    assert count_code_lines.code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_main_prints_the_total_over_files(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(FIXTURE)
    assert count_code_lines.main(paths) == 0
    assert capsys.readouterr().out == f"{2 * FIXTURE_CODE_LINES}\n"


@pytest.mark.parametrize("tool, layers, extra", [
    (bench_build, {"graphon.kernel", "graphon.sample", "sim.build", "sim.run_cost"}, {"d"}),
    (bench_oracle, {"riccati.matrix", "oracle.compare"}, {"steps"}),
    (bench_artifacts, {"cli.trajectory", "cli.gains", "cli.example_vii"}, {"d", "values"}),
    (bench_law, {"law.call", "law.gains_grid", "sim.generic_loop", "cli.example_vii",
                 "cli.truncation_study"},
     {"d", "steps"})])
def test_bench_measure_rows(tool, layers, extra, monkeypatch):
    # this tree on both sides, each row's calls alternating between them
    monkeypatch.setattr(bench_artifacts, "SIZES", (40,))   # no 325 MB trajectory here
    monkeypatch.setattr(bench_build, "SIZES", (400, 10 ** 4))
    monkeypatch.setattr(bench_oracle, "SIZES", (8, 16, 40, 64))  # no 2 s oracle at n = 256
    monkeypatch.setattr(bench_oracle, "PATH_SIZES", (8,))
    monkeypatch.setattr(bench_common, "MIN_SECONDS", 0.0)
    package = (graphon_lqr, cli)
    rows = bench_common.measure(tool.cases, dict.fromkeys(bench_common.SIDES, package), 2)
    assert {row["layer"] for row in rows} == layers
    if tool is bench_oracle:  # the full Riccati path is timed at PATH_SIZES alone
        assert [(row["layer"], row["n"]) for row in rows] == [
            ("riccati.matrix", 8), *(("oracle.compare", n) for n in (8, 16, 40, 64))]
    if tool is bench_build:  # a run's rows also name its steps: K = 1000, and 10^4 once
        assert [(row["n"], row["steps"]) for row in rows if row["layer"] == "sim.run_cost"] == [
            (400, 1000), (10 ** 4, 1000), bench_build.LONG_RUN]
    for row in rows:
        run = {"steps"} if row["layer"] == "sim.run_cost" else set()
        assert set(row) == {"layer", "n", "parent", "change", "ratio", "repeats",
                            "resolved"} | extra | run
        assert row["resolved"] is bench_common.resolved(row)
        assert row["repeats"] == 2
        for side in bench_common.SIDES:
            stats = row[side]
            assert set(stats) == {"median_ms", "q1_ms", "q3_ms"}
            assert 0.0 < stats["q1_ms"] <= stats["median_ms"] <= stats["q3_ms"]
        assert row["ratio"] == round(row["change"]["median_ms"]
                                     / row["parent"]["median_ms"], 3)


def test_bench_sides_must_time_the_same_rows():
    def cases(gl, _cli):
        yield {"layer": gl, "n": 1}, lambda: None, None

    with pytest.raises(ValueError, match="different rows"):
        bench_common.measure(cases, {"parent": ("a", None), "change": ("b", None)}, 1)


def test_bench_alternates_the_sides(monkeypatch):
    # one warm-up call each, then the side that goes first alternates over
    # an even count
    monkeypatch.setattr(bench_common, "MIN_SECONDS", 0.0)
    order = []
    calls = {side: ((lambda side=side: order.append(side)), None)
             for side in bench_common.SIDES}
    count, stats = bench_common.timed(calls, 3)
    assert count == 4
    assert order == ["parent", "change", "parent", "change", "change", "parent",
                     "parent", "change", "change", "parent"]
    assert set(stats) == set(bench_common.SIDES)


def test_bench_repeats_cheap_calls_to_fill_a_minimum_time(monkeypatch):
    monkeypatch.setattr(bench_common, "MIN_SECONDS", 1e9)
    monkeypatch.setattr(bench_common, "MAX_REPEATS", 7)
    calls = dict.fromkeys(bench_common.SIDES, (lambda: None, None))
    assert bench_common.timed(calls, 3)[0] == 8  # 7, made even


@pytest.mark.parametrize("change, expected", [
    ((1.2, 1.6, 2.4), False),  # each median inside the other side's quartiles
    ((1.2, 1.6, 1.7), False),
    ((1.6, 2.2, 3.0), True),   # the parent's median below the change's quartiles
    ((0.2, 1.2, 1.4), True),   # the change's median inside, the parent's not
    ((2.1, 2.5, 2.8), True),   # no overlap at all
])
def test_bench_resolves_only_medians_outside_each_others_quartiles(change, expected):
    stats = {"parent": {"q1_ms": 1.0, "median_ms": 1.5, "q3_ms": 2.0},
             "change": dict(zip(("q1_ms", "median_ms", "q3_ms"), change))}
    assert bench_common.resolved(stats) is expected


def test_bench_main_flags_an_unresolved_row(tmp_path, monkeypatch, capsys):
    stats = {"parent": {"q1_ms": 1.0, "median_ms": 1.5, "q3_ms": 2.0},
             "change": {"q1_ms": 1.2, "median_ms": 1.6, "q3_ms": 2.4}}
    monkeypatch.setattr(bench_common, "timed", lambda calls, repeats: (2, stats))
    monkeypatch.setattr(bench_common, "_load", lambda path, name: (None, None))
    out = tmp_path / "BENCH_test.json"
    monkeypatch.setattr(sys, "argv", ["bench", "--parent-src", os.path.dirname(
        os.path.dirname(graphon_lqr.__file__)), "--out", str(out)])

    def cases(_gl, _cli):
        yield {"layer": "grid", "n": 3}, None, None

    bench_common.main("A test timer.", cases, "unused.json", "a grid")
    [row] = json.loads(out.read_text())["rows"]
    assert (row["ratio"], row["resolved"]) == (1.067, False)
    assert capsys.readouterr().out.rstrip().endswith("ratio 1.067  unresolved")


def test_bench_main_imports_the_parent_under_a_second_name(tmp_path, monkeypatch, capsys):
    seen = []

    def cases(gl, cli):
        seen.append((gl.__name__, cli.__name__))
        yield {"layer": "grid", "n": 3}, gl.uniform_grid, lambda: (1.0, 0.5)

    out = tmp_path / "BENCH_test.json"
    monkeypatch.setattr(sys, "argv", ["bench", "--parent-src", os.path.dirname(
        os.path.dirname(graphon_lqr.__file__)), "--repeats", "3", "--out", str(out)])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench_common, "MIN_SECONDS", 0.0)
    try:
        bench_common.main("A test timer.", cases, "unused.json", "a grid")
    finally:  # the copy is gone: forget its modules
        for name in [m for m in sys.modules if m.split(".")[0] == "graphon_lqr_parent"]:
            del sys.modules[name]
    assert seen == [("graphon_lqr_parent", "graphon_lqr_parent.cli"),
                    ("graphon_lqr", "graphon_lqr.cli")]
    bench = json.loads(out.read_text())
    assert [row["layer"] for row in bench["rows"]] == ["grid"]
    assert bench["setup"]["problem"] == "a grid"
    assert "ratio" in capsys.readouterr().out


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_compare_trees_agree(tmp_path):
    files = {"run/cost.json": "{}\n", "run/stdout.txt": "J=1\n",
             "run/trajectory.csv": "t,x_1,u_1\n0,1,2\n"}
    write_tree(tmp_path / "a", files)
    write_tree(tmp_path / "b", files)
    assert compare_artifacts.compare_trees(str(tmp_path / "a"), str(tmp_path / "b")) == []


def test_compare_trees_names_every_difference(tmp_path):
    # a file on one side only, a differing text file with its first
    # differing line, and a CSV gap per column group, NaN equal to NaN
    write_tree(tmp_path / "a", {
        "old.txt": "x\n", "run/exit_code.txt": "0\n",
        "run/gains.csv": "t,L,M_1,M_2\n0,1,nan,4\n1,2,3,4\n",
        "run/trajectory.csv": "t,x_1,x_2,u_1,u_2\n0,1,2,-4,8\n"})
    write_tree(tmp_path / "b", {
        "new.txt": "x\n", "run/exit_code.txt": "3\n",
        "run/gains.csv": "t,L,M_1,M_2\n0,1,nan,4\n1,2,3,4.5\n",
        "run/trajectory.csv": "t,x_1,x_2,u_1,u_2\n0,1,2,-4,7.5\n"})
    lines = compare_artifacts.compare_trees(str(tmp_path / "a"), str(tmp_path / "b"))
    assert lines == [
        "only in parent: old.txt",
        "only in change: new.txt",
        "run/exit_code.txt: line 1 differs: '0' vs '3'",
        "run/gains.csv: values differ: M 1.25e-01 (max|a - b|/max|a|)",
        "run/trajectory.csv: values differ: u 6.25e-02 (max|a - b|/max|a|)",
    ]


def test_compare_trees_csv_shape(tmp_path):
    write_tree(tmp_path / "a", {"t.csv": "t,x_1\n0,1\n"})
    write_tree(tmp_path / "b", {"t.csv": "t,x_1\n0,1\n1,1\n"})
    assert compare_artifacts.compare_trees(str(tmp_path / "a"), str(tmp_path / "b")) == [
        "t.csv: shapes differ: (1, 2) and (2, 2)"]
