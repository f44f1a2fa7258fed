"""The scripts under `tools/`: `count_code_lines.py`, which measures the line
budget of `src/`, and the `bench_*.py` timers."""
import os
import sys
from unittest import mock

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import count_code_lines  # noqa: E402

with mock.patch.dict(os.environ):  # the timers pin BLAS threads for their own runs
    import bench_build  # noqa: E402
    import bench_oracle  # noqa: E402

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
    (bench_build, {"graphon.sample", "sim.build"}, set()),
    (bench_oracle, {"riccati.matrix", "oracle.compare"}, {"steps"})])
def test_bench_measure_rows(tool, layers, extra):
    rows = tool.measure(1)
    assert {row["layer"] for row in rows} == layers
    for row in rows:
        assert set(row) == {"layer", "n", "median_ms", "q1_ms", "q3_ms", "repeats"} | extra
        assert row["repeats"] == 1 and row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
