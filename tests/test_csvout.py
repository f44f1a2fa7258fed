"""The CSV writer: byte for byte what ``np.savetxt(fmt="%.17g")`` writes."""
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphon_lqr import cli, csvout
from graphon_lqr.sim import TruncationRow


def joined(header, rows) -> bytes:
    """``'%.17g' % v`` joined as `np.savetxt` joins it, with the header line."""
    lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def savetxt_bytes(path, header, table) -> bytes:
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header),
               comments="")
    return path.read_bytes()


def written(path, header, columns) -> bytes:
    csvout.write_csv(str(path), header, columns)
    return path.read_bytes()


def header_of(width):
    return [f"c{k}" for k in range(width)]


def shapes(max_rows=12, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(table=arrays(np.float64, shapes(),
                    elements=st.floats(allow_nan=True, allow_infinity=True,
                                       allow_subnormal=True)))
def test_floats_match_percent_format(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("floats") / "t.csv"
    header = header_of(table.shape[1])
    assert written(path, header, [table]) == joined(header, table)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(bits=arrays(np.uint64, shapes(), elements=st.integers(0, 2 ** 64 - 1)))
def test_raw_bit_patterns_match_percent_format(tmp_path_factory, bits):
    table = bits.view(np.float64)
    path = tmp_path_factory.mktemp("bits") / "t.csv"
    header = header_of(table.shape[1])
    assert written(path, header, [table]) == joined(header, table)


def exact_ties():
    """Doubles whose exact decimal value has 18 significant digits, the last a
    5: ``'%.17g'`` rounds each of them half to even."""
    ties = [2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 1e14 + 0.125, 1e14 + 0.375,
            1e13 + 0.0625, 1.0 + 2.0 ** -17, 3.0 + 2.0 ** -17, 7.0 - 2.0 ** -17]
    for v in ties:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    return ties


def edge_values():
    values = [0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e-290, 1e290, math.nan, math.inf, -math.inf]
    for k in range(-6, 19):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    for p in (1e-4, 1e-5, 1e16, 1e17, 1e-290, 1e290):
        below = np.nextafter(p, 0.0)
        values += [below, np.nextafter(below, 0.0), np.nextafter(p, math.inf)]
    values += [2.0 ** 53 + k for k in range(-4, 8, 2)] + [2.0 ** 60, 2.0 ** 63, 2.0 ** 64]
    # doubles below a power of ten by less than half a unit of the 17th digit,
    # which round up to it: 17 nines carry into an 18th digit
    values += [1e-243, 1e-79, 1e-14, 1e98, 1e153, 1e220]
    values += exact_ties()
    values = np.array(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_edge_values_match_percent_format(tmp_path):
    values = edge_values()
    assert "%.17g" % 1e-14 == "1e-14" and 1e-14 < Decimal("1e-14")
    table = values.reshape(-1, 2)
    assert written(tmp_path / "t.csv", ["a", "b"], [table]) == joined(["a", "b"], table)


def test_exact_ties_round_half_to_even(tmp_path):
    text = written(tmp_path / "t.csv", ["v"], [np.array(exact_ties())]).decode()
    assert text.splitlines()[1:] == ["1125899906842624.2", "1125899906842624.8",
                                     "100000000000000.12", "100000000000000.38",
                                     "10000000000000.062", "1.0000076293945312",
                                     "3.0000076293945312", "6.9999923706054688"]


@pytest.mark.parametrize("rows, width", [
    (1, 1), (1, 9), (csvout._BLOCK // 7 * 3 + 5, 7), (3, csvout._BLOCK + 5)])
def test_shapes_match_savetxt(tmp_path, rows, width):
    rng = np.random.default_rng(rows * width)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 20, (rows, width))
    header = header_of(width)
    expected = savetxt_bytes(tmp_path / "ref.csv", header, table)
    assert written(tmp_path / "t.csv", header, [table]) == expected
    # the same table as a column and a block of columns, never stacked
    assert written(tmp_path / "s.csv", header, [table[:, 0], table[:, 1:]]) == expected


@pytest.mark.parametrize("block", [1, 5, 8])
def test_small_blocks_split_rows(tmp_path, monkeypatch, block):
    monkeypatch.setattr(csvout, "_BLOCK", block)
    table = np.arange(42.0).reshape(6, 7) / 3.0 - 4.0
    table[2, 3] = math.nan
    expected = savetxt_bytes(tmp_path / "ref.csv", header_of(7), table)
    assert written(tmp_path / "t.csv", header_of(7), [table[:, 0], table[:, 1:]]) == expected


@pytest.mark.parametrize("block", [5, csvout._BLOCK])
def test_zeros_nans_and_infinities_match_savetxt(tmp_path, monkeypatch, block):
    # the texts of 0, -0, NaN of either sign and +-inf come from a table, here
    # among values in and out of [1e-290, 1e290) in the same blocks
    monkeypatch.setattr(csvout, "_BLOCK", block)
    rng = np.random.default_rng(39)
    specials = np.array([0.0, -0.0, math.nan, np.copysign(math.nan, -1.0), math.inf,
                         -math.inf])
    table = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-300, 300, (50, 6))
    pick = rng.random(table.shape) < 0.4
    table[pick] = rng.choice(specials, pick.sum())
    table[0] = specials
    assert np.signbit(table[0, 3])
    header = header_of(6)
    expected = savetxt_bytes(tmp_path / "ref.csv", header, table)
    assert written(tmp_path / "t.csv", header, [table[:, 0], table[:, 1:]]) == expected
    assert expected.splitlines()[1] == b"0,-0,nan,nan,inf,-inf"


def truncation_rows(d, nan_columns):
    rows = []
    for level in range(d + 1):
        measured = np.linspace(0.1, 0.9, d) * (level + 1)
        predicted = np.where(np.arange(d) < level, np.nan, measured / 3.0)
        measured[nan_columns] = np.nan
        rows.append(TruncationRow(level, 1.0 + level / 7.0, 1.0, measured, predicted))
    return rows


@pytest.mark.parametrize("rows", [truncation_rows(3, [0, 2]), truncation_rows(1, [0]), []])
def test_truncation_csv_matches_savetxt(tmp_path, rows):
    path = tmp_path / "truncation.csv"
    cli.write_truncation_csv(str(path), rows)
    d = rows[0].measured_ratio.size if rows else 0
    header = path.read_text().splitlines()[0].split(",")
    assert len(header) == 3 + 2 * d
    table = np.array([[r.level, r.j_truncated, r.j_optimal,
                       *r.measured_ratio, *r.predicted_ratio] for r in rows])
    assert path.read_bytes() == savetxt_bytes(tmp_path / "ref.csv", header, table)
    if not rows:
        assert path.read_bytes() == b"L,J_truncated,J_optimal\n"


def test_example_vii_artifacts_match_savetxt(tmp_path, monkeypatch):
    tables = {}

    def recording(path, header, columns):
        tables[path] = (header, np.column_stack(columns))
        csvout.write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", recording)
    assert cli.main(["example-vii", "--out", str(tmp_path / "out")]) == 0
    names = sorted(p.rsplit("/", 1)[-1] for p in tables)
    assert names == ["gains.csv", "trajectory.csv"]
    for path, (header, table) in tables.items():
        ref = tmp_path / "ref.csv"
        with open(path, "rb") as fh:
            assert fh.read() == savetxt_bytes(ref, header, table), path
