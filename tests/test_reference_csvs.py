"""Every preset's `simulate` CSVs against the committed references.

The references under reference_csvs/ are written by make_reference_csvs.py.
A run matches its reference when it has the same columns and rows and every
column is within 1e-12 of that column's largest |value| in the reference. A
change that moves an output past this bound regenerates the references with
the script and says which outputs moved and by how much.
"""

import pathlib

import numpy as np
import pytest

from make_reference_csvs import DIRECTORY, csv_name, runs, simulate

RELATIVE_BOUND = 1e-12


def _read(path: pathlib.Path) -> tuple[list[str], np.ndarray]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def column_mismatches(got: pathlib.Path, want: pathlib.Path) -> list[str]:
    """One line per column of got that is off from want by more than the
    bound, naming the column and its largest difference; a different header
    or row count is one line."""
    (got_names, got_rows), (want_names, want_rows) = _read(got), _read(want)
    if got_names != want_names:
        return [f"columns {got_names} != {want_names}"]
    if got_rows.shape != want_rows.shape:
        return [f"{got_rows.shape[0]} rows != {want_rows.shape[0]}"]
    out = []
    for name, g, w in zip(want_names, got_rows.T, want_rows.T):
        worst = float(np.max(np.abs(g - w)))
        scale = float(np.max(np.abs(w)))
        if not worst <= RELATIVE_BOUND * scale:
            out.append(f"column {name}: largest difference {worst:.3e} "
                       f"(bound {RELATIVE_BOUND * scale:.3e})")
    return out


def test_every_preset_mode_has_a_reference():
    names = {csv_name(*run) for run in runs()}
    assert names == {path.name for path in DIRECTORY.glob("*.csv")}


@pytest.mark.parametrize("pid, mode, method", runs())
def test_simulate_matches_its_reference_csv(pid, mode, method, tmp_path):
    got = simulate(pid, mode, method, tmp_path)
    problems = column_mismatches(got, DIRECTORY / got.name)
    assert not problems, f"{pid} --mode {mode} ({method}): " + "; ".join(problems)


def test_a_moved_column_is_named(tmp_path):
    want = DIRECTORY / csv_name("tq_pendulum", "el", "rk4")
    names, rows = _read(want)
    rows[7, 1] *= 1.0 + 1e-10
    moved = tmp_path / want.name
    moved.write_text(",".join(names) + "\n"
                     + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))
    assert column_mismatches(want, want) == []
    [problem] = column_mismatches(moved, want)
    assert problem.startswith(f"column {names[1]}: largest difference")
