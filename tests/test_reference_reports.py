"""Every preset's `constrain` residuals against the committed references.

The reference in reference_reports.json is written by
make_reference_reports.py: for each preset, side and probe seed 0 to 2, the
report's per-level `probe_residuals` and its `final_solve_residual`. The
residuals are rounding noise (at most a few 1e-15 on the presets) of points
projected until they are below 1e-12, so a run matches its reference when it
has the same levels and probes and every residual is within ABSOLUTE_BOUND of
its reference: a projection that lands elsewhere, or a final solve that
degrades, moves one by more. A change that moves a residual past this bound
regenerates the reference with the script and says which reports moved and by
how much.
"""

import json

import pytest

from make_reference_reports import PATH, key, residuals, runs

ABSOLUTE_BOUND = 1e-13

REFERENCE = json.loads(PATH.read_text())


def mismatches(got: dict, want: dict) -> list[str]:
    """One line per residual of got that is off from want by more than the
    bound; a different number of levels or probes is one line."""
    shape = [len(level) for level in want["probe_residuals"]]
    if [len(level) for level in got["probe_residuals"]] != shape:
        return [f"probe residual shape {[len(lvl) for lvl in got['probe_residuals']]} "
                f"!= {shape}"]
    pairs = [(f"level {k} probe {p}", g, w)
             for k, (gl, wl) in enumerate(zip(got["probe_residuals"], want["probe_residuals"]))
             for p, (g, w) in enumerate(zip(gl, wl))]
    pairs.append(("final_solve_residual", got["final_solve_residual"],
                  want["final_solve_residual"]))
    return [f"{where}: {g:.3e} != {w:.3e}" for where, g, w in pairs
            if not abs(g - w) <= ABSOLUTE_BOUND]


def test_every_report_has_a_reference():
    assert {key(*run) for run in runs()} == set(REFERENCE)
    assert len(REFERENCE) == 42


@pytest.mark.parametrize("pid, side, seed", runs())
def test_constrain_residuals_match_their_reference(pid, side, seed, tmp_path):
    problems = mismatches(residuals(pid, side, seed, tmp_path), REFERENCE[key(pid, side, seed)])
    assert not problems, f"{pid} {side} seed {seed}: " + "; ".join(problems)


def test_a_moved_residual_is_named():
    want = REFERENCE[key("capri_kobayashi", "hamiltonian", 0)]
    moved = json.loads(json.dumps(want))
    moved["probe_residuals"][1][2] += 2 * ABSOLUTE_BOUND
    assert mismatches(want, want) == []
    [problem] = mismatches(moved, want)
    assert problem.startswith("level 1 probe 2:")
    moved["probe_residuals"][1].pop()
    [problem] = mismatches(moved, want)
    assert problem.startswith("probe residual shape")
