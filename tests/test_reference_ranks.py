"""Reference ranks of the constraint algorithm on every preset.

Each preset's `constrain` report is checked, on both sides and for three
probe seeds, against a table of its exact rank decisions: per level the
(new constraint rank, fiber constraint rank), the stabilization level and the
final fiber dimension. The table holds at the default rank tolerance and with
AMECH_TOL far below it and far above it, where a rank that hung on the
tolerance would move.
"""

import json

import pytest

from amech.cli import main
from amech.presets import ids as preset_ids

# (preset, side): (stabilization level, level ranks, final fiber dimension)
REFERENCE = {
    ("capri_kobayashi", "lagrangian"): (1, [(0, 0), (2, 2)], 6),
    ("capri_kobayashi", "hamiltonian"): (1, [(2, 2), (2, 4)], 4),
    ("lie_algebra_affine", "lagrangian"): (0, [(0, 0)], 6),
    ("lie_algebra_affine", "hamiltonian"): (0, [(2, 2)], 4),
    ("martinet", "lagrangian"): (0, [(0, 0)], 6),
    ("martinet", "hamiltonian"): (0, [(1, 1)], 5),
    ("plate_ball", "lagrangian"): (0, [(0, 0)], 10),
    ("plate_ball", "hamiltonian"): (0, [(3, 3)], 7),
    ("skinner_rusk_demo", "lagrangian"): (0, [(0, 0)], 4),
    ("skinner_rusk_demo", "hamiltonian"): (0, [(0, 0)], 4),
    ("so3_rigid_body", "lagrangian"): (0, [(0, 0)], 6),
    ("so3_rigid_body", "hamiltonian"): (0, [(0, 0)], 6),
    ("tq_pendulum", "lagrangian"): (0, [(0, 0)], 2),
    ("tq_pendulum", "hamiltonian"): (0, [(0, 0)], 2),
}


def test_the_table_covers_every_preset():
    assert {pid for pid, _ in REFERENCE} == set(preset_ids())


@pytest.mark.parametrize("tol", [None, "1e-12", "1e-5"], ids=["default", "1e-12", "1e-5"])
def test_constrain_reaches_the_reference_ranks(tmp_path, monkeypatch, tol):
    if tol is not None:
        monkeypatch.setenv("AMECH_TOL", tol)
    out, manifest = tmp_path / "r.json", tmp_path / "m.json"
    mismatches = []
    for (pid, side), (level, ranks, fiber) in REFERENCE.items():
        for seed in range(3):
            assert main(["constrain", "--preset", pid, "--side", side, "--seed", str(seed),
                         "--out", str(out), "--manifest", str(manifest)]) == 0
            report = json.loads(out.read_text())
            got = {"stabilization_level": report["stabilization_level"],
                   "level ranks": [(lvl["new_constraint_rank"], lvl["fiber_constraint_rank"])
                                   for lvl in report["levels"]],
                   "final_fiber_dimension": report["final_fiber_dimension"]}
            expected = {"stabilization_level": level, "level ranks": ranks,
                        "final_fiber_dimension": fiber}
            mismatches += [f"{pid} {side} seed {seed} AMECH_TOL={tol or 'default'}: "
                           f"{field} {got[field]} != {want}"
                           for field, want in expected.items() if got[field] != want]
    assert not mismatches, "\n".join(mismatches)
