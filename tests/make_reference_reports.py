"""Write the reference `constrain` residuals that test_reference_reports.py
compares against: for every preset, both sides and probe seeds 0, 1 and 2,
the report's per-level `probe_residuals` and its `final_solve_residual`.
Run from the repository root, on the commit whose outputs become the
reference:

    PYTHONPATH=src python tests/make_reference_reports.py
"""

from __future__ import annotations

import json
import pathlib
import tempfile

from amech.cli import main
from amech.presets import ids as preset_ids

PATH = pathlib.Path(__file__).with_name("reference_reports.json")

SIDES = ("lagrangian", "hamiltonian")
SEEDS = (0, 1, 2)


def runs() -> list[tuple[str, str, int]]:
    """(preset, side, seed) of every reference report."""
    return [(pid, side, seed) for pid in preset_ids() for side in SIDES for seed in SEEDS]


def key(pid: str, side: str, seed: int) -> str:
    return f"{pid} {side} {seed}"


def residuals(pid: str, side: str, seed: int, directory: pathlib.Path) -> dict:
    """The residuals of one `constrain` report, run into directory."""
    out = directory / "report.json"
    argv = ["constrain", "--preset", pid, "--side", side, "--seed", str(seed),
            "--out", str(out), "--manifest", str(directory / "manifest.json")]
    if main(argv) != 0:
        raise RuntimeError(f"constrain {pid} --side {side} --seed {seed} failed")
    report = json.loads(out.read_text())
    return {"probe_residuals": [lvl["probe_residuals"] for lvl in report["levels"]],
            "final_solve_residual": report["final_solve_residual"]}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {key(*run): residuals(*run, pathlib.Path(tmp)) for run in runs()}
    # one report a line
    PATH.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in table.items()) + "\n}\n")
