"""Write the reference `simulate` CSVs that test_reference_csvs.py compares
against, one file per preset, listed mode and integrator.

Every preset runs each of its listed modes with RK4 (`--t1 1 --dt 1e-2`);
the presets with an `el` or `hamilton` mode also run those with DP45
(`--t1 5 --rtol 1e-8`). Run from the repository root, on the commit whose
outputs become the reference:

    PYTHONPATH=src python tests/make_reference_csvs.py
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

from amech.cli import main
from amech.presets import ids as preset_ids, load as load_preset

DIRECTORY = pathlib.Path(__file__).with_name("reference_csvs")

METHODS = {"rk4": ["--t1", "1", "--dt", "1e-2"], "dp45": ["--t1", "5", "--rtol", "1e-8"]}


def runs() -> list[tuple[str, str, str]]:
    """(preset, mode, method) of every reference CSV."""
    out = []
    for pid in preset_ids():
        modes = load_preset(pid).facts["modes"]
        out += [(pid, mode, "rk4") for mode in modes]
        out += [(pid, mode, "dp45") for mode in modes if mode in ("el", "hamilton")]
    return out


def csv_name(pid: str, mode: str, method: str) -> str:
    return f"{pid}.{mode}.{method}.csv"


def simulate(pid: str, mode: str, method: str, directory: pathlib.Path) -> pathlib.Path:
    """Run one reference simulation into directory; returns the CSV path."""
    out = directory / csv_name(pid, mode, method)
    argv = ["simulate", "--preset", pid, "--mode", mode, *METHODS[method],
            "--out", str(out), "--manifest", str(directory / "manifest.json")]
    if main(argv) != 0:
        raise RuntimeError(f"simulate {pid} --mode {mode} ({method}) failed")
    return out


if __name__ == "__main__":
    DIRECTORY.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for pid, mode, method in runs():
            csv = simulate(pid, mode, method, pathlib.Path(tmp))
            (DIRECTORY / csv.name).write_bytes(csv.read_bytes())
            print(csv.name, file=sys.stderr)
