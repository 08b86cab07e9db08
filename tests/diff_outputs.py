"""Compare the command outputs of this tree with those of another checkout.

    python tests/diff_outputs.py PARENT_CHECKOUT

Runs, in each tree, in its own subprocess with that tree's `src` on the
path: the 70 `constrain` reports (every preset, both sides, seeds 0, 1, 2,
7 and 11), every preset CSV that tests/make_reference_csvs.py writes, and
six capri_kobayashi `sode` CSVs (the default start, two others on the
locus, and the off-locus start x1=0.3, e1=0.2 on seeds 0, 1 and 3, which
run the differenced projection). Prints each output that is not
byte-identical with its largest numeric move, and exits 1 when one moved.
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve()
SEEDS = (0, 1, 2, 7, 11)
SODE_STARTS = [("default", [], 0), ("e3", ["e3=0.3"], 0), ("rho", ["rho=1.2", "e0=0.2"], 0)] + [
    (f"off_seed{seed}", ["x1=0.3", "e1=0.2"], seed) for seed in (0, 1, 3)]
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def produce(directory: pathlib.Path) -> None:
    """Write every output of the tree whose amech is importable into directory."""
    sys.path.insert(0, str(HERE.parent))
    from make_reference_csvs import runs, simulate

    from amech.cli import main
    from amech.presets import ids as preset_ids

    manifest = str(directory / "manifest.json")
    for pid in preset_ids():
        for side in ("lagrangian", "hamiltonian"):
            for seed in SEEDS:
                out = directory / f"{pid}.{side}.seed{seed}.json"
                if main(["constrain", "--preset", pid, "--side", side, "--seed", str(seed),
                         "--out", str(out), "--manifest", manifest]) != 0:
                    out.write_text("failed\n")
    for pid, mode, method in runs():
        simulate(pid, mode, method, directory)
    for name, init, seed in SODE_STARTS:
        out = directory / f"capri_kobayashi.sode.{name}.csv"
        if main(["simulate", "--preset", "capri_kobayashi", "--mode", "sode", "--t1", "0.2",
                 "--dt", "1e-2", "--seed", str(seed), *(f"--init={item}" for item in init),
                 "--out", str(out), "--manifest", manifest]) != 0:
            out.write_text("failed\n")
    (directory / "manifest.json").unlink()


def _numbers(text: str) -> list[float]:
    return [float(token) for token in NUMBER.findall(text)]


def largest_move(a: str, b: str) -> str:
    """The largest absolute and relative move between the numbers of two
    outputs, or why they cannot be compared number for number."""
    x, y = _numbers(a), _numbers(b)
    if len(x) != len(y):
        return f"{len(x)} numbers against {len(y)}"
    moves = [(abs(u - v), abs(u - v) / (max(abs(u), abs(v)) or 1.0)) for u, v in zip(x, y)
             if u != v or str(u) != str(v)]
    if not moves:
        return "only the text differs"
    return (f"{len(moves)} numbers moved, largest {max(moves)[0]:.3e} "
            f"(relative {max(m[1] for m in moves):.3e})")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--produce":
        produce(pathlib.Path(argv[1]))
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": pathlib.Path(argv[0]).resolve(), "this": HERE.parents[1]}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for label, tree in trees.items():
            directory = pathlib.Path(tmp) / label
            directory.mkdir()
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            subprocess.run([sys.executable, str(HERE), "--produce", str(directory)],
                           env=env, check=True)
            outputs[label] = {path.name: path.read_bytes() for path in directory.iterdir()}
    parent, this = outputs["parent"], outputs["this"]
    moved = 0
    for name in sorted(parent.keys() | this.keys()):
        if name not in parent or name not in this:
            print(f"{name}: only in {'this tree' if name in this else 'the parent'}")
        elif parent[name] != this[name]:
            print(f"{name}: {largest_move(parent[name].decode(), this[name].decode())}")
        else:
            continue
        moved += 1
    print(f"{len(parent.keys() | this.keys()) - moved} identical, {moved} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
