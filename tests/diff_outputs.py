"""Compare the command outputs of this tree with those of another checkout.

    python tests/diff_outputs.py PARENT_CHECKOUT

Runs, in each tree, in its own subprocess with that tree's `src` on the
path: the 70 `constrain` reports (every preset, both sides, seeds 0, 1, 2,
7 and 11), every preset CSV that tests/make_reference_csvs.py writes, and
six capri_kobayashi `sode` CSVs (the default start, two others on the
locus, and the off-locus start x1=0.3, e1=0.2 on seeds 0, 1 and 3, which
run the differenced projection), and the `validate` and `bracket` reports
and a short `simulate --mode el` CSV of two generated charts, so(3) in an
integer basis crossed with T R^0 and T R^4 (the constant-tensor path).
Prints each output that is not
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
# so(3) in a unimodular integer basis crossed with T R^k, k = 0 and 4, with
# a positive definite kinetic energy and a cosine potential on the base
SWEEP_MODELS = {
    "sweep_k0": """\
system sweep_k0
base []
fiber [f1, f2, f3]
anchor zero
bracket { [f1,f2] = (-3)*f1 + (1)*f3; [f1,f3] = (1)*f1 + (-1)*f2; \
[f2,f3] = (11)*f1 + (-1)*f2 + (-3)*f3 }
params { g = 1.4642 }
lagrangian = 0.5*(1.7123*f1^2 + 0.0815*f1*f2 + 0.0916*f1*f3 + 1.1858*f2^2 + \
-0.4217*f2*f3 + 1.2598*f3^2)
""",
    "sweep_k4": """\
system sweep_k4
base [q1, q2, q3, q4]
fiber [v1, v2, v3, v4, f1, f2, f3]
anchor { v1 -> (1, 0, 0, 0); v2 -> (0, 1, 0, 0); v3 -> (0, 0, 1, 0); \
v4 -> (0, 0, 0, 1); f1 -> (0, 0, 0, 0); f2 -> (0, 0, 0, 0); f3 -> (0, 0, 0, 0) }
bracket { [f1,f2] = (-4)*f1 + (1)*f2 + (3)*f3; [f1,f3] = (1)*f1 + (-1)*f2 + (-1)*f3; \
[f2,f3] = (6)*f1 + (-1)*f2 + (-4)*f3 }
params { g = 0.8973 }
lagrangian = 0.5*(1.2014*v1^2 + 0.0512*v1*v2 + -0.0236*v1*v3 + 0.1384*v1*v4 + \
0.1010*v1*f1 + -0.0918*v1*f2 + -0.1038*v1*f3 + 1.5659*v2^2 + 0.1428*v2*v3 + \
-0.2540*v2*v4 + 0.1945*v2*f1 + 0.1772*v2*f2 + -0.2297*v2*f3 + 1.5857*v3^2 + \
0.0536*v3*v4 + 0.3645*v3*f1 + 0.6193*v3*f2 + -0.5276*v3*f3 + 1.4058*v4^2 + \
-0.2229*v4*f1 + 0.1649*v4*f2 + -0.1452*v4*f3 + 1.5507*f1^2 + -0.1362*f1*f2 + \
-0.1618*f1*f3 + 2.0949*f2^2 + -0.6960*f2*f3 + 1.8342*f3^2) - (g*(1 - cos(q1)) + \
0.7865*q1^2 + g*(1 - cos(q2)) + 0.7497*q2^2 + g*(1 - cos(q3)) + 0.3573*q3^2 + \
g*(1 - cos(q4)) + 0.6305*q4^2)
""",
}
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
    for name, text in SWEEP_MODELS.items():
        sweep(name, text, directory, manifest)
    (directory / "manifest.json").unlink()


def sweep(name: str, text: str, directory: pathlib.Path, manifest: str) -> None:
    """The validate and bracket reports and a five-step `el` CSV of one
    generated chart, at fixed points in [-1, 1]."""
    from amech.cli import main
    from amech.dsl import parse_system

    spec = parse_system(text)
    model = directory / "model.amech"
    model.write_text(text)
    names = spec.base + tuple(f"p{a + 1}" for a in range(spec.n))
    coords = spec.base + spec.fiber
    at = [f"--at={x}={0.9 - 0.17 * i:.2f}" for i, x in enumerate(names)]
    init = [f"--init={x}={0.4 - 0.15 * i:.2f}" for i, x in enumerate(coords)]
    runs = {"validate.json": ["validate", "--points", "5", "--seed", "3"],
            "bracket.json": ["bracket", "--F", f"p{spec.m + 1}", "--G", f"p{spec.m + 3}", *at],
            "el.csv": ["simulate", "--mode", "el", "--t1", "0.02", "--dt", "4e-3", *init]}
    for suffix, args in runs.items():
        out = directory / f"{name}.{suffix}"
        if main([*args, str(model), "--out", str(out), "--manifest", manifest]) != 0:
            out.write_text("failed\n")
    model.unlink()


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
