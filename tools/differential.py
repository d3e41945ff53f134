"""Run seeded quatstat commands in two trees and compare their outputs byte for byte.

The base tree is a git revision extracted with ``git archive`` into a
temporary directory, or an existing tree (``--base-tree``); the change tree
is a checkout, this repository by default. Each command runs as ``python -m
quatstat.cli`` with its tree's ``src`` on ``PYTHONPATH``, in a fresh work
directory that holds the command's params files. The exit code, stdout,
stderr and every file in the work directory afterwards must be the same;
stderr is compared with the work directory masked, and with the tree and
line number masked where a warning names its source. The commands cycle
through ``thermo``, ``compare``, ``negtemp``, ``spectrum`` and
``validate``, with parameters, grids, formats and destinations drawn from
``--seed``; some are meant to fail (exit 2 or 3). Some ``compare --model
spin`` grids run past the cosh range of the spin display forms and through
the betas where their log argument is not positive, so that the forms'
failing paths are compared. One ``compare`` grid in five ends between
beta = 1e11 and 1e15, on both sides of where its spot checks stop
resolving and it refuses the grid. About one command in ten moves a setting to
the edge of the float range (a subnormal or a huge beta, a ``--k`` or
``--n-particles`` near the float limits, a subnormal level), so that the
overflow refusals and the subnormal paths are compared too. Four ``negtemp``
commands in ten take a ``--grid``, inside the band or past an edge by less or
more than the gas's slack (where the command is refused); one in ten takes
the benchmark's ``--points 2001``, and some custom bands are of subnormal
width. Run from the repository root::

    python3 tools/differential.py --base HEAD~1 --count 200 --seed 1

It prints each command that differs and how, and exits 0 when all match, 1
when any differs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KINDS = ("thermo", "compare", "negtemp", "spectrum", "validate")


@dataclass
class Command:
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _grid(rng: random.Random, hi: float, steps: int) -> str:
    lo = rng.uniform(0.01, 1.0)
    hi = rng.uniform(lo, hi)
    if rng.random() < 0.1:
        lo, hi = hi, lo  # descending: the rows still ascend
    return f"{_num(lo)}:{_num(hi)}:{rng.randint(1, steps)}"


def _negtemp_grid(rng: random.Random, cmd: Command) -> None:
    """Now and then give a custom ``negtemp`` band a subnormal width, and
    replace the command's ``--points`` by the benchmark's 2001 or by a
    ``--grid`` inside the band or past an edge by a share of the gas's slack,
    ``1e-12`` of the band's larger end: under the slack the grid runs, over it
    the command is refused (exit 2)."""
    argv = cmd.argv
    flags = dict(zip(argv[1::2], argv[2::2]))
    gas = json.loads(cmd.files.get("levels.json", "{}"))  # a custom params file
    n = gas.get("n_particles", int(flags["--n-particles"]))
    if flags["--model"] == "spin":
        omega, v = float(flags["--omega"]), float(flags["--v"])
        e_plus, e_minus = omega / 2.0 + v, omega / 2.0 - v
    elif flags["--model"] == "qubit":
        e_plus, e_minus = 2.0, 0.0
    elif rng.random() < 0.15:  # a custom band of subnormal width
        e_minus = rng.choice((0.0, -1e-310, 3e-320))
        e_plus = e_minus + rng.choice((5e-324, 1e-315, 2e-308))
        if gas:
            cmd.files["levels.json"] = json.dumps({**gas, "e_plus": e_plus, "e_minus": e_minus})
        else:
            argv[argv.index("--e-plus") + 1] = _num(e_plus)
            argv[argv.index("--e-minus") + 1] = _num(e_minus)
    else:
        e_plus, e_minus = ((gas["e_plus"], gas["e_minus"]) if gas else
                           (float(flags["--e-plus"]), float(flags["--e-minus"])))
    at, draw = argv.index("--points"), rng.random()
    if draw < 0.4:
        argv[at:at + 2] = ["--grid", _band_grid(rng, n * e_minus, n * e_plus)]
    elif draw > 0.9:
        argv[at + 1] = "2001"


def _band_grid(rng: random.Random, lo: float, hi: float) -> str:
    """A ``--grid`` inside the band ``[lo, hi]``, or through one of its edges
    by half, 0.99, 1.5 or 3 times its slack."""
    slack = max(1e-12 * max(abs(lo), abs(hi)), 5e-324)
    if rng.random() < 0.5:
        lo, hi = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    elif rng.random() < 0.5:
        lo -= rng.choice((0.5, 0.99, 1.5, 3.0)) * slack
    else:
        hi += rng.choice((0.5, 0.99, 1.5, 3.0)) * slack
    return f"{_num(lo)}:{_num(hi)}:{rng.randint(1, 2001)}"


def _toy(rng: random.Random) -> dict:
    """Levels on the i-axis, coupled on the j-k plane. One toy in three has
    ``b = -a``, whose Dyson nodes are all ``(0, 0)``, as the spin model's are."""
    theta, size = rng.uniform(0.0, 6.3), rng.uniform(0.0, 1.5)
    a = rng.uniform(-2, 2)
    b = -a if rng.random() < 1 / 3 else rng.uniform(-2, 2)
    return {"a": [0, a, 0, 0], "b": [0, b, 0, 0],
            "c": [0, 0, size * math.cos(theta), size * math.sin(theta)],
            "alpha": rng.uniform(0.5, 2.0), "gamma": rng.uniform(0.5, 2.0)}


def _matrix(rng: random.Random, anti_hermitian: bool) -> dict:
    """A 2x2 matrix with a metric. An anti-Hermitian one has imaginary diagonal
    entries and ``-conj`` of the upper entry below, as the ``file`` models
    need: the continuity walk refuses others before any grid is built. Else
    the lower entry is that or random, for ``validate``, with equal odds."""
    def quat(real: bool):
        return [rng.uniform(-1, 1) if real else 0.0] + [rng.uniform(-1, 1) for _ in range(3)]
    off = quat(True)
    mirror = anti_hermitian or rng.random() < 0.5
    lower = [-off[0], off[1], off[2], off[3]] if mirror else quat(True)
    return {"matrix": {"n": 2, "entries": [[quat(False), off], [lower, quat(False)]]},
            "metric": {"x": rng.uniform(0.5, 2.0), "y": rng.uniform(0.5, 2.0),
                       "z": [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]}}


def _model(rng: random.Random, kind: str, choices: tuple[str, ...]) -> Command:
    model = rng.choice(choices)
    cmd = Command([kind, "--model", model])
    if model == "spin":
        cmd.argv += ["--omega", _num(rng.uniform(0.2, 4.0)), "--v", _num(rng.uniform(0.0, 2.0)),
                     "--x", _num(rng.uniform(0.5, 2.0))]
    elif model == "qubit":
        cmd.argv += ["--phi", _num(rng.uniform(0.0, 6.3))]
    elif model == "file":
        cmd.files["m.json"] = json.dumps(_matrix(rng, anti_hermitian=True))
        cmd.argv += ["--params", "m.json"]
    elif model == "toy" and kind == "thermo" and rng.random() < 0.4:
        slice_params = {"aE": rng.uniform(-2, 2), "bE": rng.uniform(-2, 2),
                        "kappa": rng.uniform(-1, 1)}
        cmd.files["slice.json"] = json.dumps(slice_params)
        cmd.argv += ["--params", "slice.json"]
    else:
        cmd.files["toy.json"] = json.dumps(_toy(rng))
        cmd.argv += ["--params", "toy.json"]
    return cmd


def _edge(rng: random.Random, cmd: Command) -> None:
    """Move one setting of a ``thermo`` or ``compare`` command to the edge of
    the float range; a level only where the model has one to move."""
    argv = cmd.argv
    edges = ["small beta", "huge beta", "k", "n"] + ["level"] * ("toy.json" in cmd.files
                                                              or argv[2] == "spin")
    edge = rng.choice(edges)
    if edge == "level" and argv[2] == "spin":  # its largest entry subnormal too
        argv[argv.index("--omega") + 1] = _num(rng.uniform(1e-320, 2e-308))
        argv[argv.index("--v") + 1] = rng.choice(("5e-324", "1e-315"))
    elif edge == "level":
        toy = json.loads(cmd.files["toy.json"])
        toy[rng.choice("ab")][1] = rng.choice((5e-324, -1e-310, 2e-308))
        cmd.files["toy.json"] = json.dumps(toy)
    elif edge == "k":
        argv[argv.index("--k") + 1] = rng.choice(("5e-324", "1e-310", "1e300", "1e308"))
    elif edge == "n":
        argv[argv.index("--n-particles") + 1] = str(rng.choice((10**307, 2**1023, 10**308)))
    else:
        at = argv.index("--beta") + 1
        _, hi, steps = argv[at].split(":")
        if edge == "small beta":
            lo = rng.choice((5e-324, 1e-310, rng.uniform(0.0, 2.2e-308)))
        else:
            lo = 10.0 ** rng.uniform(280.0, 307.0)
            hi = lo * rng.uniform(1.0, 10.0)
        argv[at] = f"{_num(lo)}:{_num(float(hi))}:{steps}"


def _outputs(rng: random.Random, cmd: Command, log: bool):
    cmd.argv += ["--output", rng.choice(("csv", "json"))]
    if rng.random() < 0.3:
        cmd.argv += ["--out", "table.txt"]
    if log and rng.random() < 0.3:
        cmd.argv += ["--discrepancies", "log.json"]


def command(rng: random.Random, kind: str) -> Command:
    """One seeded command of ``kind``."""
    if kind in ("thermo", "compare"):
        # spin and toy models have display forms, so they write discrepancy logs
        models = ("spin", "spin", "qubit", "toy", "toy", "file")[:6 if kind == "thermo" else 5]
        cmd = _model(rng, kind, models)
        steps = rng.choice((40, 40, 2000))  # a long grid now and then, as in the benchmark
        beta = _grid(rng, 12.0 if kind == "thermo" else 4.0, steps)
        if kind == "compare" and cmd.argv[2] == "spin" and rng.random() < 0.5:
            # past the cosh range of the spin display forms, beta ~ 1420/omega
            hi = rng.uniform(1500.0, 3000.0) / float(cmd.argv[4])
            beta = f"{beta.split(':')[0]}:{_num(hi)}:{rng.randint(1, steps)}"
        if kind == "compare" and rng.random() < 0.2:
            # a last beta |H| on both sides of 1/(256 eps) ~ 1.8e13, from
            # which compare's spot checks cannot resolve and it refuses the grid
            hi = 10.0 ** rng.uniform(11.0, 15.0)
            beta = f"{beta.split(':')[0]}:{_num(hi)}:{rng.randint(1, steps)}"
        cmd.argv += ["--beta", beta]
        if rng.random() < 0.3:
            cmd.argv.append("--log")
        cmd.argv += ["--n-particles", str(rng.randint(1, 10)), "--k", _num(rng.uniform(0.5, 2))]
        if kind == "thermo" and rng.random() < 0.5:
            cmd.argv.append("--rederived")
        if rng.random() < 0.3:
            cmd.argv += ["--tolerance", rng.choice(("0", "1e-3", "1e-12"))]
        if rng.random() < 0.25:  # thermo and compare are two kinds in five
            _edge(rng, cmd)
        _outputs(rng, cmd, log=True)
    elif kind == "negtemp":
        model = rng.choice(("spin", "qubit", "custom"))
        cmd = Command(["negtemp", "--model", model])
        if model == "spin":
            omega = rng.uniform(0.2, 4.0) * (-1 if rng.random() < 0.1 else 1)
            cmd.argv += ["--omega", _num(omega), "--v", _num(rng.uniform(0.0, 2.0))]
        elif model == "custom":
            e_plus, e_minus = rng.uniform(-1, 3), rng.uniform(-3, 1)
            if rng.random() < 0.3:
                cmd.files["levels.json"] = json.dumps(
                    {"e_plus": e_plus, "e_minus": e_minus, "n_particles": rng.randint(1, 50)})
                cmd.argv += ["--params", "levels.json"]
            else:
                cmd.argv += ["--e-plus", _num(e_plus), "--e-minus", _num(e_minus)]
        n = rng.choice((1, 2, 10, 1000, 10 ** 12, 10 ** 308))
        cmd.argv += ["--n-particles", str(n), "--points", str(rng.randint(1, 60)),
                     "--k", _num(rng.uniform(0.5, 2.0))]
        # a generator of its own, seeded by the --k text, so that these draws
        # leave the commands after this one as the seed drew them before
        _negtemp_grid(random.Random(cmd.argv[-1]), cmd)
        _outputs(rng, cmd, log=False)
    elif kind == "spectrum":
        cmd = _model(rng, "spectrum", ("spin", "qubit", "toy", "file"))
        _outputs(rng, cmd, log=False)
    else:
        cmd = Command(["validate", "--params", "m.json"],
                      {"m.json": json.dumps(_matrix(rng, anti_hermitian=False))})
        if rng.random() < 0.5:
            cmd.argv += ["--tolerance", rng.choice(("1e-10", "1e-6", "0.1"))]
    return cmd


def commands(seed: int, count: int) -> list[Command]:
    """``count`` commands, cycling through :data:`KINDS`."""
    rng = random.Random(seed)
    return [command(rng, KINDS[i % len(KINDS)]) for i in range(count)]


def masked(stderr: bytes, tree: Path, workdir: Path) -> bytes:
    """``stderr`` with the work directory masked, and the tree and line number
    where a warning names its source file: both differ between trees."""
    source = re.compile(re.escape(str(tree / "src").encode()) + rb"(/\S+\.py):\d+:")
    return source.sub(rb"<src>\1:<line>:", stderr.replace(str(workdir).encode(), b"<work>"))


def run(tree: Path, cmd: Command, workdir: Path) -> dict[str, bytes]:
    """The outputs of ``cmd`` run in ``tree`` from ``workdir``: exit code,
    stdout, stderr and each file left in ``workdir``, by name."""
    workdir.mkdir(parents=True)
    for name, text in cmd.files.items():
        (workdir / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("QUATSTAT_TOL", None)
    proc = subprocess.run([sys.executable, "-m", "quatstat.cli", *cmd.argv], cwd=workdir,
                          env=env, capture_output=True, timeout=300)
    out = {"exit code": str(proc.returncode).encode(),
           "stdout": proc.stdout.replace(str(workdir).encode(), b"<work>"),
           "stderr": masked(proc.stderr, tree, workdir)}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            out[f"file {path.relative_to(workdir)}"] = path.read_bytes()
    return out


def differences(base: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """How two outputs of :func:`run` differ: one line per stream or file."""
    lines = []
    for key in sorted(set(base) | set(change)):
        a, b = base.get(key), change.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'change' if a is None else 'base'}")
        elif a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines.append(f"{key} differs at byte {at}: base {a[at:at + 60]!r}, "
                         f"change {b[at:at + 60]!r}")
    return lines


def extract(rev: str, dest: Path) -> Path:
    """The tree of git revision ``rev`` of this repository, under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD", help="git revision of the base (default HEAD)")
    base.add_argument("--base-tree", type=Path, help="an existing base tree instead")
    parser.add_argument("--change", type=Path, default=REPO, help="tree of the change")
    parser.add_argument("--count", type=int, default=200, help="number of commands")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="quatstat-differential-") as tmp:
        root = Path(tmp)
        base_tree = args.base_tree or extract(args.base, root / "base-tree")
        differing = 0
        for i, cmd in enumerate(commands(args.seed, args.count)):
            outputs = [run(tree.resolve(), cmd, root / side / f"{i:04d}")
                       for tree, side in ((base_tree, "base"), (args.change, "change"))]
            lines = differences(*outputs)
            if lines:
                differing += 1
                print(f"command {i}: quatstat {' '.join(cmd.argv)}")
                print("".join(f"  {line}\n" for line in lines), end="")
        print(f"{args.count} commands: {args.count - differing} identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
