"""Output parity of every subcommand against recorded goldens.

``tests/goldens/parity.json`` holds the exit code, stdout, stderr and
``discrepancies.json`` of each command in :data:`COMMANDS`, recorded from a
reference checkout with::

    PYTHONPATH=<reference>/src python tests/test_parity.py --record tests/goldens/parity.json

Every output must match the golden byte for byte, except the two trace
columns of ``compare`` that are computed in an eigenbasis (``Z_formal`` and
``Z1_dyson``, within ``1e-13 * max(1, |golden|)``) and the two stderr summary
lines derived from them. Re-record only when a change is meant to alter
outputs, and say which in the change description.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from quatstat.cli import cli

GOLDENS = Path(__file__).parent / "goldens" / "parity.json"

#: Columns computed in an eigenbasis; all others are exact.
TRACE_COLUMNS = ("Z_formal", "Z1_dyson")
TRACE_TOL = 1e-13
#: stderr lines that summarise a trace column; each may move by the column's
#: tolerance on both of its terms.
SUMMARY_PREFIXES = ("max |Z_spectral - Z_formal|", "max |Z1_dyson - Z_formal|")

PARAMS = {
    "toy_jk.json": {
        "a": [0, 0.9, 0, 0], "b": [0, -0.4, 0, 0], "c": [0, 0, 0.4, 0.3],
        "alpha": 1.5, "gamma": 0.8,
    },
    "toy_spin.json": {
        "a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0, 0, 0.5, 0],
        "alpha": 1.0, "gamma": 1.0,
    },
    "slice.json": {"aE": 1.0, "bE": -1.0, "kappa": -0.25},
    "stiff.json": {
        "a": [0, 40.0, 0, 0], "b": [0, -40.0, 0, 0], "c": [0, 0.3, 0, 0],
        "alpha": 1.0, "gamma": 1.0,
    },
    "spin_file.json": {
        "matrix": {"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 0.5, 0]],
                                       [[0, 0, 0.5, 0], [0, -1, 0, 0]]]},
        "metric": {"x": 1, "y": 1, "z": [0, 0]},
    },
    "strong_file.json": {
        "matrix": {"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 1.5, 0]],
                                       [[0, 0, 1.5, 0], [0, -1, 0, 0]]]},
        "metric": {"x": 1, "y": 1, "z": [0, 0]},
    },
    "gas.json": {"omega": 2.0, "v": 0.5, "n_particles": 12},
}

SPIN_WEAK = ["--model", "spin", "--omega", "2", "--v", "0.5"]
SPIN_STRONG = ["--model", "spin", "--omega", "2", "--v", "1.5", "--x", "1.3"]
SPIN_ZERO = ["--model", "spin", "--omega", "2", "--v", "1", "--x", "1.7"]

#: name -> argv; each runs in a fresh directory holding the files of PARAMS.
COMMANDS = {
    "thermo-spin-weak": ["thermo", *SPIN_WEAK, "--beta", "0.1:40:25"],
    "thermo-spin-strong-json": ["thermo", *SPIN_STRONG, "--beta", "0.1:3:12",
                                "--output", "json"],
    "thermo-spin-zero": ["thermo", *SPIN_ZERO, "--beta", "0.2:40:20",
                         "--n-particles", "3"],
    "thermo-spin-unphysical": ["thermo", *SPIN_WEAK, "--rederived",
                               "--beta", "1:20:5"],
    "thermo-toy-jk": ["thermo", "--model", "toy", "--params", "toy_jk.json",
                      "--beta", "0.05:40:20", "--log"],
    "thermo-toy-slice-json": ["thermo", "--model", "toy", "--params", "slice.json",
                              "--beta", "0.5:4:9", "--output", "json"],
    "thermo-toy-slice-rederived-k": ["thermo", "--model", "toy", "--params", "slice.json",
                                     "--rederived", "--beta", "0.5:4:9",
                                     "--n-particles", "3", "--k", "1.3"],
    "thermo-qubit-json": ["thermo", "--model", "qubit", "--phi", "0.4",
                          "--beta", "0.1:40:15", "--log", "--output", "json"],
    "thermo-file": ["thermo", "--model", "file", "--params", "strong_file.json",
                    "--beta", "0.5:40:10", "--n-particles", "2"],
    "compare-spin-weak-400": ["compare", *SPIN_WEAK, "--beta", "0.5:40:17",
                              "--steps", "400"],
    "compare-spin-strong-400-json": ["compare", *SPIN_STRONG, "--beta", "0.5:40:13",
                                     "--steps", "400", "--output", "json",
                                     "--n-particles", "4"],
    "compare-spin-zero-128": ["compare", *SPIN_ZERO, "--beta", "0.1:8:17",
                              "--steps", "128"],
    "compare-spin-weak-16": ["compare", *SPIN_WEAK, "--beta", "0.05:0.8:9",
                             "--steps", "16"],
    "compare-spin-weak-k": ["compare", *SPIN_WEAK, "--beta", "0.5:8:9",
                            "--n-particles", "3", "--k", "1.3"],
    "compare-toy-jk-400-json": ["compare", "--model", "toy", "--params", "toy_jk.json",
                                "--beta", "0.1:10:13", "--steps", "400",
                                "--output", "json"],
    "compare-toy-spin-128-log": ["compare", "--model", "toy", "--params",
                                 "toy_spin.json", "--beta", "0.05:4:11", "--log"],
    "compare-qubit-128": ["compare", "--model", "qubit", "--phi", "0.7",
                          "--beta", "0.2:40:11"],
    "compare-stiff-16-unconverged": ["compare", "--model", "toy", "--params",
                                     "stiff.json", "--beta", "2:3:2", "--steps", "16"],
    "negtemp-spin": ["negtemp", *SPIN_WEAK, "--n-particles", "10", "--points", "21"],
    "negtemp-custom-json": ["negtemp", "--model", "custom", "--e-plus", "1",
                            "--e-minus", "-1", "--n-particles", "4",
                            "--grid", "-4:4:9", "--output", "json"],
    "negtemp-qubit": ["negtemp", "--model", "qubit", "--n-particles", "6",
                      "--points", "13"],
    "negtemp-params": ["negtemp", "--params", "gas.json", "--points", "9"],
    "spectrum-spin-strong": ["spectrum", *SPIN_STRONG],
    "spectrum-qubit-json": ["spectrum", "--model", "qubit", "--phi", "0.7",
                            "--output", "json"],
    "spectrum-toy-jk": ["spectrum", "--model", "toy", "--params", "toy_jk.json"],
    "spectrum-file": ["spectrum", "--model", "file", "--params", "strong_file.json"],
    "validate-spin": ["validate", "--params", "spin_file.json"],
    "validate-strong": ["validate", "--params", "strong_file.json"],
}


def run_command(argv: list[str], workdir: Path) -> dict:
    """Run one command in ``workdir`` and capture everything it emits."""
    workdir.mkdir(parents=True)
    for name, payload in PARAMS.items():
        (workdir / name).write_text(json.dumps(payload))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        result = CliRunner().invoke(cli, argv, env={"QUATSTAT_TOL": None})
    finally:
        os.chdir(cwd)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    disc = workdir / "discrepancies.json"
    return {
        "argv": argv,
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "discrepancies": disc.read_text() if disc.exists() else None,
    }


def _table(text: str) -> tuple[list[str], list[list]]:
    """Header and rows of a CSV or JSON table; JSON numbers stay floats."""
    if text.startswith("["):
        payload = json.loads(text)
        header = list(payload[0]) if payload else []
        return header, [[row[key] for key in header] for row in payload]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_outputs(got: dict, want: dict) -> list[str]:
    """Every way ``got`` departs from the golden ``want``; empty when it matches."""
    problems = []
    for key in ("argv", "exit_code", "discrepancies"):
        if got[key] != want[key]:
            problems.append(f"{key} differs")
    trace_cols = set()
    scale = 1.0
    if got["stdout"] != want["stdout"]:
        header, rows = _table(got["stdout"])
        want_header, want_rows = _table(want["stdout"])
        if header != want_header or len(rows) != len(want_rows):
            return problems + ["table shape differs"]
        trace_cols = {header.index(c) for c in TRACE_COLUMNS if c in header}
        for i, (row, want_row) in enumerate(zip(rows, want_rows)):
            for j, (cell, want_cell) in enumerate(zip(row, want_row)):
                if j not in trace_cols:
                    if cell != want_cell:
                        problems.append(f"row {i} column {header[j]}: {cell} != {want_cell}")
                    continue
                value, golden = float(cell), float(want_cell)
                scale = max(scale, abs(golden))
                if not abs(value - golden) <= TRACE_TOL * max(1.0, abs(golden)):
                    problems.append(f"row {i} {header[j]}: {value!r} vs {golden!r}")
    lines, want_lines = got["stderr"].splitlines(), want["stderr"].splitlines()
    if len(lines) != len(want_lines):
        return problems + ["stderr line count differs"]
    for line, want_line in zip(lines, want_lines):
        if line == want_line:
            continue
        if not (trace_cols and line.startswith(SUMMARY_PREFIXES)
                and line.split("=")[0] == want_line.split("=")[0]):
            problems.append(f"stderr: {line!r} != {want_line!r}")
            continue
        value, golden = float(line.split("=")[1]), float(want_line.split("=")[1])
        if not abs(value - golden) <= 2 * TRACE_TOL * scale:
            problems.append(f"stderr summary moved: {line!r} vs {want_line!r}")
    return problems


def test_outputs_match_goldens(tmp_path):
    goldens = json.loads(GOLDENS.read_text())
    assert sorted(goldens) == sorted(COMMANDS), "re-record the goldens"
    failures = {}
    for name, argv in COMMANDS.items():
        problems = compare_outputs(run_command(argv, tmp_path / name), goldens[name])
        if problems:
            failures[name] = problems[:5]
    assert not failures, failures


def test_comparison_rules_catch_drift(tmp_path):
    # the checker must notice a moved exact column, a trace column beyond its
    # tolerance and a changed discrepancy log, and accept a move within it
    want = json.loads(GOLDENS.read_text())["compare-spin-weak-400"]
    header, rows = _table(want["stdout"])
    z_formal = header.index("Z_formal")

    def with_cell(col: int, value: str) -> dict:
        edited = [row[:] for row in rows]
        edited[3][col] = value
        text = "\n".join(",".join(r) for r in [header, *edited]) + "\n"
        return {**want, "stdout": text}

    golden = float(rows[3][z_formal])
    within = repr(golden + 0.5e-13 * max(1.0, abs(golden)))
    beyond = repr(golden + 3e-13 * max(1.0, abs(golden)))
    assert compare_outputs(with_cell(z_formal, within), want) == []
    assert compare_outputs(with_cell(z_formal, beyond), want)
    assert compare_outputs(with_cell(header.index("Z1_printed"), "1.5"), want)
    assert compare_outputs({**want, "discrepancies": "[]\n"}, want)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, required=True,
                        help="write the outputs of the installed quatstat here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: run_command(cmd, Path(tmp) / name)
                   for name, cmd in COMMANDS.items()}
    args.record.parent.mkdir(parents=True, exist_ok=True)
    args.record.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} commands to {args.record}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
