"""Self-checks of the benchmark: seeded generation, oracles, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a quatstat checkout.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def group():
    return run.load_cli(ROOT / "src")


def _cycle(name: str, seed: int, workdir: Path):
    reqs = workloads.generate(name, seed, workdir)
    return reqs[: len(reqs) // workloads.WORKLOADS[name].cycles]


def _run(group, req):
    run._clear(req)
    code, _, stdout = run.call_inprocess(group, req.argv, req.env)
    return code, stdout, run._read(req.out), run._read(req.disc)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    def snapshot(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        reqs = workloads.generate(name, seed, workdir)
        argv = [[a.replace(str(workdir), "<w>") for a in r.argv] for r in reqs]
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return argv, [r.expect for r in reqs], files

    assert snapshot(7, "a") == snapshot(7, "b")
    assert snapshot(7, "a2")[0] != snapshot(8, "c")[0]


def _perturb(table: bytes, fmt: str, col: int) -> bytes:
    """Nudge one cell of the middle row by a relative 1e-4."""
    def nudge(value):
        return float(value) * (1 + 1e-4) + 1e-4

    if fmt == "json":
        rows = json.loads(table)
        row = rows[len(rows) // 2]
        key = list(row)[col]
        row[key] = nudge(row[key]) if not isinstance(row[key], str) else repr(nudge(row[key]))
        return json.dumps(rows).encode()
    lines = table.decode().splitlines()
    i = 1 + (len(lines) - 1) // 2
    cells = lines[i].split(",")
    cells[col] = repr(nudge(cells[col]))
    lines[i] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _cases(tmp_path):
    """One request of every kind the workloads generate."""
    seen, picked = set(), []
    for name in ("cli-mix", "thermo-sweep", "compare-dyson"):
        for req in _cycle(name, 3, tmp_path):
            key = (req.expect["kind"], "slice" in req.expect, req.expect.get("fmt"))
            if key not in seen:
                seen.add(key)
                picked.append(req)
    return picked


def test_oracles_accept_the_program_and_reject_perturbations(group, tmp_path):
    for req in _cases(tmp_path):
        code, stdout, table, disc = _run(group, req)
        outcome = oracles.check(req.expect, code, stdout, table, disc)
        assert outcome.ok, (req.rid, outcome.problems)
        wrong = oracles.check(req.expect, code + 1, stdout, table, disc)
        assert not wrong.ok, req.rid
        if req.expect["kind"] == "validate":
            flipped = stdout.replace(": yes", ": maybe", 1).replace(": no", ": yes", 1)
            assert not oracles.check(req.expect, code, flipped, table, disc).ok
        elif table is not None and code == 0:
            width = len(oracles._HEADERS[req.expect["kind"]])
            for col in range(width):
                if req.expect["kind"] == "negtemp" and col == 3:
                    continue  # T is checked row by row below
                bad = _perturb(table, req.expect["fmt"], col)
                assert not oracles.check(req.expect, code, stdout, bad, disc).ok, (req.rid, col)


def test_negtemp_oracle_rejects_a_wrong_temperature(group, tmp_path):
    req = next(r for r in _cycle("cli-mix", 3, tmp_path) if r.expect["kind"] == "negtemp"
               and r.expect["fmt"] == "csv")
    code, stdout, table, disc = _run(group, req)
    lines = table.decode().splitlines()
    cells = lines[100].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    lines[100] = ",".join(cells)
    bad = ("\n".join(lines) + "\n").encode()
    assert not oracles.check(req.expect, code, stdout, bad, disc).ok


def test_exit_code_comes_from_the_oracle(group, tmp_path):
    req = next(r for r in _cycle("cli-mix", 3, tmp_path) if "contract-exit3" in r.rid)
    assert oracles.expected_exit(req.expect) == 3
    code, stdout, table, disc = _run(group, req)
    assert code == 3 and oracles.check(req.expect, code, stdout, table, disc).ok
    assert not oracles.check(req.expect, 0, stdout, table, disc).ok


def test_van_loan_matches_a_fine_dyson_quadrature():
    from scipy.integrate import quad_vec
    from scipy.linalg import expm

    quat = {"a": [0, 0.7, 0, 0], "b": [0, -0.7, 0, 0], "c": [0, 0, 0.3, 0.2],
            "alpha": 1.3, "gamma": 0.8}
    ratio = quat["alpha"] / quat["gamma"]
    zero = [0.0] * 4
    d = [0.0, 0.0, ratio * 0.3, ratio * 0.2]
    h0 = oracles._embed([[quat["a"], zero], [zero, quat["b"]]])
    hp = oracles._embed([[zero, quat["c"]], [d, zero]])
    beta = 1.2

    def h_int(s):
        return expm(h0 * s) @ hp @ expm(-h0 * s)

    first = quad_vec(h_int, 0.0, beta, epsabs=1e-13)[0]
    second = quad_vec(lambda s1: h_int(s1) @ quad_vec(h_int, 0.0, s1, epsabs=1e-13)[0],
                      0.0, beta, epsabs=1e-12)[0]
    u = expm(-h0 * beta) @ (np.eye(4) - first + second)
    want = 0.5 * u.trace().real
    assert oracles.van_loan_z1_dyson(quat, [beta])[0] == pytest.approx(want, rel=1e-10)


def test_traced_counts_repeat_and_bindings_are_restored(group, tmp_path):
    import quatstat.linalg
    import quatstat.thermo

    original = quatstat.linalg.mat_exp
    reqs = [r for r in _cycle("cli-mix", 4, tmp_path) if r.expect["kind"] != "negtemp"]

    def counts():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert quatstat.thermo.mat_exp is not original
            for req in reqs:
                tracer.run_request(req.rid, lambda: _run(group, req))
        finally:
            tracer.uninstall()
        return {k: v["calls"] for k, v in tracer.layer_totals().items()}, tracer.unphysical

    first = counts()
    assert first == counts()
    assert first[0]["cli.request"] == len(reqs)
    assert quatstat.thermo.mat_exp is original and quatstat.linalg.mat_exp is original


def test_import_profile_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       485 |        485 |     quatstat.errors",
        "import time:      9589 |     503867 |     quatstat.linalg",
        "import time:       480 |     551373 |   quatstat",
        "import time:      8737 |     567502 | quatstat.cli",
    ])
    got = tracing.parse_importtime(stderr)
    assert got["linalg"] == pytest.approx(0.503867)
    assert got["cli"] == pytest.approx(0.567502 - 0.551373)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in tracing.LAYER_METRICS]


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(40))
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 75.0
