"""``tools/bench_pairs.py`` on two synthetic record directories."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "request_p50_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "rows_per_s", "unit": "rows/s", "better": "higher", "bound": 0.24},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(tree: Path, workload: str, seed: int, p50: float, rows: float,
                 failed: int, mtime: float, numpy: str = "2.4.6"):
    out = tree / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": 0,
        "environment": {"python": "3.11.7", "numpy": numpy, "nproc": 2,
                        "blas_threads": {"OPENBLAS_NUM_THREADS": "1"},
                        "loadavg_before": [seed, 0.0, 0.0]},
        "result": {"correct": failed == 0, "attempted": 100, "failed": failed,
                   "metrics": {"request_p50_s": {"value": p50, "unit": "s"},
                               "rows_per_s": {"value": rows, "unit": "rows/s"}}},
    }
    path = out / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(record))
    os.utime(path, (mtime, mtime))


def test_pairs_medians_quartiles_and_wins(bench_pairs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    p50 = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.9, 2.5, 2.0, 3.0, 4.0]}
    for seed in range(5):
        # the parent runs first on even seeds
        first, second = (parent, change) if seed % 2 == 0 else (change, parent)
        for k, tree in enumerate((first, second)):
            side = "parent" if tree is parent else "change"
            write_record(tree, "cli-mix", seed, p50[side][seed], 10.0 * p50[side][seed],
                         failed=int(side == "change" and seed == 3),
                         mtime=1000.0 + 10 * seed + k)
    # an unpaired record and a traced one are left out
    write_record(parent, "thermo-sweep", 9, 1.0, 1.0, 0, 2000.0)
    (parent / ".perfbench_out" / "cli-mix-seed0-trace1.json").write_text("{}")

    got = bench_pairs.collect(parent, change, 6, METRICS, ("abc123", "work"))
    assert (got["pr"], got["parent"], got["change"]) == (6, "abc123", "work")
    assert list(got["workloads"]) == ["cli-mix"]
    entry = got["workloads"]["cli-mix"]
    assert entry["pairs"] == 5 and entry["seeds"] == [0, 1, 2, 3, 4]
    assert entry["ran_first"] == {"0": "parent", "1": "change", "2": "parent",
                                  "3": "change", "4": "parent"}
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["attempted"] == {"parent": 500, "change": 500}
    m = entry["metrics"]["request_p50_s"]
    assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert m["change"]["median"] == 2.5
    assert m["change"]["per_seed"] == {"0": 0.9, "1": 2.5, "2": 2.0, "3": 3.0, "4": 4.0}
    assert m["median_change"] == pytest.approx(2.5 / 3.0 - 1.0)
    # lower is better: the change wins every seed but seed 1
    assert m["pairs_won"] == 4 and m["bound"] == 0.24
    # higher is better: the same values times ten win only at seed 1
    assert entry["metrics"]["rows_per_s"]["pairs_won"] == 1
    assert got["environment"]["python"] == "3.11.7"
    assert got["environment"]["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    # a field that differs between records is named, not listed per record
    assert got["environment"]["varies"] == ["loadavg_before"]
    assert "loadavg_before" not in got["environment"]


def test_disagreeing_environment_fields_are_named(bench_pairs, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "cli-mix", 1, 1.0, 1.0, 0, 1.0, numpy="2.4.6")
    write_record(change, "cli-mix", 1, 1.0, 1.0, 0, 2.0, numpy="2.5.0")
    got = bench_pairs.collect(parent, change, 6, METRICS)
    assert got["environment"]["varies"] == ["numpy"]
    assert "numpy" not in got["environment"] and got["environment"]["nproc"] == 2
    one = got["workloads"]["cli-mix"]["metrics"]["request_p50_s"]["parent"]
    assert one["q1"] == one["median"] == one["q3"] == 1.0


def test_bytecode_regime_per_side(bench_pairs, tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_record(parent, "cli-mix", 1, 1.0, 1.0, 0, 1.0)
    write_record(change, "cli-mix", 1, 1.0, 1.0, 0, 2.0)
    (change / "src" / "quatstat" / "__pycache__").mkdir(parents=True)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    got = bench_pairs.collect(parent, change, 6, METRICS)
    assert got["bytecode"] == {
        "parent": {"PYTHONDONTWRITEBYTECODE": "1", "pycache": False},
        "change": {"PYTHONDONTWRITEBYTECODE": "1", "pycache": True}}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    got = bench_pairs.collect(parent, change, 6, METRICS)
    assert got["bytecode"]["parent"] == {"PYTHONDONTWRITEBYTECODE": None, "pycache": False}


def test_no_pairs_is_an_error(bench_pairs, tmp_path, capsys, monkeypatch):
    write_record(tmp_path / "parent", "cli-mix", 1, 1.0, 1.0, 0, 1.0)
    (tmp_path / "change").mkdir()
    monkeypatch.chdir(tmp_path)
    code = bench_pairs.main(["--parent", "parent", "--change", "change", "--pr", "6"])
    assert code == 2 and "no paired records" in capsys.readouterr().err
    assert not Path("BENCH_6.json").exists()
