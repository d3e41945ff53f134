"""``tools/differential.py`` reports a planted one-byte difference, and only it."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "differential.py"


@pytest.fixture(scope="module")
def differential():
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclass
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_commands_are_seeded_and_cycle_through_the_subcommands(differential):
    first = differential.commands(3, 10)
    assert [c.argv for c in first] == [c.argv for c in differential.commands(3, 10)]
    assert [c.argv[0] for c in first] == list(differential.KINDS) * 2
    assert [c.argv for c in differential.commands(4, 10)] != [c.argv for c in first]


def test_compared_toys_include_symmetric_levels(differential):
    # b = -a with a j-k coupling makes every Dyson node (0, 0), so compare's
    # shared exponential is compared byte for byte beside the distinct nodes
    toys = [json.loads(c.files["toy.json"]) for c in differential.commands(1, 200)
            if c.argv[:3] == ["compare", "--model", "toy"]]
    symmetric = [t["b"] == [0, -t["a"][1], 0, 0] for t in toys]
    assert any(symmetric) and not all(symmetric)


def test_file_models_are_anti_hermitian_and_validate_sees_both(differential):
    # the continuity walk refuses a file model that is not anti-Hermitian
    # before any grid is built; validate classifies either kind
    def anti_hermitian(cmd):
        (d0, upper), (lower, d1) = json.loads(cmd.files["m.json"])["matrix"]["entries"]
        return d0[0] == d1[0] == 0 and lower == [-upper[0], *upper[1:]]

    cmds = differential.commands(2, 400)
    files = [cmd for cmd in cmds if "file" in cmd.argv]
    assert files and all(map(anti_hermitian, files))
    checked = [anti_hermitian(cmd) for cmd in cmds if cmd.argv[0] == "validate"]
    assert any(checked) and not all(checked)


def test_a_quarter_of_thermo_and_compare_commands_is_at_a_float_range_edge(differential):
    # thermo and compare are two kinds in five, so about one command in ten
    def at_edge(cmd):
        flags = dict(zip(cmd.argv[3:], cmd.argv[4:]))
        numbers = [float(end) for end in flags["--beta"].split(":")[:2]]
        numbers += [float(flags.get(flag, 1)) for flag in ("--k", "--n-particles", "--omega")]
        toy = json.loads(cmd.files.get("toy.json", "{}"))
        numbers += [toy[level][1] for level in ("a", "b") if level in toy]
        return any(0 < abs(x) < sys.float_info.min or abs(x) > 1e280 for x in numbers)

    swept = [cmd for cmd in differential.commands(5, 1000) if cmd.argv[0] in ("thermo", "compare")]
    edges = sum(map(at_edge, swept))
    assert 0.18 * len(swept) <= edges <= 0.32 * len(swept)


def test_compare_grids_end_on_both_sides_of_the_spot_check_resolution(differential):
    # compare refuses a last beta |H| from 1/(256 eps) ~ 1.8e13 on; |H| of the
    # seeded models is between about 1 and 6
    for seed in (7, 11):
        ends = [float(cmd.argv[cmd.argv.index("--beta") + 1].split(":")[1])
                for cmd in differential.commands(seed, 200) if cmd.argv[0] == "compare"]
        assert any(1e11 <= end < 1e12 for end in ends)
        assert any(1e14 < end <= 1e15 for end in ends)


def test_warnings_are_masked_to_their_source_file(differential):
    # the same warning from two trees differs only in the tree and the line
    base, change = Path("/a/base"), Path("/b/change")
    text = b"%s/src/quatstat/thermo.py:%d: RuntimeWarning: overflow\n  gap = x\nin %s/out\n"
    want = b"<src>/quatstat/thermo.py:<line>: RuntimeWarning: overflow\n  gap = x\nin <work>/out\n"
    assert differential.masked(text % (b"/a/base", 631, b"/w/1"), base, Path("/w/1")) == want
    assert differential.masked(text % (b"/b/change", 609, b"/w/2"), change, Path("/w/2")) == want
    # a warning from elsewhere keeps its path and line
    other = b"/usr/lib/numpy/core.py:12: RuntimeWarning\n"
    assert differential.masked(other, base, Path("/w/1")) == other


def test_differences_name_the_stream_and_the_byte(differential):
    base = {"exit code": b"0", "stdout": b"beta,Z1\n1,2\n", "file log.json": b"[]\n"}
    assert differential.differences(base, dict(base)) == []
    change = {**base, "stdout": b"beta,Z2\n1,2\n", "file extra": b""}
    del change["file log.json"]
    assert differential.differences(base, change) == [
        "file extra: only in change",
        "file log.json: only in base",
        "stdout differs at byte 6: base b'1\\n1,2\\n', change b'2\\n1,2\\n'",
    ]


def test_planted_byte_is_the_one_difference(differential, tmp_path, capsys):
    # the base tree writes "CV" for "Cv" in thermo's table header; of one
    # command of each kind, only the thermo command differs, and only there
    base = tmp_path / "base"
    shutil.copytree(REPO / "src", base / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = base / "src" / "quatstat" / "cli.py"
    text = cli.read_text()
    call = "_emit(cfg, header, [getattr(grid, name)"
    assert text.count(call) == 1
    cli.write_text(text.replace(call, '_emit(cfg, [*header[:-1], "CV"], [getattr(grid, name)'))

    def plain_thermo(argv):  # exits 0 and prints its CSV table
        return "csv" in argv and "--out" not in argv and "--rederived" not in argv and (
            "spin" in argv or "qubit" in argv)

    seed = next(s for s in range(100) if plain_thermo(differential.commands(s, 1)[0].argv))
    code = differential.main(["--base-tree", str(base), "--change", str(REPO),
                              "--count", "5", "--seed", str(seed)])
    report = capsys.readouterr().out.splitlines()
    assert code == 1
    assert report[0].startswith("command 0: quatstat thermo ")
    assert report[1].startswith("  stdout differs at byte 15: base b'V\\n")
    assert report[2:] == ["5 commands: 4 identical, 1 differ"]
