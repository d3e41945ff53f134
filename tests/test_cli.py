import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import quatstat
from quatstat import (
    DiscrepancyLog,
    DiscrepancyRecord,
    EnergySliceParams,
    SpectralEnsemble,
    closed_form_grid,
    spectral_grid,
    thermo_spectral,
)
from quatstat.cli import (
    _RECORD_FIELDS,
    _csv_table,
    _fmt,
    _json_cells,
    _json_table,
    _log_cells,
    cli,
)

SPIN_FILE = {
    "matrix": {
        "n": 2,
        "entries": [
            [[0, 1, 0, 0], [0, 0, 0.5, 0]],
            [[0, 0, 0.5, 0], [0, -1, 0, 0]],
        ],
    },
    "metric": {"x": 1, "y": 1, "z": [0, 0]},
}

#: ``diag(i, -i, 2i)`` with no metric object: energies 1, 1 and 2.
DIAG_3 = {
    "matrix": {
        "n": 3,
        "entries": [
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 0, 0]],
        ],
    },
}

TOY_DECOUPLED = {
    "a": [0, 1.2, 0, 0],
    "b": [0, 0.4, 0, 0],
    "c": [0, 0, 0, 0],
    "alpha": 1.0,
    "gamma": 1.0,
}


#: A ``file`` model's params with the metric object left to fill in.
WITH_METRIC = ('{"matrix": {"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 0.5, 0]], '
               '[[0, 0, 0.5, 0], [0, -1, 0, 0]]]}, "metric": %s}')

#: Params files whose numbers are not finite floats: NaN, infinities and
#: literals past the float range are rejected when the file is read.
NON_FINITE = {
    "inf_levels.json": '{"e_plus": Infinity, "e_minus": 0, "n_particles": 3}',
    "inf_slice.json": '{"aE": Infinity, "bE": 0, "kappa": -0.2}',
    "inf_alpha.json": '{"a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0, 0, 0.5, 0], '
                      '"alpha": Infinity, "gamma": 1.0}',
    "huge_n.json": '{"e_plus": 1, "e_minus": 0, "n_particles": 1e400}',
    "past_float_n.json": f'{{"e_plus": 1, "e_minus": 0, "n_particles": {10**309}}}',
    "inf_metric.json": WITH_METRIC % '{"x": Infinity, "y": 1}',
}

#: Params files of finite numbers whose model passes the float range.
PAST_FLOAT = {
    "huge_slice.json": '{"aE": 1e200, "bE": -1e200, "kappa": 1}',
    "huge_c.json": '{"a": [0, 0.5, 0, 0], "b": [0, -0.5, 0, 0], "c": [0, 0, 1e200, 0]}',
    "huge_ratio.json": '{"a": [0, 0.5, 0, 0], "b": [0, -0.5, 0, 0], "c": [0, 0, 1, 0], '
                       '"alpha": 1e200, "gamma": 1e-200}',
    "huge_metric_z.json": WITH_METRIC % '{"x": 1, "y": 1, "z": [1e200, 0]}',
    "huge_metric_x.json": WITH_METRIC % '{"x": 1e200, "y": 1}',
    "huge_metric_xy.json": WITH_METRIC % '{"x": 1e160, "y": 1e160}',
}

#: A toy whose trace columns pass the float range from beta ~ 1e280 on.
STRONG_TOY = ('{"a": [0, 0.5, 0, 0], "b": [0, -3.1, 0, 0], "c": [0, 0, -1.6, 0], '
              '"alpha": 1, "gamma": 1}')

#: Zero gap and a metric ratio of 1e-8: |Hp| is 1e4 times the coupling the
#: traces see, so (beta |Hp|)^2 leaves the float range while both are finite.
STRETCHED_TOY = ('{"a": [0, 0, 0, 0], "b": [0, 0, 0, 0], "c": [0, 0, 1e4, 0], '
                 '"alpha": 1e-8, "gamma": 1}')

#: Zero gap and unit coupling: |H| = sqrt(2), so beta |H| reaches the spot
#: checks' resolution 1/(256 eps) ~ 1.76e13 between beta = 1.2e13 and 1.3e13.
ZERO_GAP_TOY = ('{"a": [0, 0, 0, 0], "b": [0, 0, 0, 0], "c": [0, 0, 1, 0], '
                '"alpha": 1, "gamma": 1}')

#: A toy with a subnormal level: its Dyson nodes t g include subnormals.
SUBNORMAL_TOY = ('{"a": [0, 0.5, 0, 0], "b": [0, 1e-310, 0, 0], "c": [0, 0, 0.5, 0], '
                 '"alpha": 1, "gamma": 1}')

#: The inputs of every configuration-error case: the files above, a valid
#: toy model whose thermo sweep writes discrepancy records, a valid
#: slice-only model, a toy whose alpha is not a number, and the strong toy.
CONFIG_INPUTS = {
    **NON_FINITE,
    **PAST_FLOAT,
    "strong_toy.json": STRONG_TOY,
    "stretched_toy.json": STRETCHED_TOY,
    "zero_gap_toy.json": ZERO_GAP_TOY,
    "toy.json": '{"a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0, 0, 0.5, 0], '
                '"alpha": 1.0, "gamma": 1.0}',
    "slice.json": '{"aE": 1, "bE": -1, "kappa": -0.2}',
    "text_alpha.json": '{"a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0, 0, 0.5, 0], '
                       '"alpha": "one"}',
}


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# -- thermo --------------------------------------------------------------------


def test_thermo_spin_sweep_shape(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli,
            ["thermo", "--model", "spin", "--omega", "2", "--v", "0.5", "--x", "1",
             "--beta", "0.1:5:50"],
        )
        assert result.exit_code == 0, result.output
        header, rows = parse_csv(result.stdout)
        assert header == ["beta", "Z1", "A", "S", "U", "Cv"]
        assert len(rows) == 50


def test_thermo_toy_decoupled_matches_spectral_table(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("toy.json", "w") as handle:
            json.dump(TOY_DECOUPLED, handle)
        result = runner.invoke(
            cli, ["thermo", "--model", "toy", "--params", "toy.json",
                  "--beta", "0.5:2:4"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        ensemble = SpectralEnsemble(((1.2, 1), (0.4, 1)))
        for row in rows:
            beta = float(row[0])
            expected = thermo_spectral(ensemble, beta)
            assert float(row[1]) == pytest.approx(expected.Z1, rel=1e-12)
            assert float(row[4]) == pytest.approx(expected.U, rel=1e-12)
            assert float(row[5]) == pytest.approx(expected.Cv, rel=1e-12)


def test_thermo_qubit_partition_column(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli, ["thermo", "--model", "qubit", "--beta", "0.5:3:6"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        for row in rows:
            beta, z1 = float(row[0]), float(row[1])
            assert z1 == pytest.approx(1 + math.exp(-2 * beta), rel=1e-12)


def test_thermo_writes_discrepancy_log(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli, ["thermo", "--model", "spin", "--beta", "0.5:1.5:3"]
        )
        assert result.exit_code == 0
        records = json.loads(open("discrepancies.json").read())
        assert records and all(
            set(r) == {"quantity", "printed_value", "derived_value", "beta"}
            for r in records
        )
        assert any(r["quantity"] == "Cv" for r in records)


def test_thermo_spin_does_not_depend_on_the_metric(runner, tmp_path):
    # the slice reads omega and v only: the metric parameter x, which the
    # Hamiltonian needs, moves no byte of the table or the log
    outputs = set()
    for x in ("1", "1.3", "1e200"):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(cli, ["thermo", "--x", x, "--beta", "0.5:3:6"])
            assert result.exit_code == 0, result.output
            outputs.add((result.stdout, Path("discrepancies.json").read_text()))
    assert len(outputs) == 1


@pytest.mark.parametrize("model", [[], ["--model", "toy", "--params", "toy.json"]],
                         ids=["spin", "toy"])
def test_thermo_slice_path_builds_no_hamiltonian(runner, tmp_path, monkeypatch, model):
    import quatstat.cli as cli_module

    def refuse(*args):
        raise AssertionError("a Hamiltonian was built")

    for name in ("build_spin_model", "build_toy_hamiltonian"):
        monkeypatch.setattr(cli_module, name, refuse)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("toy.json").write_text(CONFIG_INPUTS["toy.json"])
        result = runner.invoke(cli, ["thermo", *model, "--beta", "0.5:3:6"])
        assert result.exit_code == 0, result.output


def test_thermo_exit_codes(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli, ["thermo", "--model", "spin", "--rederived", "--beta", "1:20:5"]
        )
        assert result.exit_code == 3
        result = runner.invoke(cli, ["thermo", "--model", "toy", "--beta", "1:2:2"])
        assert result.exit_code == 2
        result = runner.invoke(cli, ["thermo", "--beta", "nonsense"])
        assert result.exit_code == 2


def test_thermo_file_model_uses_spectral_path(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("spin.json", "w") as handle:
            json.dump(SPIN_FILE, handle)
        result = runner.invoke(
            cli, ["thermo", "--model", "file", "--params", "spin.json",
                  "--beta", "0.5:2:4", "--n-particles", "3"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        ensemble = SpectralEnsemble(((1.5, 1), (0.5, 1)), n_particles=3)
        for row in rows:
            beta = float(row[0])
            expected = thermo_spectral(ensemble, beta)
            assert float(row[1]) == pytest.approx(expected.Z1, rel=1e-9)
            assert float(row[4]) == pytest.approx(expected.U, rel=1e-9)


def test_thermo_json_output_and_log_grid(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli,
            ["thermo", "--model", "qubit", "--beta", "0.1:10:5", "--log",
             "--output", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        betas = [row["beta"] for row in payload]
        ratios = [b2 / b1 for b1, b2 in zip(betas, betas[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


# -- compare --------------------------------------------------------------------


def test_compare_spin_reports_findings(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli, ["compare", "--model", "spin", "--beta", "0.2:2:8"]
        )
        assert result.exit_code == 0, result.output
        header, rows = parse_csv(result.stdout)
        assert header == [
            "beta", "Z_spectral", "Z_formal", "Z1_printed", "Z1_rederived", "Z1_dyson",
        ]
        records = json.loads(open("discrepancies.json").read())
        quantities = {r["quantity"] for r in records}
        assert "Z1" in quantities  # coupling-sign branch
        assert "U" in quantities  # display form vs spectral oracle
        # spectral and formal paths visibly part ways at v = 0.5
        deviations = [abs(float(r[1]) - float(r[2])) for r in rows]
        assert max(deviations) > 0.1


@pytest.mark.parametrize("omega, v, beta", [
    ("2", "1", "2.0653381389747048:2.0653381389747048:1"),
    ("1", "0.5", "0.1:4.1306762779494095:2"),
])
def test_compare_spin_at_a_zero_display_denominator(runner, tmp_path, omega, v, beta):
    # the spin display denominator is exactly 0.0 at the last beta: its U and
    # S are not finite there and write no record, and the run goes on
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--model", "spin", "--omega", omega,
                                     "--v", v, "--beta", beta])
        assert result.exit_code == 0, result.output
        assert result.exception is None and "Traceback" not in result.output
        last = float(beta.split(":")[1])
        records = json.loads(Path("discrepancies.json").read_text())
        assert [r["quantity"] for r in records if r["beta"] == last] == ["Z1", "Cv"]


def test_compare_decoupled_groups_agree(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("toy.json", "w") as handle:
            json.dump(TOY_DECOUPLED, handle)
        result = runner.invoke(
            cli, ["compare", "--model", "toy", "--params", "toy.json",
                  "--beta", "0.3:1.5:5"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        for row in rows:
            z_sp, z_formal, z1_p, z1_r, z1_d = (float(v) for v in row[1:])
            # no perturbation: both branch forms coincide with the spectral sum
            assert abs(z1_p - z1_r) < 1e-10
            assert abs(z1_p - z_sp) < 1e-10
            # and the quadrature reproduces the exact formal trace
            assert abs(z1_d - z_formal) < 1e-10
        records = json.loads(open("discrepancies.json").read())
        # the coupling-sign branch closes at c = 0; only the specific-heat
        # display defect (sign flip and stray 1/N) survives
        assert {r["quantity"] for r in records} == {"Cv"}


def test_compare_tolerance_env_silences_findings(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli,
            ["compare", "--model", "spin", "--beta", "0.2:1:4"],
            env={"QUATSTAT_TOL": "1000"},
        )
        assert result.exit_code == 0, result.output
        assert json.loads(open("discrepancies.json").read()) == []


#: Toy params files whose ``Z1_dyson`` column is checked against scipy's Van
#: Loan exponential, with the beta grid of each.
VAN_LOAN_TOYS = {
    # a real coupling, whose interaction-picture perturbation is not constant
    "real-c": ({"a": [0, 1, 0, 0], "b": [0, -1, 0, 0], "c": [0.3, 0, 0, 0],
                "alpha": 1, "gamma": 1}, "0.1:2:5"),
    "toy-jk": ({"a": [0, 0.9, 0, 0], "b": [0, -0.4, 0, 0], "c": [0, 0, 0.4, 0.3],
                "alpha": 1.5, "gamma": 0.8}, "0.1:10:13"),
    # beta times the gap reaches 240
    "stiff": ({"a": [0, 40.0, 0, 0], "b": [0, -40.0, 0, 0], "c": [0, 0.3, 0, 0],
               "alpha": 1.0, "gamma": 1.0}, "2:3:2"),
    # H0 = 0: every gap is zero
    "zero-h0": ({"a": [0, 0, 0, 0], "b": [0, 0, 0, 0], "c": [0, 0.3, -0.4, 0.1],
                 "alpha": 1.3, "gamma": 0.7}, "0.1:5:9"),
}


def van_loan_z1(toy: dict, betas) -> np.ndarray:
    """``Re Tr U0 U_I`` to second order by scipy's ``expm`` of Van Loan's block."""
    from scipy.linalg import expm

    from quatstat import QMatrix, Quaternion, ToyModelParams, build_toy_hamiltonian, embed

    params = ToyModelParams(*(Quaternion.from_list(toy[k]) for k in "abc"),
                            alpha=toy["alpha"], gamma=toy["gamma"])
    h = build_toy_hamiltonian(params)
    h0 = QMatrix.diag([params.a, params.b])
    a, p = -embed(h0), -embed(h - h0)
    z, d = np.zeros_like(a), len(a)
    block = np.block([[a, p, z], [z, a, p], [z, z, a]])
    tops = [expm(beta * block)[:d] for beta in betas]
    return np.array([0.5 * np.trace(t[:, :d] + t[:, d:2 * d] + t[:, 2 * d:]).real
                     for t in tops])


@pytest.mark.parametrize("name", sorted(VAN_LOAN_TOYS))
def test_compare_dyson_column_matches_van_loan(runner, tmp_path, name):
    toy, beta = VAN_LOAN_TOYS[name]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("toy.json").write_text(json.dumps(toy))
        result = runner.invoke(cli, ["compare", "--model", "toy", "--params", "toy.json",
                                     "--beta", beta])
        assert result.exit_code == 0, result.stderr
        _, rows = parse_csv(result.stdout)
    betas = [float(r[0]) for r in rows]
    got = np.array([float(r[5]) for r in rows])
    want = van_loan_z1(toy, betas)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("steps", ["8", "15", "128"])
def test_compare_too_few_steps_is_usage_error(runner, tmp_path, steps):
    # compare has no quadrature, and so no --steps: every value is a usage error
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--model", "spin", "--steps", steps])
        assert result.exit_code == 2
        assert "No such option '--steps'" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not Path("discrepancies.json").exists()


def test_compare_trace_columns_have_a_mat_exp_spot_check(runner, tmp_path, monkeypatch):
    import quatstat.cli as cli_module

    def off_by_1e6(h, t):
        return quatstat.formal_trace(h, t) + 1e-6

    args = ["compare", "--model", "spin", "--beta", "0.2:2:8"]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        assert runner.invoke(cli, args).exit_code == 0
        Path("discrepancies.json").unlink()
        monkeypatch.setattr(cli_module, "formal_trace", off_by_1e6)
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert "oracle self-check failed: Z_formal" in result.stderr
        assert result.stdout == ""
        assert not Path("discrepancies.json").exists()
        # the spot checks have their own bound: --tolerance does not loosen it
        result = runner.invoke(cli, args + ["--tolerance", "1e-5"])
        assert result.exit_code == 1
        assert "(tol 1.0e-10)" in result.stderr


def test_compare_formal_oracle_needs_no_block_symmetry(runner, tmp_path):
    # at beta |H| of about 1.4e6 unembed's fixed 1e-10 block-symmetry bound
    # refused the mat_exp oracle's exponential (exit 1); read straight from
    # the embedding, the oracle agrees with Z_formal to rounding
    toy = {"a": [0, 0.805948888067108, 0, 0], "b": [0, -0.805948888067108, 0, 0],
           "c": [0.0, 0.0, 0.21822755160034352, 0.07290554849655759],
           "alpha": 1.9574370331447257, "gamma": 0.7690796631842469}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("toy.json").write_text(json.dumps(toy))
        result = runner.invoke(cli, ["compare", "--model", "toy", "--params", "toy.json",
                                     "--beta", "1e6:1082721.3764468092:2"])
        assert result.exit_code == 0, result.stderr
        assert "oracle self-check failed" not in result.stderr


def test_compare_spot_checks_pass_at_tolerance_zero(runner, tmp_path):
    # --tolerance 0 records every rounding gap in the log, but the mat_exp
    # spot checks keep their own bound, which gaps of about 4e-16 stay within
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--beta", "0.1:20:40", "--tolerance", "0"])
        assert result.exit_code == 0, result.stderr
        assert "oracle self-check failed" not in result.stderr


def test_compare_order_slope_fails_before_any_output(runner, tmp_path, monkeypatch):
    import quatstat.cli as cli_module

    args = ["compare", "--model", "spin", "--beta", "0.2:2:8"]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        ok = runner.invoke(cli, args)
        assert ok.exit_code == 0
        # the ok line keeps its place after the three summary lines
        assert ok.stderr.splitlines()[-1] == (
            "perturbation order slope = 3.000 (expected 3.0 +- 0.2): ok")
        assert ok.stderr.splitlines()[-2].startswith("max |Z1_dyson - Z_formal|")
        Path("discrepancies.json").unlink()
        monkeypatch.setattr(cli_module, "dyson_convergence_slope", lambda *a, **k: 2.0)
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "perturbation order slope = 2.000 (expected 3.0 +- 0.2): FAIL\n"
        assert not Path("discrepancies.json").exists()


@pytest.mark.parametrize("column, oracle", [("Z_formal", "mat_exp"),
                                           ("Z1_dyson", "Van Loan")])
def test_compare_spot_check_fails_before_any_output(runner, tmp_path, monkeypatch,
                                                    column, oracle):
    # a column off by 1e-9 relative at ordinary scale fails its oracle check
    import quatstat.cli as cli_module

    name = {"Z_formal": "formal_trace", "Z1_dyson": "dyson_trace"}[column]
    fast = getattr(quatstat, name)
    monkeypatch.setattr(cli_module, name, lambda *args: fast(*args) * (1.0 + 1e-9))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--model", "spin", "--beta", "0.2:2:8"])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"oracle self-check failed: {column} = ")
        assert f"{oracle} gives" in result.stderr
        assert result.stdout == "" and not Path("discrepancies.json").exists()


def test_compare_order_slope_error_is_self_check_failure(runner, tmp_path, monkeypatch):
    # mat_exp refuses a result off its block symmetry, which large beta |H| can give
    import quatstat.cli as cli_module

    def refuse(h0, hp):
        raise quatstat.NotSymplectic("block symmetry residual 5.6e-10")

    monkeypatch.setattr(cli_module, "dyson_convergence_slope", refuse)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--model", "spin", "--beta", "0.2:2:8"])
        assert result.exit_code == 1
        assert result.stderr == ("oracle self-check failed: order slope: "
                                 "block symmetry residual 5.6e-10\n")
        assert result.stdout == "" and not Path("discrepancies.json").exists()


def test_compare_spot_check_bound_grows_with_beta_norm(runner, tmp_path):
    # at beta |H| near 2.5e8 the trace columns and their oracles round apart by
    # about 7e-8, which a fixed 1e-10 bound refused
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--model", "spin", "--omega", "3e8",
                                     "--v", "1e8", "--beta", "0.1:1:3"])
        assert result.exit_code == 0, result.stderr
        assert "oracle self-check failed" not in result.stderr


# -- configuration errors --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["thermo", "--beta", "1:nan:3"],
        ["thermo", "--beta", "1:inf:3"],
        ["compare", "--beta", "1:nan:3"],
        ["compare", "--beta", "-inf:2:3"],
        ["negtemp", "--model", "custom", "--e-plus", "1", "--e-minus", "-1",
         "--grid", "nan:1:3"],
        ["thermo", "--n-particles", "0"],
        ["compare", "--n-particles", "0"],
        ["negtemp", "--n-particles", "0"],
        ["thermo", "--omega", "-1"],
        ["thermo", "--v", "0"],
        ["compare", "--v", "0"],
        ["negtemp", "--omega", "-1"],
        ["negtemp", "--model", "custom", "--e-plus", "1", "--e-minus", "2"],
        ["thermo", "--model", "qubit", "--phi", "nan"],
        ["thermo", "--v", "inf"],
        ["compare", "--x", "nan"],
        ["spectrum", "--model", "qubit", "--phi", "inf"],
        ["thermo", "--tolerance", "nan"],
        ["thermo", "--out", "/nonexistent/dir/x.csv"],
        ["thermo", "--discrepancies", "/nonexistent/d.json"],
        ["negtemp", "--points", "0"],
        ["validate"],
        ["negtemp", "--params", "inf_levels.json"],
        ["thermo", "--model", "toy", "--params", "inf_slice.json"],
        ["thermo", "--model", "toy", "--params", "inf_alpha.json"],
        ["negtemp", "--params", "huge_n.json"],
        ["validate", "--params", "inf_metric.json"],
        ["thermo", "--log", "--beta", "1:-1:1"],
        ["thermo", "--model", "qubit", "--beta", "-1e308:1e308:1"],
        ["thermo", "--beta", "-1e308:1e308:3"],
        ["negtemp", "--grid", "-1e308:1e308:1"],
        ["compare", "--beta", "0.2:1:3", "--discrepancies", "/nonexistent/d.json"],
        ["thermo", "--beta", "1:2:3", "--out", "discrepancies.json"],
        ["compare", "--beta", "0.2:1:3", "--out", "./d.csv", "--discrepancies", "d.csv"],
        ["thermo", "--beta", "1:2:2", "--tolerance", "-1"],
        ["QUATSTAT_TOL=-1", "thermo", "--beta", "1:2:2"],
        ["thermo", "--model", "toy", "--params", "toy.json", "--beta", "1:2:2",
         "--out", "toy.json"],
        ["thermo", "--model", "toy", "--params", "./toy.json", "--beta", "1:2:2",
         "--discrepancies", "toy.json"],
        # a particle count past the float range
        ["thermo", "--beta", "1:2:2", "--n-particles", str(10**309)],
        ["thermo", "--model", "qubit", "--beta", "1:2:2", "--n-particles", str(10**309)],
        ["compare", "--beta", "1:2:2", "--n-particles", str(10**309)],
        ["negtemp", "--points", "3", "--n-particles", str(10**309)],
        ["negtemp", "--params", "past_float_n.json"],
        # an energy band past the float range
        ["negtemp", "--n-particles", str(10**308), "--omega", "3", "--v", "1", "--points", "3"],
        ["negtemp", "--model", "custom", "--e-plus", "1e308", "--e-minus", "-1e308",
         "--n-particles", "1", "--points", "3"],
        ["negtemp", "--n-particles", str(10**308), "--grid", "1:2:3", "--omega", "3"],
        # a Boltzmann constant that is not positive
        ["thermo", "--k", "-1", "--beta", "1:2:2"],
        ["thermo", "--k", "0", "--beta", "1:2:2"],
        ["compare", "--k", "-0.5", "--beta", "0.2:1:3"],
        ["negtemp", "--k", "-1"],
        ["negtemp", "--k", "0"],
        # a slice or matrix model past the float range
        ["thermo", "--omega", "1", "--v", "1e200", "--beta", "1:2:2"],
        ["thermo", "--omega", "1e300", "--v", "1e300", "--beta", "1:2:2"],
        ["thermo", "--model", "toy", "--params", "huge_slice.json", "--beta", "1:2:2"],
        ["thermo", "--model", "toy", "--params", "huge_c.json", "--beta", "1:2:2"],
        ["thermo", "--model", "toy", "--params", "huge_ratio.json", "--beta", "1:2:2"],
        # a slice within the float range whose A, S or Cv overflows in the kernel
        ["thermo", "--model", "spin", "--omega", "1e154", "--v", "1e154", "--beta", "0.1:5:3"],
        ["thermo", "--omega", "1e150", "--v", "1e150", "--beta", "1e3:1e4:2"],
        ["thermo", "--model", "spin", "--omega", "1e10", "--beta", "1e299:1e300:2"],
        ["compare", "--x", "1e200", "--beta", "1:2:2"],
        ["spectrum", "--omega", "1", "--v", "1", "--x", "1e200"],
        ["spectrum", "--omega", "1e300", "--v", "1e300"],
        ["spectrum", "--omega", "1", "--v", "1e300", "--x", "1e-10"],
        ["spectrum", "--model", "toy", "--params", "huge_c.json"],
        ["spectrum", "--model", "toy", "--params", "huge_ratio.json"],
        ["validate", "--params", "huge_metric_z.json"],
        ["thermo", "--model", "file", "--params", "huge_metric_z.json", "--beta", "1:2:2"],
        ["spectrum", "--model", "file", "--params", "huge_metric_z.json"],
        ["validate", "--params", "huge_metric_x.json"],
        ["spectrum", "--model", "file", "--params", "huge_metric_xy.json"],
        # a slice alone determines no Hamiltonian; a toy's alpha is a number
        ["spectrum", "--model", "toy", "--params", "slice.json"],
        ["compare", "--model", "toy", "--params", "slice.json", "--beta", "1:2:2"],
        ["thermo", "--model", "toy", "--params", "text_alpha.json", "--beta", "1:2:2"],
        ["spectrum", "--model", "toy", "--params", "text_alpha.json"],
        # a spectral grid whose A, S, U or Cv leaves the float range
        ["thermo", "--model", "qubit", "--beta", "1e237:1e239:2"],
        ["thermo", "--model", "qubit", "--n-particles", str(10**308), "--beta", "0.01:0.02:2"],
        ["thermo", "--model", "qubit", "--k", "1e-310", "--beta", "1e-310:1e-308:2"],
        # compare's trace columns past the float range
        ["compare", "--model", "toy", "--params", "strong_toy.json", "--beta", "1e280:1e283:3"],
        ["compare", "--model", "spin", "--omega", "2", "--v", "0.5", "--x", "1e-4",
         "--beta", "1e152:2e152:2"],
        # or their last-beta oracle or Dyson bound, with both columns finite
        ["compare", "--model", "toy", "--params", "stretched_toy.json", "--beta", "1:1e149:2"],
        ["compare", "--model", "toy", "--params", "stretched_toy.json", "--beta", "1:2e150:2"],
        # a last beta past the spot checks' resolution, with every check finite
        ["compare", "--model", "spin", "--omega", "2.028194642310593", "--v", "1.005896909426147",
         "--x", "0.9629032177959622", "--beta", "1e17:2e17:3"],
        ["compare", "--model", "toy", "--params", "zero_gap_toy.json", "--beta", "9e153:9e153:1"],
        ["compare", "--model", "toy", "--params", "zero_gap_toy.json", "--beta", "1e14:1e14:1"],
    ],
    ids=lambda argv: " ".join(a if len(a) < 30 else f"<{len(a)} digits>" for a in argv),
)
def test_configuration_errors_exit_2(runner, tmp_path, argv):
    # a leading QUATSTAT_TOL=value element sets that variable for the command
    env = dict(arg.split("=", 1) for arg in argv if arg.startswith("QUATSTAT_TOL="))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for name, text in CONFIG_INPUTS.items():
            Path(name).write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an escaped exception
            result = runner.invoke(cli, argv[len(env):], env=env)
        assert result.exit_code == 2, result.output
        # click turned it into a usage error; an escaped exception would be
        # result.exception and print a traceback from the console script
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.stderr and "Traceback" not in result.stderr
        # exit 2 means nothing was written, the inputs included
        assert result.stdout == ""
        assert {name: Path(name).read_text() for name in os.listdir()} == CONFIG_INPUTS


def test_metric_past_the_float_range_is_named(runner, tmp_path):
    # x^2 = inf was refused as a "numerically zero" x*y - |z|^2 before
    (tmp_path / "m.json").write_text(CONFIG_INPUTS["huge_metric_x.json"])
    result = runner.invoke(cli, ["validate", "--params", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert result.stderr.endswith("Error: metric rejected: x^2 + |z|^2 or y^2 + |z|^2 passes "
                                  "the float range (x = 1.000e+200, y = 1.000e+00, "
                                  "|z| = 0.000e+00)\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--beta", "0.1:5:3"], "Cv = nan at beta = 0.10000000000000001"),
        (["--beta", "2:5:3"], "A = -inf at beta = 2"),
    ],
)
def test_slice_overflow_names_the_first_beta(runner, tmp_path, argv, message):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["thermo", "--omega", "1e154", "--v", "1e154"] + argv)
        assert result.exit_code == 2 and result.stdout == "" and os.listdir() == []
    assert f"spin slice overflows the float range: {message}\n" in result.stderr
    # Z1 = inf alone is no overflow: A, S, U and Cv come from ln Z1
    result = runner.invoke(cli, ["thermo", "--beta", "800:900:2", "--discrepancies",
                                 str(tmp_path / "d.json")])
    assert result.exit_code == 0
    assert [row.split(",")[1] for row in result.stdout.splitlines()[1:]] == ["inf", "inf"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--beta", "1e237:1e239:2"], "Cv = nan at beta = 9.9999999999999994e+236"),
        (["--n-particles", str(10**308), "--beta", "0.01:0.02:2"], "A = -inf at beta = 0.01"),
        (["--k", "1e-310", "--beta", "1e-310:1e-308:2"],
         "A = -inf at beta = 9.9999999999999694e-311"),
    ],
    ids=["beta-squared", "n-particles", "k"],
)
def test_spectrum_overflow_names_the_first_beta(runner, tmp_path, argv, message):
    # the rule and the wording of the slice refusal, with "spectrum" for "slice"
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["thermo", "--model", "qubit"] + argv)
        assert result.exit_code == 2 and result.stdout == "" and os.listdir() == []
    assert f"qubit spectrum overflows the float range: {message}\n" in result.stderr


def test_compare_past_the_trace_float_range_names_its_columns(runner, tmp_path):
    (tmp_path / "strong.json").write_text(STRONG_TOY)
    result = runner.invoke(cli, ["compare", "--model", "toy", "--params",
                                 str(tmp_path / "strong.json"), "--beta", "1e280:1e283:3"])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.endswith("Error: toy trace columns overflow the float range: "
                                  "Z_formal = nan at beta = 1e+280\n")


@pytest.mark.parametrize(
    "beta, message",
    [
        ("1:1e149:2", "mat_exp = nan at beta = 1e+149"),
        ("1:2e150:2", "(beta |Hp|)^2 = inf at beta = 2e+150"),
    ],
)
def test_compare_names_a_check_past_the_float_range(runner, tmp_path, beta, message):
    # both trace columns are finite; the check at the last beta is not, and
    # the float power (beta |Hp|) ** 2 raised OverflowError before
    (tmp_path / "stretched.json").write_text(STRETCHED_TOY)
    result = runner.invoke(cli, ["compare", "--model", "toy", "--params",
                                 str(tmp_path / "stretched.json"), "--beta", beta])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.endswith(f"Error: toy trace columns overflow the float range: {message}\n")


@pytest.mark.parametrize("beta, code", [("1.2e13", 0), ("1.3e13", 2)])
def test_compare_refuses_a_last_beta_past_the_spot_checks_resolution(runner, tmp_path, beta,
                                                                      code):
    # 256 eps beta |H| is 0.96 at beta = 1.2e13 and 1.04 at 1.3e13; from 1 on,
    # the allowance of a check is at least the size of the column it checks
    (tmp_path / "zero_gap.json").write_text(ZERO_GAP_TOY)
    result = runner.invoke(cli, ["compare", "--model", "toy", "--params",
                                 str(tmp_path / "zero_gap.json"), "--beta", f"1:{beta}:3"])
    assert result.exit_code == code, result.output
    if code:
        assert result.stdout == ""
        assert result.stderr.endswith(
            "Error: toy spot checks cannot resolve beta = 13000000000000: "
            "beta |H| = 18384776310850.238 reaches 1/(256 eps)\n")


def test_compare_names_the_first_trace_column_past_the_float_range(runner, tmp_path):
    # at the first beta the formal trace is still finite, and the Dyson trace,
    # which grows like (beta |Hp|)^2, is the column named
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, [
            "compare", "--model", "spin", "--omega", "2.9104924649109383",
            "--v", "1.2121464591447773", "--x", "0.7359355920825832",
            "--beta", "1.5076059900544147e+302:1.2988998742394202e+303:40", "--log"])
        assert result.exit_code == 2 and result.stdout == "" and os.listdir() == []
    assert result.stderr.endswith("Error: spin trace columns overflow the float range: "
                                  "Z1_dyson = nan at beta = 1.5076059900544147e+302\n")


@pytest.mark.parametrize(
    "argv",
    [
        # a subnormal Dyson node t g, whose phi1 is 1
        ["compare", "--model", "toy", "--params", "subnormal.json", "--beta", "0.1:0.3:3"],
        ["compare", "--model", "qubit", "--beta", "1e-310:1e-308:3"],
        # a spin model whose largest entry is subnormal
        ["spectrum", "--model", "spin", "--omega", "1e-310", "--v", "5e-324", "--x", "0.5"],
        ["thermo", "--model", "spin", "--omega", "1e-310", "--v", "5e-324", "--x", "0.5"],
        ["compare", "--model", "spin", "--omega", "1e-310", "--v", "5e-324", "--x", "0.5"],
        # Z1 = inf - inf in the max-gap summary
        ["compare", "--model", "spin", "--omega", "100000", "--v", "0.5", "--x", "0.5",
         "--beta", "4.98:48795:4"],
        # Z1 = inf alone, on the spectral path
        ["thermo", "--model", "qubit", "--beta", "800:900:2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_float_range_edges_run_without_a_warning(runner, tmp_path, argv):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("subnormal.json").write_text(SUBNORMAL_TOY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an escaped exception
            result = runner.invoke(cli, argv)
    assert result.exit_code == 0, result.output
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr


def test_order_study_with_an_exact_zero_error_warns_nothing(runner, tmp_path):
    # one truncation error of the order study is exactly 0 here, so its log is
    # -inf and the slope NaN; the verdict is not pinned (ROADMAP item 12)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is an escaped exception
            result = runner.invoke(cli, ["compare", "--model", "spin", "--omega", "1.47",
                                         "--v", "0.00065", "--x", "3e-7", "--beta", "0.1:2:5"])
    assert not isinstance(result.exception, Warning), result.exception
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr


WRITER_CELLS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, -1.5, 0.1,
                np.float64(2.5), np.float64(math.nan), 7, "infinite"]


def json_text(names, rows) -> str:
    return json.dumps([dict(zip(names, row)) for row in rows], indent=2) + "\n"


def test_discrepancy_log_template_is_jsons_indent_2():
    # a log's cells are its own encoded values, its beta cells are the grid's
    # cells at each record's index, and a quantity with a table column takes
    # its derived cells from there: each must be exactly what
    # json.dumps(indent=2) writes
    values = WRITER_CELLS[:11]
    quantities = ["U", "S", "Cv", "Z1", "S_two_level", "P", "U", 'q"\\', "Z_formal", "S", "Cv",
                  "U", "S%r", "U", 'q"\\', "Cv"]
    grid = [1e307 / (i + 1) for i in range(5)] + values
    at = [5 + i for i in range(11)] + [0, 1, 1, 3, 4]
    printed = values + [0.1 * i for i in range(5)]
    derived = values[3:] + values[:3] + [-1.5e-300 * i for i in range(5)]
    table_u = [math.nan] * len(grid)
    for q, i, d in zip(quantities, at, derived):
        if q == "U":
            table_u[i] = d
    records = [DiscrepancyRecord(*r) for r in zip(quantities, printed, derived,
                                                  [grid[i] for i in at])]
    for chosen in ([], [0], list(range(11, 16)), list(range(16))):
        log = DiscrepancyLog(*([column[i] for i in chosen]
                               for column in (quantities, printed, derived)),
                             [grid[at[i]] for i in chosen], [at[i] for i in chosen])
        assert log.records() == [records[i] for i in chosen]
        want = json.dumps([vars(records[i]) for i in chosen], indent=2) + "\n"
        for shared in ({}, {"U": _json_cells(table_u)}):
            assert _json_table(_RECORD_FIELDS, _log_cells(log, _json_cells(grid), shared)) == want
    # --output json tables: the cells the runners emit, strings and ints included
    header = ["beta", "multiplicity", "T", "Z1 %r"]
    rows = [(np.float64(v), i, "infinite", v) for i, v in enumerate(values)]
    rows += [(-0.0, -3, 'q"\\', np.float64(-math.inf)), (0.1, -0.0, 5e-324, 1e308),
             (1e308, 1e308, 1.0, -2.5), ("infinite", 1.0, 2.0, 3.0)]
    # finite numpy scalars print as np.float64(...) under %r: fallback cells
    numpy_cells = [(np.float64(2.5), 0.5, "T", 1.0), (0.25, 1.5, "T", np.float64(-1.0))]
    for chosen in ([], rows[:1], rows[-3:-1], rows[-2:], rows, numpy_cells):
        columns = list(zip(*chosen)) or [[] for _ in header]
        assert _json_table(header, [_json_cells(c) for c in columns]) == json_text(header, chosen)


def test_json_writer_on_a_spectral_table_past_the_float_range():
    # Z1 = exp(800) is inf, A, S, U and Cv stay finite: the Z1 column is
    # encoded cell by cell and the others by repr
    with np.errstate(over="ignore"):
        grid = spectral_grid(SpectralEnsemble(((-800.0, 1), (0.0, 2))), [0.5, 1.0, 2.0])
    header = ["beta", "Z1", "A", "S", "U", "Cv"]
    assert math.isinf(grid.Z1[-1]) and math.isfinite(grid.Z1[0])
    columns = [_json_cells(getattr(grid, name)) for name in header]
    assert _json_table(header, columns) == json_text(header, grid.rows())


@pytest.mark.parametrize("output", ["csv", "json"])
def test_thermo_log_reuses_the_table_cells(runner, tmp_path, output):
    # the log written with the table's beta and derived cells is the
    # library's records, as json.dumps writes them
    sl = EnergySliceParams.from_spin(2.0, 0.5)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["thermo", "--beta", "0.1:4:40", "--n-particles", "3",
                                     "--k", "1.3", "--rederived", "--output", output])
        assert result.exit_code == 0, result.output
        log = Path("discrepancies.json").read_text()
    betas = np.linspace(0.1, 4, 40).tolist()
    grid = closed_form_grid(sl, betas, 3, 1.3, True, 1e-8)
    records = grid.discrepancies.records()
    assert {r.quantity for r in records} == {"U", "S", "Cv"}
    assert log == json.dumps([vars(r) for r in records], indent=2) + "\n"
    if output == "json":
        assert json.loads(result.stdout) == [
            dict(zip(["beta", "Z1", "A", "S", "U", "Cv"], row)) for row in grid.rows()]


def test_compare_log_reuses_the_rederived_cells(runner, tmp_path):
    # under --output json a Z1 record's derived cell is the Z1_rederived cell
    # of its beta's row, and every record's beta cell is a row's beta cell
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["compare", "--beta", "0.2:3:30", "--output", "json"])
        assert result.exit_code == 0, result.output
        log = json.loads(Path("discrepancies.json").read_text())
    rows = {row["beta"]: row for row in json.loads(result.stdout)}
    z1 = [r for r in log if r["quantity"] == "Z1"]
    assert len(z1) == len(rows) and all(r["beta"] in rows for r in log)
    assert all(r["derived_value"] == rows[r["beta"]]["Z1_rederived"] for r in z1)
    assert {r["quantity"] for r in log} == {"Z1", "S", "Cv", "U", "S_two_level"}


@pytest.mark.parametrize("argv", [
    ["thermo", "--beta", "0.1:4:40"],
    ["thermo", "--beta", "0.1:4:40", "--output", "json", "--rederived"],
    ["compare", "--beta", "0.2:2:10"],
    ["compare", "--beta", "0.2:2:10", "--output", "json"],
], ids=["thermo-csv", "thermo-json", "compare-csv", "compare-json"])
def test_commands_build_no_record_objects(runner, tmp_path, monkeypatch, argv):
    def refuse(self, *args):
        raise AssertionError("a DiscrepancyRecord was built")

    monkeypatch.setattr(DiscrepancyRecord, "__init__", refuse)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, argv)
        assert result.exit_code == 0, result.output
        assert json.loads(Path("discrepancies.json").read_text())


def test_csv_template_is_the_per_cell_join():
    # one template per row, %.17g for a column of numbers and %s for a
    # column of strings, gives the bytes of _fmt joined by commas
    header = ["E", "S", "T"]
    cells = WRITER_CELLS
    plain = [tuple(cells[i:i + 3]) for i in range(0, 10)]
    mixed = [(c, 2.5, "infinite") for c in cells[:-1]]
    for rows in ([], plain, mixed):
        want = "\n".join([",".join(header), *(
            ",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)])
        assert _csv_table(header, list(zip(*rows)) or [[] for _ in header]) == want + "\n"


def test_params_file_error_names_the_file(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for name, text in NON_FINITE.items():
            Path(name).write_text(text)
        result = runner.invoke(cli, ["negtemp", "--params", "huge_n.json"])
        assert "params file huge_n.json: 1e400 is not a finite number" in result.stderr
        result = runner.invoke(cli, ["validate", "--params", "inf_metric.json"])
        assert "params file inf_metric.json: Infinity is not a finite number" in result.stderr


@pytest.mark.parametrize("command", [["thermo"], ["compare", "--beta", "0.2:1:3"]])
def test_unwritable_destination_writes_nothing(runner, tmp_path, command):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("taken").mkdir()
        for flag in ("--discrepancies", "--out"):
            result = runner.invoke(cli, [*command, flag, "taken"])
            assert result.exit_code == 2, result.output
            assert "cannot write taken: it is a directory" in result.stderr
            assert result.stdout == ""
            assert sorted(os.listdir()) == ["taken"] and not os.listdir("taken")


def test_thermo_slice_log_is_written_without_records(runner, tmp_path):
    # an empty log replaces the records of an earlier run, as compare's does
    args = ["thermo", "--beta", "1:3:3"]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        assert runner.invoke(cli, args).exit_code == 0
        assert len(json.loads(Path("discrepancies.json").read_text())) == 3
        result = runner.invoke(cli, args + ["--tolerance", "1e6"])
        assert result.exit_code == 0, result.output
        assert Path("discrepancies.json").read_text() == "[]\n"
        assert result.stderr == "wrote 0 discrepancy records to discrepancies.json\n"


def test_thermo_without_records_never_opens_the_log(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["thermo", "--model", "qubit", "--beta", "1:2:3",
                                     "--discrepancies", "/nonexistent/d.json"])
        assert result.exit_code == 0, result.output
        assert len(parse_csv(result.stdout)[1]) == 3
        # no log is written, so the table may take the log's default name
        result = runner.invoke(cli, ["thermo", "--model", "qubit", "--beta", "1:2:3",
                                     "--out", "discrepancies.json"])
        assert result.exit_code == 0, result.output
        assert len(parse_csv(Path("discrepancies.json").read_text())[1]) == 3


@pytest.mark.parametrize(
    "argv, ascending",
    [
        (["thermo", "--beta", "2:0.5:4"], ["thermo", "--beta", "0.5:2:4"]),
        (["thermo", "--model", "qubit", "--beta", "4:0.5:4", "--log"],
         ["thermo", "--model", "qubit", "--beta", "0.5:4:4", "--log"]),
        (["compare", "--beta", "2:0.5:4"], ["compare", "--beta", "0.5:2:4"]),
        (["negtemp", "--grid", "2.5:1.5:3", "--n-particles", "2"],
         ["negtemp", "--grid", "1.5:2.5:3", "--n-particles", "2"]),
    ],
    ids=["thermo", "thermo-qubit-log", "compare", "negtemp"],
)
def test_rows_ascend_over_a_descending_grid(runner, tmp_path, argv, ascending):
    log = Path("discrepancies.json")
    outputs = []
    for args in (argv, ascending):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
            outputs.append((result.stdout, log.read_bytes() if log.exists() else None))
    column = [float(row[0]) for row in parse_csv(outputs[0][0])[1]]
    assert column == sorted(column) and len(set(column)) == len(column)
    # these endpoints give the same points either way, so the same bytes
    assert outputs[0] == outputs[1]


# -- negtemp --------------------------------------------------------------------


def test_negtemp_table(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli,
            ["negtemp", "--model", "spin", "--omega", "2", "--v", "0.5",
             "--n-particles", "10", "--points", "11"],
        )
        assert result.exit_code == 0, result.output
        header, rows = parse_csv(result.stdout)
        assert header == ["E", "S_stirling", "S_exact", "T"]
        assert len(rows) == 11
        midpoint = rows[5]
        assert float(midpoint[0]) == pytest.approx(10.0)
        assert float(midpoint[1]) == pytest.approx(10 * math.log(2), rel=1e-12)
        assert midpoint[3] == "infinite"
        temperatures = [row[3] for row in rows]
        below = [float(t) for t in temperatures[1:5]]
        above = [float(t) for t in temperatures[6:10]]
        assert all(t > 0 for t in below) and all(t < 0 for t in above)


def test_negtemp_narrow_band_keeps_its_edges(runner, tmp_path):
    # the slack is relative to the band, so a band of width 1e-299 still
    # reads T = 0 and -0 at its edges and infinite only at the midpoint
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["negtemp", "--model", "custom", "--e-plus", "1e-300",
                                     "--e-minus", "0", "--points", "3"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        assert [row[3] for row in rows] == ["0", "infinite", "-0"]


def test_negtemp_past_the_lgamma_range_prints_finite_entropy(runner, tmp_path):
    # ln N! passes the float range near N = 2.6e305; S_exact does not. At
    # N = 10**308 the default band, 0.5e308 to 1.5e308, is still finite
    for n in (10**306, 10**308):
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(cli, ["negtemp", "--n-particles", str(n), "--points", "3"])
            assert result.exit_code == 0, result.output
            _, rows = parse_csv(result.stdout)
            s_exact = [float(row[2]) for row in rows]
            assert s_exact[0] == s_exact[2] == 0.0
            assert s_exact[1] == pytest.approx(n * math.log(2.0), rel=1e-12)


def test_negtemp_params_file(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("gas.json", "w") as handle:
            json.dump({"omega": 2.0, "v": 0.5, "n_particles": 10}, handle)
        from_file = runner.invoke(cli, ["negtemp", "--params", "gas.json",
                                        "--points", "11"])
        from_flags = runner.invoke(
            cli, ["negtemp", "--model", "spin", "--omega", "2", "--v", "0.5",
                  "--n-particles", "10", "--points", "11"]
        )
        assert from_file.exit_code == 0 and from_flags.exit_code == 0
        assert from_file.stdout == from_flags.stdout
        with open("levels.json", "w") as handle:
            json.dump({"e_plus": 1.0, "e_minus": -1.0, "n_particles": 4}, handle)
        result = runner.invoke(cli, ["negtemp", "--params", "levels.json",
                                     "--points", "5"])
        assert result.exit_code == 0
        with open("junk.json", "w") as handle:
            json.dump({"foo": 1}, handle)
        assert runner.invoke(cli, ["negtemp", "--params", "junk.json"]).exit_code == 2
        with open("bad_n.json", "w") as handle:
            json.dump({"n_particles": "x", "e_plus": 1, "e_minus": 0}, handle)
        result = runner.invoke(cli, ["negtemp", "--params", "bad_n.json"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "negtemp params rejected" in result.stderr
        # only a JSON integer is a particle count: nothing is truncated
        for n_particles in (2.7, 3.0, True, "3"):
            with open("float_n.json", "w") as handle:
                json.dump({"e_plus": 1, "e_minus": 0, "n_particles": n_particles}, handle)
            result = runner.invoke(cli, ["negtemp", "--params", "float_n.json"])
            assert result.exit_code == 2, n_particles
            assert "negtemp params rejected: n_particles" in result.stderr


def test_negtemp_custom_and_errors(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(
            cli,
            ["negtemp", "--model", "custom", "--e-plus", "1", "--e-minus", "-1",
             "--n-particles", "4", "--grid", "-4:4:9"],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli, ["negtemp", "--model", "custom"])
        assert result.exit_code == 2
        result = runner.invoke(
            cli,
            ["negtemp", "--model", "custom", "--e-plus", "1", "--e-minus", "-1",
             "--grid", "-40:40:3"],
        )
        assert result.exit_code == 2


@pytest.mark.parametrize("argv, message", [
    (["--omega", "-1"], "negtemp --omega/--v/--x/--n-particles rejected: omega must be positive"),
    (["--model", "custom", "--e-plus", "1e308", "--e-minus", "-1e308", "--n-particles", "1"],
     "negtemp --e-plus/--e-minus/--n-particles rejected: band [-1e+308, 1e+308] past the float"),
    (["--model", "qubit", "--n-particles", str(10 ** 308)],
     "negtemp --n-particles rejected: band [0.0, inf] past the float range"),
    (["--params", "spin.json"], "negtemp params rejected: omega must be positive"),
    (["--params", "spin.json", "--omega", "1"], "negtemp params rejected: omega must be positive"),
], ids=["spin-flags", "custom-flags", "qubit-flags", "params", "params-over-flags"])
def test_negtemp_error_names_its_source(runner, tmp_path, argv, message):
    # a refused gas names the params file when one was given, else its flags
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("spin.json").write_text('{"omega": -1, "v": 0.5}')
        result = runner.invoke(cli, ["negtemp", *argv])
        assert result.exit_code == 2, result.output
        assert f"Error: {message}" in result.stderr


# -- validate --------------------------------------------------------------------


def test_validate_spin_file(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("spin.json", "w") as handle:
            json.dump(SPIN_FILE, handle)
        result = runner.invoke(cli, ["validate", "--params", "spin.json"])
        assert result.exit_code == 0, result.output
        assert "pseudo-anti-hermitian: yes" in result.output
        assert "quasi-anti-hermitian: yes" in result.output
        assert "pseudo-hermitian: no" in result.output


def test_validate_identity_matrix(runner, tmp_path):
    payload = {
        "matrix": {"n": 2, "entries": [
            [[1, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [1, 0, 0, 0]],
        ]},
        "metric": {"x": 1, "y": 1, "z": [0, 0]},
    }
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("m.json", "w") as handle:
            json.dump(payload, handle)
        result = runner.invoke(cli, ["validate", "--params", "m.json"])
        assert result.exit_code == 0
        assert "pseudo-anti-hermitian: no" in result.output
        assert "pseudo-hermitian: yes" in result.output


def test_validate_corrupted_constraint(runner, tmp_path):
    corrupted = json.loads(json.dumps(SPIN_FILE))
    corrupted["matrix"]["entries"][1][0] = [0, 0, 0.75, 0]  # breaks d = -c*
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("bad.json", "w") as handle:
            json.dump(corrupted, handle)
        result = runner.invoke(cli, ["validate", "--params", "bad.json"])
        assert result.exit_code == 0
        assert "pseudo-anti-hermitian: no" in result.output
        line = next(
            l for l in result.output.splitlines() if l.startswith("pseudo-anti")
        )
        residual = float(line.split("residual ")[1].rstrip(")"))
        assert residual > 1e-3


def test_validate_tolerance_env(runner, tmp_path):
    # one coupling entry off by 1e-9: a residual between validate's own
    # default (1e-10) and the other subcommands' (1e-8)
    near = json.loads(json.dumps(SPIN_FILE))
    near["matrix"]["entries"][1][0] = [0, 0, 0.5 + 1e-9, 0]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("near.json", "w") as handle:
            json.dump(near, handle)
        args = ["validate", "--params", "near.json"]
        for bad in ("abc", "nan", "inf", "-inf"):
            result = runner.invoke(cli, args, env={"QUATSTAT_TOL": bad})
            assert result.exit_code == 2
            assert "QUATSTAT_TOL is not a number" in result.output
            assert isinstance(result.exception, SystemExit)
        default = runner.invoke(cli, args, env={"QUATSTAT_TOL": None})
        loose = runner.invoke(cli, args, env={"QUATSTAT_TOL": "1e-8"})
        flag = runner.invoke(cli, args + ["--tolerance", "1e-10"],
                             env={"QUATSTAT_TOL": "1e-8"})
        assert default.exit_code == loose.exit_code == flag.exit_code == 0
        assert "quasi-anti-hermitian: no" in default.output
        assert "quasi-anti-hermitian: yes" in loose.output
        assert flag.output == default.output


def test_validate_malformed_inputs(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("broken.json", "w") as handle:
            handle.write("{not json")
        assert runner.invoke(cli, ["validate", "--params", "broken.json"]).exit_code == 2
        ragged = {"matrix": {"n": 2, "entries": [[[0, 0, 0, 0]]]},
                  "metric": {"x": 1, "y": 1}}
        with open("ragged.json", "w") as handle:
            json.dump(ragged, handle)
        assert runner.invoke(cli, ["validate", "--params", "ragged.json"]).exit_code == 2
        mismatched = {
            "matrix": {"n": 3, "entries": [[[0, 0, 0, 0]] * 3 for _ in range(3)]},
            "metric": {"x": 1, "y": 1},
        }
        with open("mismatch.json", "w") as handle:
            json.dump(mismatched, handle)
        assert (
            runner.invoke(cli, ["validate", "--params", "mismatch.json"]).exit_code == 2
        )


# -- spectrum --------------------------------------------------------------------


def test_spectrum_subcommand(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["spectrum", "--model", "qubit", "--phi", "0.4"])
        assert result.exit_code == 0, result.output
        header, rows = parse_csv(result.stdout)
        assert header == ["energy", "multiplicity"]
        # the closed-form levels, not a continuation a few ulps off
        assert rows == [["0", "1"], ["2", "1"]]
        with open("spin.json", "w") as handle:
            json.dump(SPIN_FILE, handle)
        result = runner.invoke(
            cli, ["spectrum", "--model", "file", "--params", "spin.json"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.stdout)
        energies = sorted(float(r[0]) for r in rows)
        assert energies == pytest.approx([0.5, 1.5], abs=1e-9)


def test_spectrum_signed_energies_from_file(runner, tmp_path):
    strong = json.loads(json.dumps(SPIN_FILE))
    strong["matrix"]["entries"][0][1] = [0, 0, 1.5, 0]
    strong["matrix"]["entries"][1][0] = [0, 0, 1.5, 0]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        with open("strong.json", "w") as handle:
            json.dump(strong, handle)
        result = runner.invoke(
            cli, ["spectrum", "--model", "file", "--params", "strong.json"]
        )
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        energies = sorted(float(r[0]) for r in rows)
        assert energies == pytest.approx([-0.5, 2.5], abs=1e-9)


def test_spectrum_gives_each_conjugate_class_one_level(runner, tmp_path):
    # chi(H) has the classes 1.942... and 2.171...; one level crosses zero
    # before tau = 1/16, so either sign of it is a valid answer, but two
    # branches on +iE and -iE of one class are not
    toy = {"a": [0, -0.11491090553883937, 0, 0], "b": [0, 0.11491090553883937, 0, 0],
           "c": [0, 0, 1.3701693113623268, 1.03625303462038],
           "alpha": 0.8072517723252874, "gamma": 0.5630625551857802}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("toy.json").write_text(json.dumps(toy))
        result = runner.invoke(cli, ["spectrum", "--model", "toy", "--params", "toy.json"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        levels = sorted(abs(float(r[0])) for r in rows)
        assert levels == pytest.approx([1.9420419862203946, 2.1718637972980739], rel=1e-12)


def test_spectrum_of_a_toy_with_no_slice_reading(runner, tmp_path):
    # a and b on the j-line have no commuting-scalar slice, which spectrum
    # never reads; its levels are the magnitudes of chi(H)'s classes
    toy = {"a": [0, 0, 0.5, 0], "b": [0, 0, -0.5, 0], "c": [0, 0.3, 0, 0]}
    h = quatstat.build_toy_hamiltonian(quatstat.ToyModelParams(
        *(quatstat.Quaternion.from_list(toy[key]) for key in "abc"), alpha=1.0, gamma=1.0))
    classes = sorted(abs(z) for z, _ in quatstat.standard_spectrum(h))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("toy.json").write_text(json.dumps(toy))
        result = runner.invoke(cli, ["spectrum", "--model", "toy", "--params", "toy.json"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        assert sorted(abs(float(r[0])) for r in rows) == pytest.approx(classes, rel=1e-12)
        assert len(classes) == 2


@pytest.mark.parametrize("omega, v, levels", [("0.25", "4", ["-3.875,1", "4.125,1"]),
                                              ("3e8", "1e8", ["50000000,1", "250000000,1"])])
def test_spin_model_takes_a_potential_far_above_the_splitting(runner, tmp_path, omega, v,
                                                              levels):
    spin = ["--model", "spin", "--omega", omega, "--v", v]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(cli, ["spectrum", *spin])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.stderr
        assert result.stdout.splitlines()[1:] == levels
        argvs = [["thermo", *spin, "--beta", "0.5:2:4"]]
        if omega == "0.25":
            # at beta*|H| near 1e8 compare's fixed spot-check bound is below rounding
            argvs.append(["compare", *spin, "--beta", "0.1:1:3"])
        for argv in argvs:
            result = runner.invoke(cli, argv)
            assert result.exit_code == 0, result.output
            assert "Traceback" not in result.stderr


def test_file_model_groups_near_degenerate_levels(runner, tmp_path):
    # validate calls this matrix quasi-anti-Hermitian; its three levels lie
    # within 1.4e-8 (relative) of each other
    levels = [0.7627842800821074, 0.7627842905937856, 0.7627842879348886]
    entries = [[[0, level, 0, 0] if i == j else [0, 0, 0, 0] for j in range(3)]
               for i, level in enumerate(levels)]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("diag.json").write_text(json.dumps({"matrix": {"n": 3, "entries": entries}}))
        result = runner.invoke(cli, ["validate", "--params", "diag.json"])
        assert "quasi-anti-hermitian: yes" in result.stdout
        result = runner.invoke(cli, ["spectrum", "--model", "file", "--params", "diag.json"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        assert sorted(float(r[0]) for r in rows) == pytest.approx(sorted(levels),
                                                                  rel=1e-15)


def scaled_spin_file(scale):
    """:data:`SPIN_FILE`'s matrix times ``scale``, with no metric object."""
    entries = [[[scale * v for v in cell] for cell in row]
               for row in SPIN_FILE["matrix"]["entries"]]
    return {"matrix": {"n": 2, "entries": entries}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, code", [(1e150, 0), (1e160, 2), (1e308, 2)])
@pytest.mark.parametrize(
    "argv", [["spectrum", "--model", "file"], ["thermo", "--model", "file"], ["validate"]],
    ids=" ".join,
)
def test_matrix_past_the_frobenius_range_is_a_configuration_error(runner, tmp_path, argv,
                                                                   scale, code):
    # from entries near 1e154 on, the squared Frobenius norm that every matrix
    # check needs overflows; below that the commands run as they did
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("huge.json").write_text(json.dumps(scaled_spin_file(scale)))
        result = runner.invoke(cli, [*argv, "--params", "huge.json"])
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        if code:
            assert "squared Frobenius norm overflows" in result.stderr
            assert result.stdout == ""
            assert os.listdir() == ["huge.json"]


@pytest.mark.filterwarnings("error")
def test_validate_residual_does_not_overflow_below_the_size_bound(runner, tmp_path):
    # eta H eta^-1 - H^dag is 2H here, whose squared norm passes the float range
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("big.json").write_text(json.dumps(scaled_spin_file(5e153)))
        result = runner.invoke(cli, ["validate", "--params", "big.json"])
        assert result.exit_code == 0, result.output
        assert "pseudo-hermitian: no (residual 2.000000e+00)" in result.stdout


def test_file_model_without_a_metric_takes_any_n(runner, tmp_path):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("diag3.json").write_text(json.dumps(DIAG_3))
        result = runner.invoke(cli, ["spectrum", "--model", "file", "--params", "diag3.json"])
        assert result.exit_code == 0, result.output
        _, rows = parse_csv(result.stdout)
        assert sorted(float(r[0]) for r in rows) == pytest.approx([1.0, 1.0, 2.0], abs=1e-12)
        result = runner.invoke(cli, ["validate", "--params", "diag3.json"])
        assert result.exit_code == 0, result.output
        assert "pseudo-anti-hermitian: yes" in result.output
        # a metric object describes a 2x2 metric, which a 3x3 matrix does not fit
        with_metric = {**DIAG_3, "metric": {"x": 1, "y": 1}}
        Path("diag3_metric.json").write_text(json.dumps(with_metric))
        for argv in (["spectrum", "--model", "file"], ["validate"]):
            result = runner.invoke(cli, [*argv, "--params", "diag3_metric.json"])
            assert result.exit_code == 2, result.output
            assert "matrix is 3-dim but metric is 2-dim" in result.stderr


def test_validate_default_metric_is_the_unit_metric(runner, tmp_path):
    matrix = {"n": 2, "entries": [
        [[0.1, 1, 0.3, 0], [0.2, 0, 0.5, 0.1]],
        [[0, 0.4, 0.5, 0], [0, -1, 0, 0.7]],
    ]}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("bare.json").write_text(json.dumps({"matrix": matrix}))
        Path("unit.json").write_text(json.dumps({"matrix": matrix, "metric": {"x": 1, "y": 1}}))
        bare = runner.invoke(cli, ["validate", "--params", "bare.json"])
        unit = runner.invoke(cli, ["validate", "--params", "unit.json"])
        assert bare.exit_code == unit.exit_code == 0
        assert bare.output == unit.output


@pytest.mark.parametrize("argv", [["spectrum", "--model", "qubit"], ["negtemp", "--points", "3"]])
def test_tolerance_only_where_a_comparison_reads_it(runner, tmp_path, argv):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        plain = runner.invoke(cli, argv, env={"QUATSTAT_TOL": None})
        bad_env = runner.invoke(cli, argv, env={"QUATSTAT_TOL": "abc"})
        assert plain.exit_code == bad_env.exit_code == 0, bad_env.output
        assert bad_env.stdout == plain.stdout
        result = runner.invoke(cli, [*argv, "--tolerance", "1e-3"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr


def test_spectral_z1_overflow_prints_inf_without_a_warning(tmp_path, cli_env):
    # a negative level: Z1 passes the float range at beta = 1500
    strong = json.loads(json.dumps(SPIN_FILE))
    strong["matrix"]["entries"][0][1] = [0, 0, 1.5, 0]
    strong["matrix"]["entries"][1][0] = [0, 0, 1.5, 0]
    (tmp_path / "strong.json").write_text(json.dumps(strong))
    # a subprocess, since pytest would capture the warning of an in-process run
    proc = subprocess.run(
        [sys.executable, "-m", "quatstat.cli", "thermo", "--model", "file",
         "--params", "strong.json", "--beta", "1500:1600:2"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    _, rows = parse_csv(proc.stdout)
    assert [row[1] for row in rows] == ["inf", "inf"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[2:])


def run_large_beta(tmp_path, cli_env, argv):
    """Run ``argv`` in a subprocess, so that a numpy warning reaches stderr,
    with two slice files at hand; return its CSV rows and discrepancy log."""
    (tmp_path / "positive.json").write_text('{"aE": 1.0, "bE": 0.5, "kappa": -0.1}')
    (tmp_path / "mixed.json").write_text('{"aE": 0.1, "bE": -1, "kappa": -0.2}')
    proc = subprocess.run([sys.executable, "-m", "quatstat.cli", *argv],
                          cwd=tmp_path, env=cli_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    log = tmp_path / "discrepancies.json"
    records = json.loads(log.read_text()) if log.exists() else []
    assert all(math.isfinite(r["printed_value"]) for r in records)
    return parse_csv(proc.stdout)[1], records


def test_slice_z1_overflow_prints_inf_with_finite_thermodynamics(tmp_path, cli_env):
    # exp(-bE beta) passes the float range from beta = 710 on
    rows, _ = run_large_beta(tmp_path, cli_env, ["thermo", "--beta", "750:760:2"])
    assert [row[1] for row in rows] == ["inf", "inf"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[2:])


def test_compare_past_the_slice_float_range(tmp_path, cli_env):
    rows, _ = run_large_beta(tmp_path, cli_env, ["compare", "--beta", "700:800:3"])
    assert [row[3:5] for row in rows[1:]] == [["inf", "-inf"]] * 2


def test_compare_gap_past_the_float_range_prints_no_warning(tmp_path, cli_env):
    # the printed and rederived Z1 reach finite values near 1e308 of opposite
    # sign, whose difference overflows in the log rule and the summary
    rows, _ = run_large_beta(tmp_path, cli_env, [
        "compare", "--model", "spin", "--omega", "3.4212049120201513",
        "--v", "1.126318141342953", "--x", "0.5938461482886525",
        "--beta", "0.021072561557451703:674.8084832362838:1635",
        "--n-particles", "4", "--k", "1.4607096064487057"])
    assert len(rows) == 1635


def test_positive_slice_specific_heat_at_large_beta(tmp_path, cli_env):
    # Z1 squared underflows from beta ~ 710; with exp(-beta/2) below 1e-160,
    # Cv = -(0.2 beta / (1 + 0.2 beta))^2, as 60-digit mpmath gives
    rows, _ = run_large_beta(tmp_path, cli_env, ["thermo", "--model", "toy", "--params",
                                                 "positive.json", "--beta", "700:800:3"])
    assert [row[0] for row in rows] == ["700", "750", "800"]
    for row in rows:
        beta = float(row[0])
        assert float(row[5]) == pytest.approx(-(0.2 * beta / (1 + 0.2 * beta)) ** 2, rel=1e-12)


def test_slice_of_both_signs_logs_no_infinite_display_value(tmp_path, cli_env):
    # the printed entropy reads ln Z1 = inf from beta = 750 on
    rows, records = run_large_beta(tmp_path, cli_env, ["thermo", "--model", "toy",
                                                       "--params", "mixed.json",
                                                       "--beta", "700:800:3"])
    assert [row[1] for row in rows[1:]] == ["inf", "inf"]
    assert records


def test_cli_subprocess_imports_the_package_under_test(tmp_path, cli_env):
    # The acceptance criteria run ``python -m quatstat.cli`` in tmp_path;
    # they prove nothing if the child imports some other quatstat.
    proc = subprocess.run(
        [sys.executable, "-c", "import quatstat; print(quatstat.__file__)"],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(quatstat.__file__).resolve()


#: Run in a fresh interpreter with a command's arguments: import the CLI, run
#: the command in-process, then report its exit code and the scipy, dataclasses
#: and quatstat modules loaded on the last line of stderr.
SCIPY_PROBE = """
import json, sys
from quatstat.cli import cli
code = None
if sys.argv[1:]:
    try:
        cli.main(sys.argv[1:], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
loaded = {prefix: sorted(name for name in sys.modules if name.split(".")[0] == prefix)
          for prefix in ("scipy", "dataclasses", "quatstat")}
sys.stderr.write("\\n" + json.dumps({"code": code, **loaded}))
"""


#: ``diag(i, -2i, 3i, -4i, 5i)``: a five-level ``file`` model.
FIVE_LEVELS = {"matrix": {"n": 5, "entries": [
    [[0, e if i == j else 0, 0, 0] for j in range(5)]
    for i, e in enumerate([1.0, -2.0, 3.0, -4.0, 5.0])
]}}


def scipy_probe(tmp_path, cli_env, argv):
    (tmp_path / "spin.json").write_text(json.dumps(SPIN_FILE))
    (tmp_path / "five.json").write_text(json.dumps(FIVE_LEVELS))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv],
                          cwd=tmp_path, env=cli_env, capture_output=True, text=True)
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["thermo", "--beta", "0.1:5:20"],
        ["thermo", "--model", "qubit", "--beta", "0.1:5:20"],
        ["thermo", "--model", "file", "--params", "spin.json", "--beta", "0.1:5:20"],
        ["thermo", "--model", "file", "--params", "five.json", "--beta", "0.1:5:3"],
        ["spectrum"],
        ["spectrum", "--model", "qubit"],
        ["spectrum", "--model", "file", "--params", "spin.json"],
        ["validate", "--params", "spin.json"],
        ["compare", "--beta", "0.1:5:20"],
        ["negtemp", "--points", "5"],
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_import_and_scipy_free_commands_load_no_scipy(tmp_path, cli_env, argv):
    report = scipy_probe(tmp_path, cli_env, argv)
    assert (report["code"], report["scipy"]) == (0 if argv else None, [])
    # the value classes generate no code at import, so nothing loads dataclasses
    assert report["dataclasses"] == []
    if not argv:
        # perfbench's traced run times the modules that `import quatstat.cli`
        # loads and looks up each of these; a lazy import would lose one
        layers = ("quaternion", "linalg", "thermo", "models", "metric", "cli")
        assert {f"quatstat.{name}" for name in layers} <= set(report["quatstat"])


def test_scipy_probe_sees_a_scipy_import(tmp_path, cli_env):
    # the probe does see scipy: a sitecustomize module on the child's path
    # loads scipy.optimize before the command runs
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text("import scipy.optimize\n")
    env = {**cli_env, "PYTHONPATH": os.pathsep.join([str(site), cli_env["PYTHONPATH"]])}
    report = scipy_probe(tmp_path, env, ["spectrum"])
    assert report["code"] == 0 and "scipy.optimize" in report["scipy"]


def test_scipy_probe_sees_a_dataclasses_import(tmp_path, cli_env):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text("import dataclasses\n")
    env = {**cli_env, "PYTHONPATH": os.pathsep.join([str(site), cli_env["PYTHONPATH"]])}
    assert scipy_probe(tmp_path, env, [])["dataclasses"] == ["dataclasses"]
