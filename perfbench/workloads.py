"""Seeded request lists for the quatstat benchmark.

A workload is a fixed cycle of request slots. The slot structure (which
subcommand, model, output format, branch and grid kind) is the same for
every seed, so runs on different seeds do comparable work; the seed draws
the physical parameters and the grid endpoints. Each request carries in
``expect`` what its oracle needs. The program sees only the argv and the
params files written here; every path in an argv is absolute and points
into the work directory, so nothing lands in the caller's cwd.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracles import first_nonpositive_beta, toy_levels


@dataclass
class Request:
    """One CLI invocation and what its oracle needs to check it."""

    rid: str
    argv: list[str]
    expect: dict
    env: dict[str, str] = field(default_factory=dict)
    out: str | None = None
    disc: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: share of the measured seconds spent on fresh-subprocess requests; the
    #: rest goes to the same requests in one warm process
    sub_share: float
    #: template cycles in one seeded list
    cycles: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thermo-sweep",
            "thermo over 2000-point beta grids: the per-point slice closed forms, "
            "the printed-form discrepancy checks and row/JSON emission do nearly "
            "all the compute, with one model build per request and no Dyson work. "
            "Batching the beta core and the single discrepancy rule show here.",
            sub_share=0.6,
            cycles=4,
        ),
        Workload(
            "compare-dyson",
            "compare over 200-point beta grids: dyson_second_order (integrated "
            "twice for step doubling) and mat_exp take about three quarters of "
            "the compute and startup is a minority of wall time, so batching the "
            "quadrature moves rows_per_s here and a startup cut barely does.",
            sub_share=0.65,
            cycles=3,
        ),
        Workload(
            "cli-mix",
            "many short spectrum, validate, negtemp and 6-point thermo requests "
            "plus exit-code contract cases: import and startup are ~90% of each "
            "request's wall time, so the scipy-import cut shows here and the beta "
            "core does not; model builders, classification and negtemp each run "
            "on their own path.",
            sub_share=0.7,
            cycles=4,
        ),
    )
}

#: Known contract defects at the time the benchmark was written. They run in
#: every cli-mix run as a separate probe, listed request by request, so that a
#: fix shows; they stay out of the timed mix, whose every request must pass.
CONTRACT_EDGE = (
    ("beta-overflow", ["thermo", "--beta", "800:900:2"], {}, 0),
    ("zero-particles", ["thermo", "--n-particles", "0"], {}, 2),
    ("nan-endpoint", ["thermo", "--beta", "1:nan:3"], {}, 2),
    ("bad-tol-env", ["validate"], {"QUATSTAT_TOL": "abc"}, 2),
    ("too-few-steps", ["compare", "--steps", "8"], {}, 2),
    ("rederived-unphysical", ["thermo", "--rederived"], {}, 3),
)


def _num(x: float) -> str:
    return repr(float(x))


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


class _Builder:
    """Accumulates requests with unique ids and absolute output paths."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.requests: list[Request] = []

    def add(self, slot: str, argv: list[str], expect: dict, table: bool = True,
            disc: bool = False) -> Request:
        rid = f"r{len(self.requests):03d}-{slot}"
        req = Request(rid=rid, argv=list(argv), expect=expect)
        if table:
            req.out = str(self.workdir / f"{rid}.out")
            req.argv += ["--out", req.out]
        if disc:
            req.disc = str(self.workdir / f"{rid}.disc.json")
            req.argv += ["--discrepancies", req.disc]
        self.requests.append(req)
        return req

    def params(self, name: str, payload) -> str:
        return _write_json(self.workdir / f"p{len(self.requests):03d}-{name}.json", payload)

    # -- parameter draws ----------------------------------------------------

    def spin(self, strong: bool) -> dict:
        """Spin model; ``strong`` puts v above omega/2, where the lower level
        crosses zero and keeps its sign by continuity."""
        omega = self.rng.uniform(1.0, 3.0)
        v = omega * (self.rng.uniform(0.55, 1.2) if strong else self.rng.uniform(0.1, 0.45))
        return {"omega": omega, "v": v, "x": self.rng.uniform(0.5, 2.0)}

    def toy(self) -> dict:
        """Quaternionic toy model ``[[i p, c], [d, -i p]]`` with c on the j-k
        plane; its levels are ``p +- sqrt(alpha/gamma) |c|``."""
        theta = self.rng.uniform(0.0, 2.0 * math.pi)
        size = self.rng.uniform(0.2, 1.0)
        return {
            "p": self.rng.uniform(0.5, 1.5),
            "c": [0.0, 0.0, size * math.cos(theta), size * math.sin(theta)],
            "alpha": self.rng.uniform(0.5, 2.0),
            "gamma": self.rng.uniform(0.5, 2.0),
        }

    def grid(self, lo: tuple, hi: tuple, log: bool, cap: float | None = None):
        lo_v, hi_v = self.rng.uniform(*lo), self.rng.uniform(*hi)
        if cap is not None and hi_v > cap:
            hi_v = cap
            lo_v = min(lo_v, cap / 4.0)
        return lo_v, hi_v, log


def spin_slice(s: dict) -> dict:
    return {"aE": s["omega"] / 2.0, "bE": -s["omega"] / 2.0, "kappa": -s["v"] ** 2}


def toy_slice(t: dict) -> dict:
    c2 = t["c"][2] ** 2 + t["c"][3] ** 2
    return {"aE": t["p"], "bE": -t["p"], "kappa": -(t["alpha"] / t["gamma"]) * c2}


def toy_file(t: dict) -> dict:
    return {"a": [0.0, t["p"], 0.0, 0.0], "b": [0.0, -t["p"], 0.0, 0.0],
            "c": t["c"], "alpha": t["alpha"], "gamma": t["gamma"]}


def _spin_args(s: dict) -> list[str]:
    return ["--omega", _num(s["omega"]), "--v", _num(s["v"]), "--x", _num(s["x"])]


def _beta_args(g: tuple, steps: int) -> list[str]:
    lo, hi, log = g
    return ["--beta", f"{_num(lo)}:{_num(hi)}:{steps}"] + (["--log"] if log else [])


def _slice_cap(sl: dict, rederived: bool) -> float | None:
    """Largest safe grid end: 0.9 of the first beta where the slice Z1 <= 0."""
    mu = sl["kappa"] if rederived else -sl["kappa"]
    root = first_nonpositive_beta(sl["aE"], sl["bE"], mu)
    return None if root is None else 0.9 * root


def _thermo(b: _Builder, slot: str, model: str, rederived: bool, log: bool,
            fmt: str, steps: int, lo: tuple, hi: tuple, params: dict | None = None,
            beta: tuple | None = None) -> Request:
    n = b.rng.randint(1, 10)
    k = b.rng.uniform(0.5, 2.0)
    args = ["thermo", "--model", model]
    expect = {"kind": "thermo", "n": n, "k": k, "rederived": rederived,
              "steps": steps, "fmt": fmt}
    if model == "qubit":
        args += ["--phi", _num(b.rng.uniform(0.0, 2.0 * math.pi))]
        expect["levels"] = [[0.0, 1], [2.0, 1]]
    else:
        if model == "spin":
            args += _spin_args(params)
            sl = spin_slice(params)
        elif "aE" in params:
            args += ["--params", b.params("slice", params)]
            sl = params
        else:
            args += ["--params", b.params("toy", toy_file(params))]
            sl = toy_slice(params)
        expect["slice"] = sl
    if beta is None:
        cap = _slice_cap(expect["slice"], rederived) if "slice" in expect else None
        beta = b.grid(lo, hi, log, cap)
    expect["grid"] = list(beta)
    args += _beta_args(beta, steps)
    args += ["--n-particles", str(n), "--k", _num(k), "--output", fmt]
    if rederived:
        args.append("--rederived")
    return b.add(slot, args, expect, disc=True)


# ---------------------------------------------------------------------------
# Workload templates
# ---------------------------------------------------------------------------

# (model, rederived, log grid, output) per slot; outputs and branches alternate
_THERMO_SLOTS = (
    ("spin-weak", False, False, "csv"),
    ("spin-strong", True, True, "json"),
    ("spin-weak", True, False, "json"),
    ("qubit", False, True, "csv"),
    ("spin-strong", False, False, "csv"),
    ("spin-weak", True, True, "json"),
    ("qubit", False, False, "json"),
    ("spin-strong", True, False, "csv"),
)


def _thermo_sweep(b: _Builder):
    for i, (model, rederived, log, fmt) in enumerate(_THERMO_SLOTS):
        params = None if model == "qubit" else b.spin(model == "spin-strong")
        lo = (0.01, 0.05) if log else (0.05, 0.2)
        _thermo(b, f"thermo{i}", model.split("-")[0], rederived, log, fmt, 2000,
                lo, (3.0, 8.0), params)


_COMPARE_SLOTS = (("spin", False, "csv"), ("toy", False, "json"),
                  ("spin", True, "json"), ("toy", True, "csv"))


def _compare_dyson(b: _Builder):
    for i, (model, log, fmt) in enumerate(_COMPARE_SLOTS):
        n = b.rng.randint(1, 10)
        args = ["compare", "--model", model]
        if model == "spin":
            s = b.spin(strong=b.rng.random() < 0.5)
            args += _spin_args(s)
            sl = spin_slice(s)
            levels = [[s["omega"] / 2.0 - s["v"], 1], [s["omega"] / 2.0 + s["v"], 1]]
            quat = {"a": [0, s["omega"] / 2.0, 0, 0], "b": [0, -s["omega"] / 2.0, 0, 0],
                    "c": [0, 0, s["v"] / s["x"], 0], "alpha": s["x"] ** 2, "gamma": 1.0}
        else:
            t = b.toy()
            quat = toy_file(t)
            args += ["--params", b.params("toy", quat)]
            sl = toy_slice(t)
            levels = [[e, 1] for e in toy_levels(t["p"], t["c"], t["alpha"], t["gamma"])]
        g = b.grid((0.02, 0.1) if log else (0.05, 0.2), (1.5, 2.5), log)
        args += _beta_args(g, 200) + ["--n-particles", str(n), "--output", fmt]
        expect = {"kind": "compare", "slice": sl, "levels": levels, "quat": quat,
                  "grid": list(g), "steps": 200, "fmt": fmt}
        b.add(f"compare{i}", args, expect, disc=True)


def _validate_case(b: _Builder, cls: str) -> dict:
    """Matrix plus metric whose symmetry class is known by construction.

    With ``eta = theta^2`` from ``(x, y, z)``: ``H = eta^-1 K`` is
    pseudo-anti-Hermitian for anti-Hermitian ``K`` and pseudo-Hermitian for
    Hermitian ``K``; a generic matrix is neither.
    """
    r = b.rng
    x, y = r.uniform(0.6, 1.6), r.uniform(0.6, 1.6)
    z = complex(r.uniform(-0.3, 0.3), r.uniform(-0.3, 0.3))
    quat = [r.uniform(-1, 1) for _ in range(4)]
    if cls == "generic":
        entries = [[[r.uniform(-1, 1) for _ in range(4)] for _ in range(2)] for _ in range(2)]
    else:
        if cls == "anti":
            d1 = [0.0] + [r.uniform(-1, 1) for _ in range(3)]
            d2 = [0.0] + [r.uniform(-1, 1) for _ in range(3)]
            sign = -1.0
        else:
            d1 = [r.uniform(-1, 1), 0.0, 0.0, 0.0]
            d2 = [r.uniform(-1, 1), 0.0, 0.0, 0.0]
            sign = 1.0
        conj = [quat[0], -quat[1], -quat[2], -quat[3]]
        k = [[d1, quat], [[sign * v for v in conj], d2]]
        theta = ((x, z), (z.conjugate(), y))
        eta = [[sum(theta[i][m] * theta[m][j] for m in range(2)) for j in range(2)]
               for i in range(2)]
        det = eta[0][0] * eta[1][1] - eta[0][1] * eta[1][0]
        inv = [[eta[1][1] / det, -eta[0][1] / det], [-eta[1][0] / det, eta[0][0] / det]]
        entries = [[_left_complex_sum(inv[i], [k[0][j], k[1][j]]) for j in range(2)]
                   for i in range(2)]
    return {"matrix": {"n": 2, "entries": entries},
            "metric": {"x": x, "y": y, "z": [z.real, z.imag]}}


def _left_complex_sum(ws, qs) -> list[float]:
    """``sum_m w_m q_m`` for complex ``w`` acting on the left of quaternions
    written as ``z1 + z2 j``."""
    z1 = sum(w * complex(q[0], q[1]) for w, q in zip(ws, qs))
    z2 = sum(w * complex(q[2], q[3]) for w, q in zip(ws, qs))
    return [z1.real, z1.imag, z2.real, z2.imag]


_VERDICTS = {"anti": (True, True, False), "herm": (False, False, True),
             "generic": (False, False, False)}

# config errors from the README contract that exit 2 today; the seed picks one
_USAGE_CASES = (
    ["thermo", "--beta", "1:2"],
    ["thermo", "--model", "toy"],
    ["thermo", "--log", "--beta", "-1:2:5"],
    ["negtemp", "--model", "custom"],
    ["spectrum", "--model", "file"],
)


def _cli_mix(b: _Builder):
    r = b.rng
    # spectrum: every model builder once
    for i, model in enumerate(("spin", "qubit", "toy", "file")):
        args = ["spectrum", "--model", model, "--output", "csv" if i % 2 else "json"]
        if model == "spin":
            s = b.spin(strong=r.random() < 0.5)
            args += _spin_args(s)
            levels = [[s["omega"] / 2.0 - s["v"], 1], [s["omega"] / 2.0 + s["v"], 1]]
        elif model == "qubit":
            args += ["--phi", _num(r.uniform(0.0, 2.0 * math.pi))]
            levels = [[0.0, 1], [2.0, 1]]
        else:
            t = b.toy()
            levels = [[e, 1] for e in toy_levels(t["p"], t["c"], t["alpha"], t["gamma"])]
            if model == "toy":
                args += ["--params", b.params("toy", toy_file(t))]
            else:
                c = t["c"]
                d = [-(t["alpha"] / t["gamma"]) * v for v in (c[0], -c[1], -c[2], -c[3])]
                matrix = {"n": 2, "entries": [[[0.0, t["p"], 0.0, 0.0], c],
                                              [d, [0.0, -t["p"], 0.0, 0.0]]]}
                metric = {"x": math.sqrt(t["alpha"]), "y": math.sqrt(t["gamma"]), "z": [0, 0]}
                args += ["--params", b.params("file", {"matrix": matrix, "metric": metric})]
        b.add(f"spectrum-{model}", args, {"kind": "spectrum", "levels": levels,
                                          "fmt": "csv" if i % 2 else "json"})
    # validate: one matrix of each class
    for cls in ("anti", "herm", "generic"):
        path = b.params(f"validate-{cls}", _validate_case(b, cls))
        b.add(f"validate-{cls}", ["validate", "--params", path],
              {"kind": "validate", "verdicts": list(_VERDICTS[cls])}, table=False)
    # negtemp: 2001 points, N log-uniform over 10..1e4
    for i, model in enumerate(("spin", "qubit", "custom")):
        n = int(round(10 ** r.uniform(1.0, 4.0)))
        k = r.uniform(0.5, 2.0)
        args = ["negtemp", "--model", model, "--n-particles", str(n), "--k", _num(k),
                "--points", "2001", "--output", "json" if i % 2 else "csv"]
        if model == "spin":
            s = b.spin(strong=r.random() < 0.5)
            args += _spin_args(s)
            levels = (s["omega"] / 2.0 + s["v"], s["omega"] / 2.0 - s["v"])
        elif model == "qubit":
            levels = (2.0, 0.0)
        else:
            lo = r.uniform(-2.0, 1.0)
            levels = (lo + r.uniform(0.2, 3.0), lo)
            args += ["--e-plus", _num(levels[0]), "--e-minus", _num(levels[1])]
        b.add(f"negtemp-{model}", args, {"kind": "negtemp", "e_plus": levels[0],
                                         "e_minus": levels[1], "n": n, "k": k,
                                         "points": 2001, "fmt": "json" if i % 2 else "csv"})
    # small thermo runs, about 6 beta each
    _thermo(b, "thermo-spin", "spin", False, False, "csv", 6, (0.1, 0.5), (1.0, 4.0),
            b.spin(strong=False))
    _thermo(b, "thermo-qubit", "qubit", False, True, "json", 6, (0.1, 0.5), (1.0, 4.0))
    slice_params = {"aE": r.uniform(0.5, 2.0), "bE": r.uniform(-2.0, 0.3),
                    "kappa": r.uniform(-1.0, -0.05)}
    _thermo(b, "thermo-slice", "toy", False, False, "csv", 6, (0.1, 0.5), (1.0, 4.0),
            slice_params)
    _thermo(b, "thermo-toy", "toy", True, True, "json", 6, (0.1, 0.5), (1.0, 4.0), b.toy())
    # README exit-code contract: a valid grid that crosses Z1 <= 0 exits 3 ...
    s = b.spin(strong=True)
    sl = spin_slice(s)
    root = first_nonpositive_beta(sl["aE"], sl["bE"], sl["kappa"])
    _thermo(b, "contract-exit3", "spin", True, False, "csv", 6, (), (), s,
            beta=(0.5 * root, 3.0 * root, False))
    # ... and a configuration error exits 2
    argv = r.choice(_USAGE_CASES)
    b.add("contract-exit2", argv, {"kind": "exitcode", "exit": 2}, disc=argv[0] == "thermo")


_BUILDERS = {"thermo-sweep": _thermo_sweep, "compare-dyson": _compare_dyson,
             "cli-mix": _cli_mix}


def generate(workload: str, seed: int, workdir: Path) -> list[Request]:
    """Write params files into ``workdir`` and return the seeded request list.

    The list holds ``cycles`` passes of the workload's slot template, each
    with freshly drawn parameters; the first pass is the traced run's input.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    builder = _Builder(Path(workdir).resolve(), rng)
    for _ in range(spec.cycles):
        _BUILDERS[workload](builder)
    return builder.requests


def contract_edge_requests(workdir: Path) -> list[Request]:
    """The contract-edge probe, with expected exit codes from the README."""
    workdir = Path(workdir).resolve()
    valid = _write_json(workdir / "edge-validate.json", {
        "matrix": {"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 0.5, 0]],
                                       [[0, 0, -0.5, 0], [0, -1, 0, 0]]]},
        "metric": {"x": 1, "y": 1, "z": [0, 0]}})
    out = []
    for name, argv, env, code in CONTRACT_EDGE:
        argv = list(argv)
        rid = f"edge-{name}"
        req = Request(rid=rid, argv=argv, expect={"kind": "exitcode", "exit": code}, env=env)
        if argv[0] == "validate":
            argv += ["--params", valid]
        else:
            req.out = str(workdir / f"{rid}.out")
            req.disc = str(workdir / f"{rid}.disc.json")
            argv += ["--out", req.out, "--discrepancies", req.disc]
        if name == "rederived-unphysical":
            argv += ["--beta", "1:40:6"]
        out.append(req)
    return out
