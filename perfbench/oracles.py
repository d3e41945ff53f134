"""Independent oracles for every benchmark request.

Nothing here imports quatstat. Each oracle recomputes the expected table
from the physics by its own route (vectorised closed forms, Boltzmann and
cosine sums, ``math.lgamma``, Van Loan's block-triangular exponential, and
matrices whose symmetry class is known by construction) and compares within
the tolerance stated beside the check. The expected exit code comes from
the oracle too: a slice grid that reaches ``Z1 <= 0`` must exit 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


@dataclass
class Outcome:
    """Result of checking one request: problems found and output counts."""

    problems: list[str] = field(default_factory=list)
    rows: int = 0
    bytes_out: int = 0
    disc_records: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# Physics used by the oracles (and by the generator to pick safe grids)
# ---------------------------------------------------------------------------


def slice_z1(aE: float, bE: float, mu: float, beta):
    """Slice ``Z1 = e^-aB + e^-bB + mu B (e^-bB - e^-aB)/(a - b)`` and its
    first two beta derivatives, vectorised over ``beta``. The generator never
    draws coincident energies, so the degenerate limit is not needed."""
    beta = np.asarray(beta, dtype=float)
    ea, eb = np.exp(-aE * beta), np.exp(-bE * beta)
    g = mu / (aE - bE)
    z = ea + eb + g * beta * (eb - ea)
    dz = -aE * ea - bE * eb + g * (eb - ea) + g * beta * (aE * ea - bE * eb)
    d2z = (aE * aE * ea + bE * bE * eb + 2.0 * g * (aE * ea - bE * eb)
           + g * beta * (bE * bE * eb - aE * aE * ea))
    return z, dz, d2z


def first_nonpositive_beta(aE: float, bE: float, mu: float, beta_max: float = 60.0):
    """Smallest beta in ``(0, beta_max]`` with slice ``Z1 <= 0``, or ``None``."""
    grid = np.linspace(beta_max / 6000.0, beta_max, 6000)
    bad = np.nonzero(slice_z1(aE, bE, mu, grid)[0] <= 0.0)[0]
    if not bad.size:
        return None
    lo, hi = (grid[bad[0] - 1] if bad[0] else 0.0), grid[bad[0]]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slice_z1(aE, bE, mu, mid)[0] <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


def toy_levels(p: float, c, alpha: float, gamma: float) -> list[float]:
    """Levels ``p -+ sqrt(alpha/gamma)|c|`` of ``[[i p, c], [d, -i p]]``."""
    s = math.sqrt(alpha / gamma) * math.sqrt(sum(v * v for v in c))
    return [p - s, p + s]


def _embed(entries) -> np.ndarray:
    """Complex ``2n x 2n`` form ``[[Z1, Z2], [-conj Z2, conj Z1]]`` of a
    quaternion matrix given as nested 4-arrays."""
    q = np.asarray(entries, dtype=float)
    z1 = q[..., 0] + 1j * q[..., 1]
    z2 = q[..., 2] + 1j * q[..., 3]
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def van_loan_z1_dyson(quat: dict, betas) -> np.ndarray:
    """``Re Tr U0(B) U_I(B)`` to second order, exactly, by Van Loan's method.

    With ``A = -H0`` and ``B = -Hp`` in the complex embedding, the upper
    blocks of ``exp(B [[A, B, 0], [0, A, B], [0, 0, A]])`` are ``exp(A B)``
    and the first- and second-order Dyson integrals (C. F. Van Loan, IEEE
    TAC 23(3), 1978). The quaternion trace's real part is half the trace
    of the embedding.
    """
    a, b, c = quat["a"], quat["b"], quat["c"]
    ratio = quat["alpha"] / quat["gamma"]
    d = [-ratio * c[0], ratio * c[1], ratio * c[2], ratio * c[3]]
    zero = [0.0] * 4
    h0 = _embed([[a, zero], [zero, b]])
    hp = _embed([[zero, c], [d, zero]])
    n = h0.shape[0]
    z = np.zeros((n, n))
    m = np.block([[-h0, -hp, z], [z, -h0, -hp], [z, z, -h0]])
    out = np.empty(len(betas))
    for i, beta in enumerate(betas):
        e = scipy.linalg.expm(m * beta)
        out[i] = 0.5 * np.trace(e[:n, :n] + e[:n, n:2 * n] + e[:n, 2 * n:]).real
    return out


def expected_exit(expect: dict) -> int:
    """Exit code the README contract predicts for this request."""
    kind = expect["kind"]
    if kind == "exitcode":
        return expect["exit"]
    if kind == "thermo" and "slice" in expect:
        sl = expect["slice"]
        mu = sl["kappa"] if expect["rederived"] else -sl["kappa"]
        z = slice_z1(sl["aE"], sl["bE"], mu, _grid(expect["grid"], expect["steps"]))[0]
        return 3 if np.any(z <= 0.0) else 0
    return 0


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def _grid(grid, steps: int) -> np.ndarray:
    lo, hi, log = grid
    if steps == 1:
        return np.array([lo])
    if log:
        return lo * (hi / lo) ** (np.arange(steps) / (steps - 1))
    return lo + (hi - lo) * (np.arange(steps) / (steps - 1))


def _parse_table(data: bytes, fmt: str):
    """Header and string cells of a CSV or JSON table."""
    text = data.decode()
    if fmt == "json":
        rows = json.loads(text)
        if not rows:
            return [], []
        header = list(rows[0])
        return header, [[str(r[h]) if isinstance(r[h], str) else r[h] for h in header]
                         for r in rows]
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(cells, col: int) -> np.ndarray:
    return np.array([float(row[col]) for row in cells])


def _close(name: str, got, want, rel: float, problems: list, scale=None):
    """Record rows where ``|got - want| > rel * max(1, |scale|)``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    ref = np.maximum(1.0, np.abs(want if scale is None else scale))
    bad = np.nonzero(~(np.abs(got - want) <= rel * ref))[0]
    if bad.size:
        i = bad[0]
        problems.append(f"{name}: {bad.size} rows off, first row {i}: "
                        f"got {got[i]!r}, want {want[i]!r} (rel tol {rel:g})")


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------


def _check_betas(betas, expect, problems):
    want = _grid(expect["grid"], expect["steps"])
    if len(betas) != len(want):
        problems.append(f"{len(betas)} rows, want {len(want)}")
        return False
    # the program builds the grid with numpy; a few ulps of difference is fine
    _close("beta", betas, want, 1e-13, problems)
    return True


def _check_thermo(expect, cells, problems):
    b = _floats(cells, 0)
    if not _check_betas(b, expect, problems):
        return
    z1, a_free, s, u, cv = (_floats(cells, i) for i in range(1, 6))
    n, k = expect["n"], expect["k"]
    # A = U - T S holds on every path: rel 1e-9
    _close("A = U - S/(k beta)", a_free, u - s / (k * b), 1e-9, problems)
    _close("A = -(N/beta) ln Z1", a_free, -(n / b) * np.log(z1), 1e-9, problems)
    if "slice" in expect:
        sl = expect["slice"]
        mu = sl["kappa"] if expect["rederived"] else -sl["kappa"]
        z, dz, d2z = slice_z1(sl["aE"], sl["bE"], mu, b)
        # same closed form, different evaluation order: rel 1e-12 on Z1,
        # 1e-9 on U, and 1e-6 on Cv, whose numerator cancels
        _close("Z1 (slice)", z1, z, 1e-12, problems)
        _close("U (slice)", u, -n * dz / z, 1e-9, problems)
        _close("Cv (slice)", cv, k * b * b * (d2z * z - dz * dz) / (z * z), 1e-6, problems)
    else:
        e = np.array([lv[0] for lv in expect["levels"]])
        g = np.array([lv[1] for lv in expect["levels"]], dtype=float)
        w = g[None, :] * np.exp(-np.outer(b, e))
        zsum = w.sum(axis=1)
        mean = (w * e).sum(axis=1) / zsum
        var = (w * e * e).sum(axis=1) / zsum - mean ** 2
        # Boltzmann sums over the known levels: rel 1e-12 on Z1, 1e-9 on U, Cv
        _close("Z1 (sum exp(-beta E))", z1, zsum, 1e-12, problems)
        _close("U (Boltzmann mean)", u, n * mean, 1e-9, problems)
        _close("Cv (Boltzmann variance)", cv, k * b * b * var, 1e-9, problems)


def _check_thermo_disc(expect, disc: bytes, outcome: Outcome):
    if not disc:
        return
    records = json.loads(disc)
    outcome.disc_records = len(records)
    lo, hi = min(expect["grid"][:2]), max(expect["grid"][:2])
    for rec in records:
        if rec["quantity"] not in ("U", "S", "Cv") or not (
                lo * (1 - 1e-12) <= rec["beta"] <= hi * (1 + 1e-12)):
            outcome.problems.append(f"malformed discrepancy record {rec}")
            return


def _check_compare(expect, cells, disc: bytes, outcome: Outcome):
    problems = outcome.problems
    b = _floats(cells, 0)
    if not _check_betas(b, expect, problems):
        return
    z_sp, z_formal, z_p, z_r, z_d = (_floats(cells, i) for i in range(1, 6))
    e = np.array([lv[0] for lv in expect["levels"]])
    # spectral sum and cosine sum agree with the program to ~1e-15 at the seed
    _close("Z_spectral (sum exp(-beta E))", z_sp, np.exp(-np.outer(b, e)).sum(axis=1),
           1e-12, problems)
    _close("Z_formal (sum cos(beta E))", z_formal, np.cos(np.outer(b, e)).sum(axis=1),
           1e-12, problems, scale=np.full(len(b), float(len(e))))
    sl = expect["slice"]
    zp_want = slice_z1(sl["aE"], sl["bE"], -sl["kappa"], b)[0]
    zr_want = slice_z1(sl["aE"], sl["bE"], sl["kappa"], b)[0]
    _close("Z1_printed (slice)", z_p, zp_want, 1e-12, problems)
    _close("Z1_rederived (slice)", z_r, zr_want, 1e-12, problems)
    # the program's quadrature passes a 1e-9 step-doubling check; its error
    # against the exact second-order value is far below 1e-8
    _close("Z1_dyson (Van Loan)", z_d, van_loan_z1_dyson(expect["quat"], b), 1e-8, problems)
    records = json.loads(disc) if disc else None
    if records is None:
        problems.append("compare wrote no discrepancy log")
        return
    outcome.disc_records = len(records)
    gap = np.abs(zp_want - zr_want) > 1e-8 * np.maximum(1.0, np.abs(zr_want))
    want = {float(x) for x in b[gap]}
    got = {r["beta"] for r in records if r["quantity"] == "Z1"}
    if got != want:
        problems.append(f"Z1 discrepancy records at {len(got)} betas, want {len(want)}")


def _check_negtemp(expect, cells, problems):
    n, k = expect["n"], expect["k"]
    ep, em = expect["e_plus"], expect["e_minus"]
    energy = _floats(cells, 0)
    want_e = n * em + (n * ep - n * em) * np.arange(expect["points"]) / (expect["points"] - 1)
    if len(energy) != len(want_e):
        problems.append(f"{len(energy)} rows, want {len(want_e)}")
        return
    scale = max(1.0, abs(n * em), abs(n * ep))
    _close("E grid", energy, want_e, 1e-12, problems, scale=np.full(len(energy), scale))
    s_st, s_ex = _floats(cells, 1), _floats(cells, 2)
    slack = 1e-12 * scale
    mid = 0.5 * n * (ep + em)
    want_ex, want_st, t_bad = [], [], 0
    for e, row in zip(energy, cells):
        n_plus = min(max((e - n * em) / (ep - em), 0.0), float(n))
        n_minus = n - n_plus
        want_ex.append(k * (math.lgamma(n + 1.0) - math.lgamma(n_plus + 1.0)
                            - math.lgamma(n_minus + 1.0)))
        want_st.append(-k * sum(m * math.log(m / n) for m in (n_plus, n_minus) if m > 0.0))
        cell = row[3]
        if abs(e - mid) <= slack:
            t_bad += cell != "infinite"
        elif e <= n * em + slack or e >= n * ep - slack:
            t_bad += cell == "infinite" or float(cell) != 0.0
        else:
            inv = k / (em - ep) * math.log(-(e - n * em) / (e - n * ep))
            t_bad += cell == "infinite" or not math.isclose(float(cell), 1.0 / inv,
                                                            rel_tol=1e-8)
    # lgamma of N up to 1e4 is ~1e5; absolute agreement 1e-9 of that scale
    ref = np.full(len(energy), max(1.0, k * math.lgamma(n + 1.0)))
    _close("S_exact (math.lgamma)", s_ex, want_ex, 1e-9, problems, scale=ref)
    _close("S_stirling", s_st, want_st, 1e-9, problems, scale=ref)
    if t_bad:
        problems.append(f"T: {t_bad} rows off (rel tol 1e-8)")


def _check_spectrum(expect, cells, problems):
    want = sorted(expect["levels"])
    got = [(float(r[0]), float(r[1])) for r in cells]
    if len(got) != len(want):
        problems.append(f"{len(got)} levels, want {len(want)}")
        return
    _close("energy", [g[0] for g in got], [w[0] for w in want], 1e-9, problems)
    if [g[1] for g in got] != [w[1] for w in want]:
        problems.append(f"multiplicities {[g[1] for g in got]}, want {[w[1] for w in want]}")


_VALIDATE_KEYS = ("pseudo-anti-hermitian", "quasi-anti-hermitian", "pseudo-hermitian")


def _check_validate(expect, stdout: str, problems):
    lines = stdout.splitlines()
    want = [*expect["verdicts"], True]
    if len(lines) != 4:
        problems.append(f"validate printed {len(lines)} lines, want 4")
        return
    for line, key, verdict in zip(lines, (*_VALIDATE_KEYS, "metric-positive"), want):
        label, _, rest = line.partition(": ")
        got = rest.split(" ", 1)[0]
        if label != key or got != ("yes" if verdict else "no"):
            problems.append(f"validate line {line!r}, want {key}: "
                            f"{'yes' if verdict else 'no'}")


_HEADERS = {
    "thermo": ["beta", "Z1", "A", "S", "U", "Cv"],
    "compare": ["beta", "Z_spectral", "Z_formal", "Z1_printed", "Z1_rederived", "Z1_dyson"],
    "negtemp": ["E", "S_stirling", "S_exact", "T"],
    "spectrum": ["energy", "multiplicity"],
}


def check(expect: dict, code: int, stdout: str, table: bytes | None,
          disc: bytes | None) -> Outcome:
    """Check one request's exit code and outputs against its oracle."""
    outcome = Outcome(bytes_out=len(stdout.encode()) + len(table or b""))
    problems = outcome.problems
    want_code = expected_exit(expect)
    if code != want_code:
        problems.append(f"exit code {code}, want {want_code}")
        return outcome
    kind = expect["kind"]
    if kind == "validate":
        _check_validate(expect, stdout, problems)
        outcome.rows = 4 if outcome.ok else 0
        return outcome
    if code != 0:
        if table:
            problems.append(f"exit {code} but a table was written")
        return outcome
    if kind == "exitcode":
        return outcome
    if not table:
        problems.append("no table written")
        return outcome
    try:
        header, cells = _parse_table(table, expect["fmt"])
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"unparseable {expect['fmt']} table: {exc}")
        return outcome
    if header != _HEADERS[kind]:
        problems.append(f"header {header}, want {_HEADERS[kind]}")
        return outcome
    try:
        if kind == "thermo":
            _check_thermo(expect, cells, problems)
            _check_thermo_disc(expect, disc, outcome)
        elif kind == "compare":
            _check_compare(expect, cells, disc, outcome)
        elif kind == "negtemp":
            _check_negtemp(expect, cells, problems)
        else:
            _check_spectrum(expect, cells, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"malformed {kind} output: {exc!r}")
    if outcome.ok:
        outcome.rows = len(cells)
    return outcome
