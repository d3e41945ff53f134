#!/usr/bin/env python3
"""quatstat benchmark: seeded CLI workloads with startup split from compute.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a quatstat checkout; the program is imported from its
``src`` directory. One client sends one request at a time (a closed loop),
with BLAS threads pinned to 1. An untraced run (``--trace 0``) interleaves

1. ``python -c "import quatstat.cli"`` in fresh interpreters (set-up),
2. the workload's seeded requests as fresh ``python -m quatstat.cli``
   subprocesses (what a CLI user pays), and
3. the same requests in one warm process through
   ``quatstat.cli.cli.main(args, standalone_mode=False)`` (what a library or
   batch user pays),

and checks every output against an independent oracle. Each timed sample
is scaled by host-speed references timed around it (``hostref.py``), since
the shared host's speed drifts. A traced run
(``--trace 1``) profiles imports and times one pass of the requests with
spans around each quatstat module's public functions. The last line of
standard output is the JSON result; the lines before it are a readable
report, and a record of the run is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: share of an untraced run's seconds spent timing fresh imports (set-up)
SETUP_SHARE = 0.12
MIN_SETUP = 5
#: fresh interpreters profiled with -X importtime in a traced run
IMPORT_RUNS = 5
#: a tail needs at least 10 samples beyond it
MIN_SAMPLES = 11
SUBPROCESS_TIMEOUT_S = 120
OUT_DIR = ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("cli_wall_p50_s", "s"),
    ("cli_wall_tail_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: the 11th
    largest sample, and its percentile rank."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Running one request
# ---------------------------------------------------------------------------


def _clear(req):
    for path in (req.out, req.disc):
        if path:
            Path(path).unlink(missing_ok=True)


def _read(path) -> bytes | None:
    if path and Path(path).exists():
        return Path(path).read_bytes()
    return None


def time_exec(argv: list[str], env: dict, cwd: Path, stdout=subprocess.DEVNULL,
              stderr=None) -> tuple[int, float, int]:
    """Run ``argv`` to its end; returns (exit code, wall s, peak RSS KiB).

    Waits with ``wait4``: a wait with a timeout polls with sleeps of up to
    50 ms and would round the wall time up to its next poll. A timer kills a
    child that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd, env=env)
    killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_subprocess(req, env: dict, cwd: Path):
    """Run ``python -m quatstat.cli`` once; returns (code, wall s, peak RSS
    KiB, stdout)."""
    _clear(req)
    out_path, err_path = cwd / "sub.stdout", cwd / "sub.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, rss_kib = time_exec([sys.executable, "-m", "quatstat.cli", *req.argv],
                                        {**env, **req.env}, cwd, out, err)
    return code, wall, rss_kib, out_path.read_text()


def load_cli(src: Path):
    """Import the checkout's ``quatstat.cli`` click group into this process."""
    sys.path.insert(0, str(src))
    import quatstat.cli

    if src.resolve() not in Path(quatstat.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported quatstat from {quatstat.cli.__file__}, not {src}")
    return quatstat.cli.cli


def call_inprocess(group, argv: list[str], env: dict[str, str] | None = None):
    """Run one request through ``group.main``; returns (code, seconds,
    stdout). Exit codes match the CLI's: an uncaught error is exit 1."""
    import click

    env = env or {}
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                group.main(args=argv, prog_name="quatstat", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except click.ClickException as exc:
                code = exc.exit_code
            except click.exceptions.Abort:
                code = 1
            except Exception:  # the CLI would print this traceback and exit 1
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, seconds, out.getvalue()


class Checker:
    """Checks every attempt against its oracle and keeps the failures.

    Identical output bytes for one request were already checked, so their
    outcome is reused.
    """

    def __init__(self, check):
        self.check = check
        self._seen = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, req, code: int, stdout: str, via: str):
        table, disc = _read(req.out), _read(req.disc)
        digest = hashlib.sha1()
        for part in (str(code).encode(), stdout.encode(), table or b"-", disc or b"-"):
            digest.update(hashlib.sha1(part).digest())
        key = (req.rid, digest.digest())
        outcome = self._seen.get(key)
        if outcome is None:
            outcome = self._seen[key] = self.check(req.expect, code, stdout, table, disc)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{req.rid} ({via}): {'; '.join(outcome.problems)}")
        return outcome


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def environment_record() -> dict:
    from importlib.metadata import version

    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": dict(BLAS_PINS),
        "loadavg_before": os.getloadavg(),
    }


def time_import(env: dict, cwd: Path, code: str = "import quatstat.cli") -> float:
    """Wall time of one fresh ``python -c CODE``."""
    argv = [sys.executable, "-c", code]
    status, wall, _ = time_exec(argv, env, cwd)
    if status:
        raise subprocess.CalledProcessError(status, argv)
    return wall


def probe_contract_edge(group, workdir: Path, check, lines: list[str]) -> int:
    """Run the known contract-edge requests once; returns how many fail."""
    import workloads

    failures = 0
    for req in workloads.contract_edge_requests(workdir):
        _clear(req)
        code, _, stdout = call_inprocess(group, req.argv, req.env)
        outcome = check(req.expect, code, stdout, _read(req.out), _read(req.disc))
        failures += not outcome.ok
        lines.append(f"contract-edge {req.rid}: exit {code}, want {req.expect['exit']}: "
                     + ("pass" if outcome.ok else "FAIL"))
    lines.append(f"contract-edge failed {failures} of {len(workloads.CONTRACT_EDGE)}")
    return failures


def _one_per_path(reqs):
    """The first request of each (subcommand, model) pair."""
    seen = {}
    for req in reqs:
        model = req.argv[req.argv.index("--model") + 1] if "--model" in req.argv else None
        seen.setdefault((req.argv[0], model), req)
    return list(seen.values())


def untraced_run(spec, reqs, cycle, env, root, workdir, seconds, checker, lines):
    """Interleave set-up imports, subprocess requests and in-process requests
    over the whole run, each kept at its share of the time, so that slow
    spells of a shared machine fall on all of them alike. Each sample is
    scaled by the host-speed references timed around it (see ``hostref``)."""
    import hostref

    group = load_cli(root / "src")
    time_import(env, root)  # untimed: fills the bytecode cache
    for req in _one_per_path(reqs[:cycle]):  # first-call costs are set-up, not requests
        _clear(req)
        code, _, stdout = call_inprocess(group, req.argv, req.env)
        checker.record(req, code, stdout, "warm-up")

    setup, sub_wall, sub_rss, times, rows = [], [], [], [], []
    raw = {"setup": [], "sub": [], "inproc": []}  # (unscaled s, host factor) per sample
    last = [None, 0.0]  # kind and time of the latest reference

    def around(phase, measure):
        """Run ``measure`` between two references of its kind; returns its
        result and the sample's host factor."""
        if phase == "inproc":
            kind, reference = phase, hostref.reference_task
        else:
            kind, reference = "subprocess", lambda: time_import(env, root, hostref.SUBPROCESS_CODE)
        before = last[1] if last[0] == kind else reference()
        result = measure()
        last[:] = [kind, reference()]
        return result, (before + last[1]) / (2.0 * hostref.NOMINAL_S[kind])

    def scaled(phase, seconds, factor):
        raw[phase].append((seconds, factor))
        return seconds / factor

    share = {"setup": SETUP_SHARE, "sub": (1.0 - SETUP_SHARE) * spec.sub_share,
             "inproc": (1.0 - SETUP_SHARE) * (1.0 - spec.sub_share)}
    minimum = {"setup": MIN_SETUP, "sub": MIN_SAMPLES, "inproc": MIN_SAMPLES}
    spent = dict.fromkeys(share, 0.0)
    done = dict.fromkeys(share, 0)
    deadline = time.monotonic() + seconds
    while True:
        if time.monotonic() < deadline:
            due = list(share)
        else:
            due = [p for p in share if done[p] < minimum[p]]
            if done["inproc"] % cycle and "inproc" not in due:
                # finish the slot cycle, so every slot weighs the same in the
                # in-process metrics whatever the seed
                due.append("inproc")
        if not due:
            break
        phase = min(due, key=lambda p: spent[p] / share[p])
        start = time.monotonic()
        if phase == "setup":
            took, factor = around(phase, lambda: time_import(env, root))
            setup.append(scaled(phase, took, factor))
        elif phase == "sub":
            req = reqs[done[phase] % len(reqs)]
            (code, wall, rss_kib, stdout), factor = around(
                phase, lambda: run_subprocess(req, env, workdir))
            checker.record(req, code, stdout, "subprocess")
            sub_wall.append(scaled(phase, wall, factor))
            sub_rss.append(rss_kib / 1024.0)
        else:
            req = reqs[done[phase] % len(reqs)]
            _clear(req)
            (code, took, stdout), factor = around(
                phase, lambda: call_inprocess(group, req.argv, req.env))
            times.append(scaled(phase, took, factor))
            rows.append(checker.record(req, code, stdout, "in-process").rows)
        done[phase] += 1
        spent[phase] += time.monotonic() - start

    if spec.name == "cli-mix":
        probe_contract_edge(group, workdir, checker.check, lines)

    metrics = timing_metrics(setup, sub_wall, times, rows, cycle)
    metrics["peak_rss_mb"] = (statistics.median(sub_rss), len(sub_rss), "median")
    unscaled = timing_metrics(*([s for s, _ in raw[p]] for p in ("setup", "sub", "inproc")),
                              rows, cycle)
    for phase, samples in raw.items():
        factors = [f for _, f in samples]
        lines.append(f"host factor, {phase}: median {statistics.median(factors):.4f}, range "
                     f"{min(factors):.4f}-{max(factors):.4f} over {len(factors)} samples")
    lines.append("unscaled: " + ", ".join(f"{k} {v[0]:.6g}" for k, v in unscaled.items()))
    return metrics, {**raw, "rss_mb": sub_rss}


def timing_metrics(setup, sub_wall, times, rows, cycle) -> dict:
    """The timing metrics of an untraced run: name -> (value, samples, note)."""
    cli_tail, cli_pct = tail(sub_wall)
    req_tail, req_pct = tail(times)
    # Slots differ several-fold in cost, so the median of single requests can
    # fall in the gap between two groups of slots and jump between them from
    # run to run. Each complete slot cycle holds every slot once; the typical
    # request and the throughput are medians over cycles.
    cycle_s = [sum(times[i:i + cycle]) for i in range(0, len(times), cycle)]
    cycle_rows = [sum(rows[i:i + cycle]) for i in range(0, len(rows), cycle)]
    return {
        "setup_s": (statistics.median(setup), len(setup), "median fresh import"),
        "cli_wall_p50_s": (statistics.median(sub_wall), len(sub_wall), "median"),
        "cli_wall_tail_s": (cli_tail, len(sub_wall), f"p{cli_pct:.0f}"),
        "request_p50_s": (statistics.median(cycle_s) / cycle, len(times),
                          f"median over {len(cycle_s)} cycles of the mean request"),
        "request_tail_s": (req_tail, len(times), f"p{req_pct:.0f}"),
        "rows_per_s": (statistics.median(r / t for r, t in zip(cycle_rows, cycle_s)),
                       len(times), f"median over {len(cycle_s)} cycles, {sum(rows)} rows"),
    }


def traced_run(spec, reqs, cycle, env, root, workdir, checker, lines, spans_path):
    imports = tracing.import_profile(env, str(root), IMPORT_RUNS)
    group = load_cli(root / "src")
    first = reqs[:cycle]

    tracer = tracing.Tracer()

    def call(req, via):
        _clear(req)
        if via != "traced":
            code, took, stdout = call_inprocess(group, req.argv, req.env)
        else:
            tracer.install()
            try:
                code, took, stdout = tracer.run_request(
                    req.rid, lambda: call_inprocess(group, req.argv, req.env))
            finally:
                tracer.uninstall()
        return code, took, checker.record(req, code, stdout, via)

    for req in first:
        call(req, "warm-up")
    # each request untraced, then traced, so that drift of the machine's
    # speed falls on both sides of trace.overhead_ratio alike
    untraced = traced = 0.0
    outcomes = []
    for req in first:
        untraced += call(req, "untraced")[1]
        code, took, outcome = call(req, "traced")
        traced += took
        outcomes.append((code, outcome))
    edge_failures = (probe_contract_edge(group, workdir, checker.check, lines)
                     if spec.name == "cli-mix" else 0)
    tracer.write(spans_path)

    totals = tracer.layer_totals()
    counts = {
        "thermo.thermo_closed_form.discrepancies": tracer.discrepancies,
        "thermo.unphysical": tracer.unphysical,
        "cli.request.self_s": totals["cli.request"]["self_s"],
        "cli.rows": sum(o.rows for _, o in outcomes),
        "cli.bytes_out": sum(o.bytes_out for _, o in outcomes),
        "cli.discrepancy_records": sum(o.disc_records for _, o in outcomes),
        "cli.usage_errors": sum(code == 2 for code, _ in outcomes),
        "cli.contract_edge_failures": edge_failures,
        "trace.overhead_ratio": traced / untraced,
    }
    metrics = {}
    for name, *_ in tracing.LAYER_METRICS:
        if name in counts:
            value = counts[name]
        elif name.endswith(".import_s"):
            value = imports[name[: -len(".import_s")]]
        else:
            layer, part = name.rsplit(".", 1)
            value = totals.get(layer, {"calls": 0, "self_s": 0.0})[part]
        metrics[name] = (value, len(first), "one traced pass")
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "quatstat" / "cli.py").is_file():
        print(f"error: {root} is not a quatstat checkout (no src/quatstat/cli.py)",
              file=sys.stderr)
        return 2
    # pin BLAS threads before numpy is imported here or in any child
    os.environ.update(BLAS_PINS)
    os.environ.pop("QUATSTAT_TOL", None)
    import workloads
    from oracles import check

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    lines: list[str] = []
    try:
        record = {"workload": spec.name, "why": spec.why, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment_record()}
        reqs = workloads.generate(spec.name, args.seed, workdir)
        cycle = len(reqs) // spec.cycles
        checker = Checker(check)
        if args.trace:
            metrics, raw = traced_run(spec, reqs, cycle, env, root, workdir, checker, lines,
                                 out_dir / f"spans-{spec.name}-seed{args.seed}.csv.gz")
            units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        else:
            metrics, raw = untraced_run(spec, reqs, cycle, env, root, workdir, args.seconds,
                                   checker, lines)
            units = dict(END_TO_END)
        record["environment"]["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_rec = record["environment"]
    print(f"workload {spec.name} seed {args.seed} trace {args.trace}: {spec.why}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_rec.items()))
    print(f"{'metric':44} {'value':>14} {'unit':8} {'n':>5}  note")
    for name, (value, n, note) in metrics.items():
        print(f"{name:44} {value:14.6g} {units[name]:8} {n:5d}  {note}")
    ratio = checker.failed / checker.attempted
    print(f"{'failed_ratio':44} {ratio:14.6g} {'1':8} {checker.attempted:5d}  "
          "failed / attempted, subprocess and in-process")
    for line in lines + checker.failures:
        print(line)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }
    record.update(result=result, samples={k: v[1] for k, v in metrics.items()},
                  raw_samples=raw, notes=lines, failures=checker.failures)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
