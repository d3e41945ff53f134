"""Traced run: spans around the calls into each quatstat module.

Wrappers are installed from the benchmark at every binding of a traced
function across the ``quatstat.*`` namespaces (``thermo.mat_exp`` as well
as ``linalg.mat_exp``), so the program itself is not edited. Spans carry a
name, start, end, parent and request id; they are kept in memory and
written out once at the end. A layer's self time is its span time minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import re
import statistics
import subprocess
import sys
import time

#: Traced public functions by defining module.
TRACED = {
    "quaternion": ("hamilton_product",),
    "linalg": ("mat_exp", "unembed", "mat_mul", "standard_spectrum",
               "energies_by_continuity"),
    "metric": ("classification_report", "is_quasi_anti_hermitian"),
    "thermo": ("dyson_second_order", "dyson_convergence_slope", "bloch_propagator",
               "thermo_closed_form", "printed_internal_energy", "printed_entropy",
               "printed_specific_heat", "z1_formula", "thermo_spectral", "z_spectral"),
    "models": ("build_spin_model", "build_qubit_model", "entropy_stirling",
               "log_multiplicity", "temperature", "printed_spin_internal_energy",
               "printed_spin_entropy"),
}

#: Functions reported together under one layer name.
GROUPS = {
    "thermo.printed_internal_energy": "thermo.printed",
    "thermo.printed_entropy": "thermo.printed",
    "thermo.printed_specific_heat": "thermo.printed",
    "models.build_spin_model": "models.build",
    "models.build_qubit_model": "models.build",
    "models.entropy_stirling": "models.negtemp",
    "models.log_multiplicity": "models.negtemp",
    "models.temperature": "models.negtemp",
    "models.printed_spin_internal_energy": "models.printed_spin",
    "models.printed_spin_entropy": "models.printed_spin",
}

MODULES = ("quaternion", "linalg", "thermo", "models", "metric", "cli")

_STARTUP = ("setup_s", "cli_wall_p50_s", "peak_rss_mb")
_DYSON = ("rows_per_s", "request_p50_s")
_THERMO = ("rows_per_s", "request_tail_s")

#: (metric, unit, better, end-to-end metrics it should move, workload where it
#: should, workloads where it should not)
LAYER_METRICS = (
    *((f"{m}.import_s", "s", "lower", _STARTUP, "cli-mix, thermo-sweep",
       "rows_per_s anywhere") for m in MODULES),
    *((f"{layer}.{part}", unit, "lower", _DYSON, "compare-dyson", "cli-mix, thermo-sweep")
      for layer in ("thermo.dyson_second_order", "thermo.dyson_convergence_slope",
                    "thermo.bloch_propagator", "linalg.mat_exp", "linalg.unembed",
                    "linalg.mat_mul")
      for part, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"{layer}.{part}", unit, "lower", _THERMO, "thermo-sweep",
       "cli-mix (small on compare-dyson)")
      for layer in ("thermo.thermo_closed_form", "thermo.printed", "thermo.z1_formula",
                    "thermo.thermo_spectral", "thermo.z_spectral")
      for part, unit in (("calls", "count"), ("self_s", "s"))),
    ("thermo.thermo_closed_form.discrepancies", "count", "lower", _THERMO,
     "thermo-sweep", "cli-mix"),
    ("thermo.unphysical", "count", "lower", _THERMO, "thermo-sweep", "cli-mix"),
    ("cli.request.self_s", "s", "lower", ("rows_per_s",), "thermo-sweep (emission)",
     "compare-dyson"),
    ("cli.rows", "count", "higher", ("rows_per_s",), "thermo-sweep", "none"),
    ("cli.bytes_out", "count", "lower", ("rows_per_s",), "thermo-sweep", "none"),
    ("cli.discrepancy_records", "count", "lower", ("rows_per_s",), "thermo-sweep",
     "none"),
    ("cli.usage_errors", "count", "lower", ("failed_ratio",), "cli-mix", "none"),
    ("cli.contract_edge_failures", "count", "lower", ("failed_ratio",), "cli-mix",
     "none"),
    *((f"{layer}.{part}", unit, "lower", ("request_p50_s",), "cli-mix",
       "thermo-sweep, compare-dyson (one build per request)")
      for layer in ("models.build", "linalg.standard_spectrum",
                    "linalg.energies_by_continuity", "metric.classification_report",
                    "metric.is_quasi_anti_hermitian", "quaternion.hamilton_product")
      for part, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"{layer}.{part}", unit, "lower", ("rows_per_s",), "cli-mix",
       "thermo-sweep (compare-dyson only for printed_spin)")
      for layer in ("models.negtemp", "models.printed_spin")
      for part, unit in (("calls", "count"), ("self_s", "s"))),
    ("trace.overhead_ratio", "1", "lower", (), "none", "all"),
)

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per ``quatstat.<module>`` from ``-X importtime``.

    A dependency shared by several modules is charged to the first one that
    imports it, because that is whose cumulative time contains it. The
    package ``__init__``, which imports every other module, is nested inside
    ``quatstat.cli``'s entry and is taken out of it.
    """
    cumulative = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line.strip())
        if match and match.group(3).split(".")[0] == "quatstat":
            cumulative[match.group(3)] = int(match.group(2)) / 1e6
    out = {name.split(".", 1)[1]: seconds for name, seconds in cumulative.items()
           if name.startswith("quatstat.")}
    if "cli" in out:
        out["cli"] -= cumulative.get("quatstat", 0.0)
    return out


def import_profile(env: dict, cwd: str, runs: int) -> dict[str, float]:
    """Median over ``runs`` fresh interpreters of each module's import time."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quatstat.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of quatstat.cli failed: {proc.stderr[-500:]}")
        for module, seconds in parse_importtime(proc.stderr).items():
            if module in samples:
                samples[module].append(seconds)
    return {m: statistics.median(v) for m, v in samples.items() if v}


class Tracer:
    """In-memory span recorder with wrappers over the quatstat namespaces."""

    def __init__(self):
        #: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.request = None
        self.discrepancies = 0
        self.unphysical = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run_request(self, request_id: str, call):
        """Run ``call()`` under a root ``cli.request`` span."""
        self.request = request_id
        idx = self._open("cli.request")
        try:
            return call()
        finally:
            self._close(idx)
            self.request = None

    def _wrap(self, name: str, fn, unphysical_type):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except unphysical_type as exc:
                # count each UnphysicalZ once, where it is first raised
                if not getattr(exc, "_counted_by_trace", False):
                    exc._counted_by_trace = True
                    tracer.unphysical += 1
                raise
            finally:
                tracer._close(idx)
            if name == "thermo.thermo_closed_form":
                tracer.discrepancies += len(result.discrepancies)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each traced function in quatstat.*."""
        from quatstat.errors import UnphysicalZ

        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "quatstat" or name.startswith("quatstat.")]
        for module, names in TRACED.items():
            home = sys.modules[f"quatstat.{module}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{module}.{fname}", original, UnphysicalZ)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per layer (grouped function name)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = totals.setdefault(GROUPS.get(name, name), {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return totals

    def write(self, path):
        """Write every span once, as gzipped CSV."""
        with gzip.open(path, "wt") as handle:
            handle.write("index,name,start,end,parent,request\n")
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                handle.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{rid}\n")
