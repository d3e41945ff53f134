"""Host-speed references: fixed tasks timed next to every sample.

The benchmark runs on a shared host whose speed switches between regimes
that last from seconds to minutes. On a 2-vCPU virtual machine the same
cycle of eight 2000-point ``thermo`` requests took 0.65 s in one regime and
1.05 s in the other, and a 40 s run could spend any share of its time in
either; fresh imports, subprocess requests and in-process requests all moved
together.

An untraced run therefore times a reference task of the same kind right
before and right after every sample: ``reference_task`` in this process
around an in-process request, and a fresh interpreter running
``SUBPROCESS_CODE`` around a subprocess (set-up import or request). The
sample's host factor is the mean of the two reference times over the kind's
``NOMINAL_S``; the benchmark reports the sample divided by its factor, i.e.
its time on a host where the reference takes its nominal time. The tasks run
no quatstat code, so a change to the program moves a scaled time by the same
share as the raw one, while a change of regime moves the sample and its
references alike and cancels. Two things did not work: run-level medians of
a reference (in a run that straddles two regimes they fall in one of them),
and the in-process task as the reference of a subprocess (timed right after
a subprocess it runs with cold caches and moved independently of it).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import scipy.linalg

SUBPROCESS_CODE = "import argparse, decimal, email.message, fractions, json, statistics"
#: each reference's time on the host that scaled times refer to
NOMINAL_S = {"subprocess": 0.07, "inproc": 0.008}

_rng = np.random.default_rng(20080423)
_MATRICES = [0.3 * (_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))
             for _ in range(8)]
_BETAS = [0.05 + 0.004 * i for i in range(300)]


def reference_task() -> float:
    """Wall time of one pass of a fixed task of the kinds of work the
    requests do: small complex matrix exponentials and products, scalar
    closed forms, and CSV and indented-JSON emission of a table."""
    start = time.perf_counter()
    product = np.eye(4, dtype=complex)
    for m in _MATRICES:
        product = product @ scipy.linalg.expm(m)
    rows = []
    for beta in _BETAS:
        z = 2.0 * math.exp(-0.5 * beta) * math.cosh(0.3 * beta) + abs(product[0, 0]) * 1e-9
        u = -math.log(z) / beta
        rows.append({"beta": beta, "Z1": z, "U": u, "S": beta * u + math.log(z),
                     "Cv": beta * beta * u * u})
    "\n".join(",".join(f"{v:.17g}" for v in row.values()) for row in rows)
    json.dumps(rows, indent=1)
    return time.perf_counter() - start

