"""Helpers shared by the untraced and the traced run: child processes, CLI arguments, statistics."""

from __future__ import annotations

import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

# The package is not installed, so the CLI is reached through PYTHONPATH=src.
# cli.py has no __main__ hook, so `python -m rislink.cli` would exit 0 without
# running anything; calling main() works with or without such a hook.
CLI_SNIPPET = "import sys; from rislink.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_SNIPPET = "import rislink.cli"
# A fixed piece of work that never touches rislink: a fresh interpreter that
# imports numpy and scipy, solves small systems, formats and parses numbers and
# fills a dict, the same kinds of work the CLI does. Its time measures the
# machine's speed, which on a shared host drifts by a quarter within minutes.
CALIBRATE_SNIPPET = """\
import numpy as np, scipy.linalg, scipy.optimize
rng = np.random.default_rng(0)
a = rng.standard_normal((64, 64)) + 64 * np.eye(64)
b = rng.standard_normal(64)
for _ in range(500):
    np.linalg.solve(a, b)
text = " ".join(f"{x:.10e}" for x in rng.standard_normal(10_000))
values = [float(v) for v in text.split()]
table = {}
for i in range(100_000):
    table[i % 977] = table.get(i % 977, 0) + i
"""


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: the caller's, with the package on PYTHONPATH.

    RISLINK_THREADS is dropped because a later change removes it; bytecode
    writing is turned off so no child writes outside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if k != "RISLINK_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@dataclass
class Child:
    wall_s: float
    code: int
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> Child:
    """Run one child to completion, timing it; output goes to files so pipes cannot fill.

    The wait blocks in waitpid (``Popen.wait`` with a timeout polls, which
    would round the timing up to its 50 ms poll step); a timer kills a child
    that outlives the deadline.
    """
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    return Child(wall, code, out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class Tally:
    """Operations attempted and failed; an operation fails at most once, with every reason kept."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def record(self, reasons: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(reasons)
        self.reasons += reasons


def cli_args(wl: Workload, command: str, out: Path, caps: Path | None) -> list[str]:
    """Arguments of one rislink command; the workload seed reaches the optimizer via --seed."""
    args = [command, str(wl.config)]
    if command == "sweep":
        args.append(str(caps))
    args += ["--out", str(out)]
    if command == "optimize":
        args += ["--seed", str(wl.cli_seed)]
    return args


def caps_for_sweep(wl: Workload, out: Path) -> Path:
    return wl.caps_input if wl.caps_input is not None else out / "caps.csv"


def summary(samples: list[float]) -> dict:
    """Median and sample count, plus the highest of p90/p99 that has >= 10 samples beyond it."""
    result = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            result[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
            break
    return result
