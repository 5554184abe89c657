"""rislink benchmark: end-to-end CLI timings, or per-layer timings from a traced run.

    python3 perfbench/run.py --workload board_7x2 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; paths resolve from this file. With
``--trace 0`` the workload's commands run as fresh subprocesses, one at a
time from this single process (a closed loop with one client), repeated
until ``--seconds`` is spent and at least twice, so that same-seed outputs
can be compared byte for byte; each timing is scaled by a calibration child
that runs between them (see ``scale``). With ``--trace 1`` the same commands run
in-process, alternately with and without spans (see layers.py). Every
output is checked. The report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record (environment, samples, spans) is written to
perfbench/_work/<workload>-seed<seed>-trace<0|1>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread, here and in every child (they inherit os.environ). A BLAS
# pool spins on every core it has, so on a small shared host its timings
# follow the neighbours' load. Set before numpy is first imported (common
# imports it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import (CALIBRATE_SNIPPET, CLI_SNIPPET, IMPORT_SNIPPET, Tally, caps_for_sweep, child_env, cli_args,
                    run_child, summary)
from workloads import prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run must end well inside three minutes, whatever --seconds says.
HARD_LIMIT_S = 170.0

WORKLOADS = {
    "board_7x2": "shipped 7x2 board, synthesize -> optimize -> sweep: import- and optimizer-overhead-bound",
    "wide_touchstone": "generated 128-port .s128p and pattern table, synthesize -> sweep: parse, assembly and sweep-bound",
    "lossy_mid": "generated 48-element lossy-varactor surface, synthesize -> optimize -> sweep: LAPACK-bound optimizer",
}
END_TO_END = {
    "setup_s": "s", "synthesize_s": "s", "sweep_s": "s", "pipeline_s": "s",
    "link_loss_db": "dB", "peak_rss_mb": "MB",
}
# Share of the run's time each timing gets after the first two pipelines,
# relative to a command. The bare import gets less: every command pays it again.
SHARE = {"setup": 0.5}
# Median time of the calibration child (common.CALIBRATE_SNIPPET) on the host
# the bounds were set on: 2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4.
# Each timed child runs between two calibration children, and its time is
# reported scaled by CALIBRATE_REF_S over their mean: the time it would have
# taken had the machine run at that host's speed just then. The host's speed
# drifts by a quarter within minutes; the scaling takes out the drift.
CALIBRATE_REF_S = 0.85


def environment(wl, angles: int, reps: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout has none; git must not search above it
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "input": {**wl.sizes(), "angles": angles, "reps": reps},
    }


def untraced_run(wl, ref, work: Path, seconds: float, child, deadline: float):
    """Commands as subprocesses; returns raw samples, scaled samples, the tally and the link loss in dB.

    Rounds 1 and 2 run the bare import and the whole pipeline, so same-seed
    outputs can be compared. After that, each step runs the one command (or
    the bare import) that has had the least time so far, weighted by
    ``SHARE``, among those that still fit; every later sweep reuses round 1's
    caps.csv. So each gated timing gets about as much of the run as the
    others, and a short command gets more samples than a long one. A
    calibration child runs before the first step and after every step (see
    ``scale``).
    """
    from checks import OUTPUTS, digest

    samples = defaultdict(list)
    sequence: list[tuple[str, float]] = []
    tally = Tally()
    digests: dict[str, set] = defaultdict(set)
    caps = caps_for_sweep(wl, work / "round1")

    def run(name: str, snippet: str, args: list[str], log: Path):
        result = child(["-c", snippet, *args], log)
        samples[name].append(result.wall_s)
        sequence.append((name, result.wall_s))
        return result

    def calibrate(log: Path) -> None:
        result = run("calibrate", CALIBRATE_SNIPPET, [], log)
        tally.record([f"calibrate: exit code {result.code}"] if result.code else [])

    def step(command: str, out: Path, caps: Path | None) -> None:
        log = out.with_name(f"{out.name}-{command}")
        if command == "setup":
            result = run(command, IMPORT_SNIPPET, [], log)
            tally.record([f"setup: exit code {result.code}"] if result.code else [])
        else:
            result = run(command, CLI_SNIPPET, cli_args(wl, command, out, caps), log)
            if result.code:
                tally.record([f"{command}: exit code {result.code}: {result.stderr.strip()[-300:]}"])
            else:
                tally.record(ref.check(command, out, result.stdout, caps))
                digests[command].add(digest(out / OUTPUTS[command].format(p=ref.full.n_ports)))
        calibrate(out.with_name(f"{out.name}-{command}-calibrate"))

    child(["-c", IMPORT_SNIPPET], work / "warmup")  # fills the file cache; not measured
    start = time.perf_counter()
    calibrate(work / "calibrate")
    for r in (1, 2):
        out = work / f"round{r}"
        step("setup", out, None)
        for command in wl.commands:
            step(command, out, caps_for_sweep(wl, out) if command == "sweep" else None)
    for k in range(1, 100_000):
        now = time.perf_counter()
        left = min(seconds - (now - start), deadline - now) - statistics.median(samples["calibrate"])
        fits = [c for c in ("setup", *wl.commands) if statistics.median(samples[c]) < left]
        if not fits:
            break
        command = min(fits, key=lambda c: sum(samples[c]) / SHARE.get(c, 1.0))
        step(command, work / f"step{k}", caps if command == "sweep" else None)
    for command, found in digests.items():
        if len(found) > 1:
            tally.record([f"{command}: outputs differ between same-seed repetitions"])
    loss = -10 * math.log10(ref.power_transfer(ref.read_caps(caps))) if caps.is_file() else 0.0
    return dict(samples), scale(sequence), tally, loss


def scale(sequence: list[tuple[str, float]]) -> dict[str, list[float]]:
    """Each timed step's wall time, scaled by CALIBRATE_REF_S over the calibrations beside it.

    ``sequence`` is every child in order, a calibration before the first step
    and after each. A step is scaled by the mean of the nearest calibration on
    each side; a step longer than four calibrations, by the two nearest on each
    side, since one calibration at each end says less about its whole length.
    """
    cal = [i for i, (name, _) in enumerate(sequence) if name == "calibrate"]
    long_s = 4 * statistics.median(sequence[i][1] for i in cal)
    scaled = defaultdict(list)
    for i, (name, wall_s) in enumerate(sequence):
        if name == "calibrate":
            continue
        k = 2 if wall_s > long_s else 1
        near = [j for j in cal if j < i][-k:] + [j for j in cal if j > i][:k]
        scaled[name].append(wall_s * CALIBRATE_REF_S / statistics.mean(sequence[j][1] for j in near))
    return dict(scaled)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rislink" / "cli.py").is_file() or not (ROOT / "scenarios" / "board_7x2").is_dir():
        print(f"error: {ROOT} is not a rislink checkout (src/rislink or scenarios/board_7x2 missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("RISLINK_THREADS", None)  # a later change removes it; it is never set here
    from checks import Reference

    deadline = time.perf_counter() + HARD_LIMIT_S
    seed = args.seed % 2**32
    work = HERE / "_work" / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    wl = prepare(args.workload, seed, ROOT, work / "inputs")
    ref = Reference(wl)
    prepare_s = time.perf_counter() - start
    env = child_env(ROOT)

    def child(extra: list[str], log: Path):
        return run_child([sys.executable, *extra], ROOT, env, log, deadline)

    if args.trace:
        from layers import PER_LAYER, traced_run

        samples, tally, values, spans = traced_run(wl, ref, work, args.seconds, child, deadline)
        units = PER_LAYER
        report_only = {}
        record = {"spans": spans}
        reps = len(samples["traced_s"])
    else:
        samples, scaled, tally, loss = untraced_run(wl, ref, work, args.seconds, child, deadline)
        med = {name: statistics.median(v) for name, v in scaled.items()}
        values = {
            "setup_s": med["setup"],
            "synthesize_s": med["synthesize"],
            "sweep_s": med["sweep"],
            "pipeline_s": sum(med[c] for c in wl.commands),
            "link_loss_db": loss,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
        # Printed for the reader but not gated: optimize_s does not exist on
        # wide_touchstone, and objective_db is negative, so link_loss_db carries it.
        report_only = {"objective_db": (-loss, "dB"),
                       "speed_factor": (CALIBRATE_REF_S / statistics.median(samples["calibrate"]), "x")}
        if "optimize" in med:
            report_only["optimize_s"] = (med["optimize"], "s")
        record = {"scaled": scaled}
        reps = len(samples["setup"])

    info = environment(wl, int(ref.alphas_deg.size), reps)
    stats = {name: summary(v) for name, v in samples.items()}
    failed_frac = tally.failed / max(tally.attempted, 1)
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": seed,
        "seconds": args.seconds, "trace": args.trace, "prepare_s": prepare_s, "env": info,
        "metrics": values, "failed_frac": failed_frac, "failures": tally.reasons,
        "stats": stats, "samples": samples, **record,
    }, indent=1) + "\n")
    for path in work.iterdir():  # inputs and outputs are bulky; result.json and the logs stay
        if path.is_dir():
            shutil.rmtree(path)

    print(f"workload {args.workload} seed {seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    print("env " + json.dumps(info))
    for name, st in stats.items():
        tail = "".join(f" {k}={v:.6g}" for k, v in st.items() if k not in ("median", "n"))
        print(f"  samples {name:<24} median {st['median']:.6g} n={st['n']}{tail}")
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:.6g} {unit}")
    for name, (value, unit) in report_only.items():
        print(f"  {name:<32} {value:.6g} {unit} (report only)")
    print(f"  {'failed_frac':<32} {failed_frac:.6g} ratio ({tally.failed}/{tally.attempted}) (report only)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
