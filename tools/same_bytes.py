"""Check that a change keeps every output byte: run the CLI from two trees and compare what each writes.

Usage::

    python tools/same_bytes.py [--base REV]

The base tree is ``REV`` (default ``HEAD``, so the working tree's uncommitted
change is what is checked; in CI, pass ``HEAD^``), extracted with
``git archive`` into a temporary directory. The other tree is the working
tree. Each workload below gets its inputs from ``perfbench/workloads.prepare``
(the board's config and pattern table for ``board_7x2``), and the extra case
``board_nonreciprocal`` from :func:`nonreciprocal` (the board layout driven by
a seeded non-reciprocal 14-port export, whose perfbench counterparts are all
reciprocal); each is copied into a directory of each tree's own, so neither
tree sees the other's parse cache and nothing is written into the checkout or
under ``perfbench/``. The workload's commands run from each tree as
subprocesses (``PYTHONPATH=<tree>/src``, no bytecode written): cold, then
warm, then, on ``wide_touchstone``, a warm ``synthesize --alpha 10``, whose
RIS block comes from the cached text.

Every ``full.sNp``, ``caps.csv`` and ``brcs.csv`` must be byte-identical to
the base tree's, and every manifest equal without ``created_utc``. The script
prints each difference and the number of files compared, and exits 1 on any
difference or failed command.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # perfbench/ stays as checked out
sys.path.insert(0, str(ROOT / "perfbench"))
import numpy as np  # noqa: E402
from common import CLI_SNIPPET, caps_for_sweep, cli_args  # noqa: E402
from workloads import BOARD_CONFIG, FREQ_HZ, Workload, prepare  # noqa: E402

#: (workload, seed) pairs run: those the byte-identity checks of earlier changes ran, and the non-reciprocal export.
CASES = [("board_7x2", 7), ("board_7x2", 3), ("wide_touchstone", 301), ("lossy_mid", 4), ("lossy_mid", 101),
         ("board_nonreciprocal", 11)]
#: Output files compared; every manifest is compared too.
OUTPUTS = ("full.s*p", "caps.csv", "brcs.csv")


def nonreciprocal(seed: int, inputs: Path) -> Workload:
    """The board layout from a three-point ``board.s14p`` written into ``inputs``, and ``patterns.gain_db``.

    Each point is a random complex S seeded by ``seed``, with S != S^T, scaled to a largest singular value of 0.95
    and written with 17 significant digits by this function, not by rislink's writer. Uniform patterns take each
    element's s_mm from the export, so no table has to match its diagonal.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    lines = [f"! non-reciprocal 14-port RIS matrix (seed {seed})", "# Hz S RI R 50"]
    for f_hz in FREQ_HZ + np.array([-10e6, 0.0, 10e6]):
        s = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
        s *= 0.95 / np.linalg.svd(s, compute_uv=False)[0]
        assert not np.allclose(s, s.T)
        for i, row in enumerate(s):
            for j in range(0, 14, 4):
                pairs = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row[j : j + 4])
                lines.append(f"{f_hz:.0f} {pairs}" if i == 0 and j == 0 else pairs)
    (inputs / "board.s14p").write_text("\n".join(lines) + "\n", encoding="utf-8")
    board = (ROOT / BOARD_CONFIG).read_text(encoding="utf-8").splitlines()
    keys = [ln for ln in board if not ln.startswith(("ris.", "patterns."))]
    config = inputs / "scenario.cfg"
    config.write_text("\n".join(keys) + "\nris.file = board.s14p\npatterns.gain_db = 5 dB\n", encoding="utf-8")
    return Workload("board_nonreciprocal", config, ("synthesize", "optimize", "sweep"), 14, seed,
                    input_files=[config, inputs / "board.s14p"], freq_points=3)


def prepare_case(name: str, seed: int, inputs: Path) -> Workload:
    """The inputs of case ``name`` for ``seed``, written into ``inputs``: a perfbench workload or the extra case."""
    return nonreciprocal(seed, inputs) if name == "board_nonreciprocal" else prepare(name, seed, ROOT, inputs)


def base_tree(rev: str, into: Path) -> Path:
    """The ``src`` directory of ``rev``, extracted into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src"


def run_case(src: Path, inputs: list[Path], wl, work: Path) -> list[str]:
    """Copy ``inputs`` into ``work`` and run ``wl``'s commands there from ``src``; the failures, if any."""
    work.mkdir(parents=True)
    for path in inputs:
        shutil.copy(path, work / path.name)
    wl = dataclasses.replace(
        wl, config=work / wl.config.name, caps_input=wl.caps_input and work / wl.caps_input.name
    )
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [(run, [cli_args(wl, c, work / run, caps_for_sweep(wl, work / run)) for c in wl.commands])
            for run in ("cold", "warm")]
    if wl.name == "wide_touchstone":
        runs.append(("warm_alpha10", [cli_args(wl, "synthesize", work / "warm_alpha10", None) + ["--alpha", "10"]]))
    failures = []
    for _, commands in runs:
        for args in commands:
            done = subprocess.run([sys.executable, "-c", CLI_SNIPPET, *args], cwd=work, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                failures.append(f"{' '.join(args)} exited {done.returncode}: {done.stderr.strip()}")
    return failures


def outputs(work: Path) -> dict[str, object]:
    """Each output under ``work``'s run directories: bytes, or a manifest without ``created_utc``."""
    found: dict[str, object] = {}
    for run in sorted(p for p in work.iterdir() if p.is_dir() and not p.name.startswith("__")):
        for pattern in OUTPUTS:
            for path in run.glob(pattern):
                found[f"{run.name}/{path.name}"] = path.read_bytes()
        for path in run.glob("manifest.*.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("created_utc", None)
            found[f"{run.name}/{path.name}"] = manifest
    return found


def compare(trees: dict[str, Path], tmp: Path) -> tuple[int, list[str]]:
    """Run every case from the ``src`` directories ``trees["base"]`` and ``trees["work"]``, under ``tmp``.

    Returns the number of files compared and each difference or failed command.
    """
    compared, problems = 0, []
    for name, seed in CASES:
        case = f"{name}-{seed}"
        wl = prepare_case(name, seed, tmp / "inputs" / case)
        found = {}
        for tree, src in trees.items():
            failures = run_case(src, wl.input_files, wl, tmp / tree / case)  # caps.csv is an input file
            problems += [f"{case} ({tree}): {failure}" for failure in failures]
            found[tree] = outputs(tmp / tree / case)
        for key in sorted(found["base"].keys() | found["work"].keys()):
            if key not in found["base"] or key not in found["work"]:
                problems.append(f"{case}: {key} is written by one tree only")
                continue
            compared += 1
            if found["base"][key] != found["work"][key]:
                problems.append(f"{case}: {key} differs")
    return compared, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare the working tree with (HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        compared, problems = compare({"base": base_tree(args.base, Path(tmp) / "base_tree"), "work": ROOT / "src"},
                                     Path(tmp))
    for problem in problems:
        print(problem)
    print(f"{compared} files compared with {args.base}'s: {len(problems)} difference(s) or failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
