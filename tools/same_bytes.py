"""Check that a change keeps every output byte: run the CLI from two trees and compare what each writes.

Usage::

    python tools/same_bytes.py [--base REV]

The base tree is ``REV`` (default ``HEAD``, so the working tree's uncommitted
change is what is checked; in CI, pass ``HEAD^``), extracted with
``git archive`` into a temporary directory. The other tree is the working
tree. Each workload below gets its inputs from ``perfbench/workloads.prepare``
(the board's config and pattern table for ``board_7x2``), copied into a
directory of each tree's own, so neither tree sees the other's parse cache and
nothing is written into the checkout or under ``perfbench/``. The workload's
commands run from each tree as subprocesses (``PYTHONPATH=<tree>/src``, no
bytecode written): cold, then warm, then, on ``wide_touchstone``, a warm
``synthesize --alpha 10``, whose RIS block comes from the cached text.

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
from common import CLI_SNIPPET, caps_for_sweep, cli_args  # noqa: E402
from workloads import prepare  # noqa: E402

#: (workload, seed) pairs run, as the byte-identity checks of earlier changes ran them.
CASES = [("board_7x2", 7), ("board_7x2", 3), ("wide_touchstone", 301), ("lossy_mid", 4), ("lossy_mid", 101)]
#: Output files compared; every manifest is compared too.
OUTPUTS = ("full.s*p", "caps.csv", "brcs.csv")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare the working tree with (HEAD)")
    args = parser.parse_args(argv)
    compared, problems = 0, []
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        trees = {"base": base_tree(args.base, Path(tmp) / "base_tree"), "work": ROOT / "src"}
        for name, seed in CASES:
            case = f"{name}-{seed}"
            wl = prepare(name, seed, ROOT, Path(tmp) / "inputs" / case)
            found = {}
            for tree, src in trees.items():
                failures = run_case(src, wl.input_files, wl, Path(tmp) / tree / case)  # caps.csv is an input file
                problems += [f"{case} ({tree}): {failure}" for failure in failures]
                found[tree] = outputs(Path(tmp) / tree / case)
            for key in sorted(found["base"].keys() | found["work"].keys()):
                if key not in found["base"] or key not in found["work"]:
                    problems.append(f"{case}: {key} is written by one tree only")
                    continue
                compared += 1
                if found["base"][key] != found["work"][key]:
                    problems.append(f"{case}: {key} differs")
    for problem in problems:
        print(problem)
    print(f"{compared} files compared with {args.base}'s: {len(problems)} difference(s) or failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
