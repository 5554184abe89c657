"""Run fixed one-line mutants of ``src/`` against Tier-1, and report which of them the checks kill.

Usage::

    python tools/mutants.py

The working tree's ``src``, ``tests``, ``scenarios``, ``pyproject.toml`` and
``README.md`` are copied into a temporary directory, and Tier-1 first runs
there unmutated: if it fails, no mutant can be judged and the tool exits 1.
Then each edit of ``MUTANTS`` is applied to that copy alone, one at a time,
and Tier-1 runs against it with ``-x``. A mutant Tier-1 misses then goes to
``tools/same_bytes.py``, which compares its CLI outputs with those of the
unmutated copy. An edit whose old text is not found exactly once in its file
is reported as not applied, never skipped silently. Nothing is written into
the checkout.

It prints one Markdown table row per mutant (killed by which test, or by
which differing output, or survived) with its run time, and exits 1 when an
edit was not applied or a mutant survived both checks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays as checked out
import same_bytes  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: What the copy holds: everything Tier-1 reads.
TREE = ("src", "tests", "scenarios", "pyproject.toml", "README.md")
TIER1 = ["-m", "pytest", "-x", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]

#: (file under src/rislink, old text, new text, what the mutant breaks).
MUTANTS = [
    ("farfield.py", "arg = (r * sin - x) / d", "arg = (r * sin + x) / d",
     "azimuth sign: the element azimuths mirror about the antenna angle"),
    ("farfield.py", "phase = -2.0 * math.pi * d / lam", "phase = 2.0 * math.pi * d / lam",
     "path-phase sign: every coupling is conjugated"),
    ("farfield.py", "math.sqrt(max(0.0, 1.0 - abs(p.s_mm) ** 2))", "1.0",
     "the mismatch factor sqrt(1 - abs(s_mm)^2) is dropped"),
    ("loads.py", "q += np.outer(", "q -= np.outer(",
     "the rank-one update of a taken step has the wrong sign"),
    ("network.py", "np.linalg.solve(self.system(gam), self.s_ie)", "np.linalg.solve(self.system(gam).T, self.s_ie)",
     "reduce solves the transposed system"),
    ("touchstone.py", "matrices = matrices.transpose(0, 2, 1)", "matrices = matrices",
     "the reader loses the v1 two-port order S11 S21 S12 S22"),
    ("cache.py", 'if f"{member.filename} {member.CRC}" not in record:', "if not record:",
     "a cache hit ignores the CRC-32 record"),
    ("loads.py", "return (q / a, c / q) if q != 0.0 else (0.0,)", "return (q / a,) if q != 0.0 else (0.0,)",
     "a real root of the coordinate step's quadratic is dropped"),
    ("brcs.py", "np.sinc(arg / math.pi)", "np.sinc(arg)",
     "the flat reflector's lobe has the wrong width"),
    ("brcs.py", "nearest = alphas.flat[int(np.argmin(d.min(axis=1, initial=math.inf)))]",
     "nearest = alphas.flat[0]", "the sweep assembles at the first grid angle, not the nearest"),
    ("loads.py", "if value >= best:", "if value > best:",
     "a step that ties the best is not taken"),
    ("loads.py", "trace.best_objective > best_trace", "trace.best_objective >= best_trace",
     "an exact tie between starts goes to the last start"),
    ("network.py", "self.s_ie[:, 0], self.s_ei[1], self.s_ee[1, 0]", "self.s_ie[:, 1], self.s_ei[1], self.s_ee[1, 0]",
     "t is read from the Rx column"),
    ("network.py", "self.s_ie[:, 0], self.s_ei[1], self.s_ee[1, 0]", "self.s_ie[:, 0], self.s_ei[0], self.s_ee[1, 0]",
     "r is read from the Tx row"),
    ("loads.py", "if not (kernel.t.any() and kernel.r.any()):",
     "if not ((kernel.t.any() or kernel.s_ei[0].any()) and (kernel.r.any() or kernel.s_ie[:, 1].any())):",
     "the no-coupling refusal also accepts the Tx row and the Rx column"),
    ("brcs.py", 'row = [f"{math.degrees(alpha):.6g}"]', 'row = [f"{math.degrees(alpha):.7g}"]',
     "brcs.csv writes its angles with 7 significant digits"),
    ("brcs.py", 'row.extend(f"{curve.sigma_dbsm[i]:.6g}"', 'row.extend(f"{curve.sigma_dbsm[i]:.7g}"',
     "brcs.csv writes its sigmas with 7 significant digits"),
    ("scenario.py", '_build("/".join(keys.values()),', '_build("/".join(reversed(keys.values())),',
     "a constructor's refusal names its config keys in reverse order"),
]


def tier1(tree: Path) -> tuple[int, str]:
    """Tier-1 with ``-x`` in ``tree``: its exit code and the first failing test, if any."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    failed = [ln.split(" - ")[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or lines[-1:] or [""])[0]


def main() -> int:
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = Path(tmp) / "tree"
        tree.mkdir()
        ignore = shutil.ignore_patterns("__pycache__", "__rislink_cache__")
        for name in TREE:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=ignore)
            else:
                shutil.copy(ROOT / name, tree / name)
        shutil.copytree(tree / "src", Path(tmp) / "base" / "src")
        code, summary = tier1(tree)
        if code != 0:
            print(f"Tier-1 fails on the unmutated copy ({summary}): no mutant can be judged")
            return 1
        print("| # | File | Mutant | Result | Seconds |\n| --- | --- | --- | --- | --- |")
        for number, (name, old, new, reason) in enumerate(MUTANTS, 1):
            began = time.perf_counter()
            path = tree / "src" / "rislink" / name
            source = path.read_text(encoding="utf-8")
            found = source.count(old)
            if found != 1:
                result, bad = f"**not applied**: old text found {found} times", bad + 1
            else:
                path.write_text(source.replace(old, new), encoding="utf-8")
                code, failed = tier1(tree)
                if code != 0:
                    result = f"killed by Tier-1: `{failed}`"
                else:
                    compared, problems = same_bytes.compare({"base": Path(tmp) / "base" / "src",
                                                             "work": tree / "src"}, Path(tmp) / f"bytes_{number}")
                    if problems:
                        result = f"missed by Tier-1, killed by same_bytes: {problems[0]}"
                    else:
                        result, bad = f"**survived** Tier-1 and same_bytes ({compared} files)", bad + 1
                path.write_text(source, encoding="utf-8")
            print(f"| {number} | `{name}` | {reason} | {result} | {time.perf_counter() - began:.1f} |", flush=True)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s: {bad} not applied or survived")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
