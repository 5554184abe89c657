"""Time the library calls of two trees in one process, interleaved: an A/B that host drift cannot bias.

Usage::

    python tools/ab.py [--base REV]

The base tree is ``REV`` (default ``HEAD``, so the working tree's uncommitted
change is what is timed), extracted with ``git archive`` into a temporary
directory. Its ``src/rislink`` is imported as ``rislink_base`` and the working
tree's as ``rislink``, both in this process; every import inside the package is
relative, so the two never mix. Both trees are called through the same
private functions, so the base must have them: ``_build_ris(..., spelled=True)``
exists from the commit that added ``load_cached(..., spelled=True)`` on.

Each workload's inputs come from ``perfbench/workloads.prepare``
(``board_7x2`` seed 7, ``wide_touchstone`` 301 and ``lossy_mid`` 4), and those
of the non-reciprocal export ``board_nonreciprocal`` 11 from
``tools/same_bytes.py``; each is copied into a directory of each tree's own,
so neither tree sees the other's parse cache and nothing is written into the
checkout or under ``perfbench/``. BLAS runs on one thread unless the
environment sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``.

For each call, each round times base and change alternately, ``K`` times each,
and prints the min of each side in ms and their ratio (change / base; below 1
is faster). A ratio that swings around 1 from round to round is noise. Calls:
assembly, the sweep, ``_build_ris`` (a cache hit and a miss for a Touchstone
export, the model's synthesis otherwise), ``_build_patterns`` (a cache hit and
a miss for a pattern table), the Touchstone writer, the optimizer's seed (called
as each tree's signature takes it: the assembled link, or before that the
scenario and ``z0_ohm``) and, where the workload runs ``optimize``, the
optimizer; on ``wide_touchstone`` (N = 128), which never runs it, the optimizer
with one start and with 8. Each miss is timed with the unlink of the cache
entry that forces it.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import inspect
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # the checkout and perfbench/ stay as checked out
sys.path.insert(0, str(ROOT / "perfbench"))

#: (workload, seed) pairs timed.
CASES = [("board_7x2", 7), ("wide_touchstone", 301), ("lossy_mid", 4), ("board_nonreciprocal", 11)]
#: Rounds per workload, and timed runs per side and call within a round.
ROUNDS, K = 3, 15


def base_src(rev: str, into: Path) -> Path:
    """The ``src`` directory of ``rev``, extracted into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src"


def load_package(name: str, src: Path) -> dict:
    """The modules of ``src/rislink``, imported as the package ``name``."""
    init = src / "rislink" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("brcs", "cache", "cli", "farfield", "touchstone")}


def calls(m: dict, wl, work: Path) -> dict:
    """Name -> call for one tree's modules ``m`` on the workload ``wl``, run from ``work``."""
    work.mkdir(parents=True)
    for path in wl.input_files:
        shutil.copy(path, work / path.name)
    cli = m["cli"]
    cfg = cli.read_scenario(work / wl.config.name)
    scn = cfg.scenario
    ris, text = cli._build_ris(cfg, {}, spelled=True)  # a Touchstone export is now cached, with its text
    patterns = cli._build_patterns(cfg, ris, {})  # and so is a pattern table
    full = m["farfield"].assemble_full_matrix(scn, ris, patterns)
    # Each tree's seed is called as its signature takes it: a tree whose seed has ``z0_ohm`` reads the scenario.
    if "z0_ohm" in inspect.signature(cli.phase_gradient_seed).parameters:
        seed_call = functools.partial(cli.phase_gradient_seed, scn, cfg.bounds, cfg.varactor, z0_ohm=ris.z0_ohm)
    else:
        seed_call = functools.partial(cli.phase_gradient_seed, full, cfg.bounds, cfg.varactor)
    seed = seed_call()
    caps = seed if wl.caps_input is None else cli._read_caps_csv(work / wl.caps_input.name, cfg, {})
    alphas = cfg.sweep.alphas_rad()
    doc = m["touchstone"].document_from_matrix(full)
    spelled = None if text is None else (ris.entries, text)
    out = work / f"full.s{full.n_ports}p"
    timed = {
        "assemble_full_matrix": lambda: m["farfield"].assemble_full_matrix(scn, ris, patterns),
        "sweep_rx_angle": lambda: m["brcs"].sweep_rx_angle(scn, ris, patterns, caps, alphas, cfg.varactor),
    }
    if isinstance(cfg.ris, cli.RisFile):
        entry = m["cache"].entry_path(cfg.ris.path)
        timed["_build_ris hit"] = lambda: cli._build_ris(cfg, {})
        # The unlink that forces the miss is timed with it, on both sides alike.
        timed["_build_ris miss"] = lambda: (entry.unlink(missing_ok=True), cli._build_ris(cfg, {}))
    else:
        timed["_build_ris"] = lambda: cli._build_ris(cfg, {})
    if isinstance(cfg.patterns, cli.PatternsFile):
        table_entry = m["cache"].entry_path(cfg.patterns.path)
        timed["_build_patterns hit"] = lambda: cli._build_patterns(cfg, ris, {})
        timed["_build_patterns miss"] = lambda: (table_entry.unlink(missing_ok=True), cli._build_patterns(cfg, ris, {}))
    timed["write_touchstone"] = lambda: cli.write_touchstone(doc, out, spelled)
    timed["phase_gradient_seed"] = seed_call
    if "optimize" in wl.commands:
        opts = cfg.optimizer.replace(initial=seed, seed=wl.cli_seed)
        timed["optimize"] = lambda: cli.optimize(full, cfg.bounds, cfg.varactor, opts)
    elif wl.name == "wide_touchstone":  # N = 128, which the workload itself never optimizes
        for label, starts in (("optimize 1 start", 1), ("optimize 8 starts", 8)):
            opts = cfg.optimizer.replace(initial=seed, seed=wl.cli_seed, starts=starts)
            timed[label] = functools.partial(cli.optimize, full, cfg.bounds, cfg.varactor, opts)
    return timed


def round_min(sides: list, first: int) -> list[float]:
    """Min of ``K`` runs of each side's call, the sides alternating, side ``first`` first; in ms."""
    best = [float("inf")] * len(sides)
    for run in range(K):
        for i in ((first + run) % 2, (first + run + 1) % 2):
            start = time.perf_counter()
            sides[i]()
            best[i] = min(best[i], time.perf_counter() - start)
    return [1e3 * t for t in best]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the revision to compare the working tree with (HEAD)")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy is first imported, below
    from same_bytes import prepare_case

    with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
        trees = [load_package("rislink_base", base_src(args.base, Path(tmp) / "base_tree")),
                 load_package("rislink", ROOT / "src")]
        print(f"min of {K} per side and round, ms: {args.base} -> working tree (ratio)")
        for name, seed in CASES:
            case = f"{name}-{seed}"
            wl = prepare_case(name, seed, Path(tmp) / "inputs" / case)
            sides = [calls(m, wl, Path(tmp) / tree / case) for m, tree in zip(trees, ("base", "work"))]
            print(case)
            for call in sides[1]:
                if call not in sides[0]:
                    print(f"  {call:22s} not in {args.base}")
                    continue
                pair = [side[call] for side in sides]
                for run in pair:  # warm up: first-call costs are not what is compared
                    run()
                cells = []
                for r in range(ROUNDS):
                    base_ms, work_ms = round_min(pair, r % 2)
                    cells.append(f"{base_ms:9.3f} -> {work_ms:9.3f} ({work_ms / base_ms:.3f})")
                print(f"  {call:22s}" + " |".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
