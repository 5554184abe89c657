"""Command-line pipeline: synthesize | optimize | sweep.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/config/parse
problem or a path the OS refuses (any ``OSError``). ``main`` reads the
config and applies the overrides once. Every command writes
manifest.<command>.json next to its outputs, a run's one provenance record
(version, seed, config key/values with the ``--alpha``/``--beta`` values
the run used, SHA-256 of each input file, of the bytes the run parsed, and
outputs), so commands sharing one output directory keep their own; runs
with identical inputs and seed reproduce output files byte-identically
(timestamps live only in the manifests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .brcs import export_csv, flat_reflector_reference, sweep_rx_angle
from .errors import InputError, PatternError, RislinkError, TouchstoneError, decoded
from .farfield import ElementPattern, assemble_full_matrix, synth_ris_matrix
from .loads import LoadVector, _check_caps, load_gammas, optimize, phase_gradient_seed
from .network import ScatterMatrix
from .patterns import load_cached_patterns, parse_pattern_table, store_cached_patterns
from .scenario import (
    PatternsFile,
    PatternsUniform,
    RisFile,
    ScenarioConfig,
    read_scenario,
)
from .touchstone import (document_from_matrix, load_cached, matrix_at_frequency, read_touchstone, store_cached,
                         write_touchstone)

CAPS_HEADER = "m,c_pf,gamma_re,gamma_im"


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    scenario = cfg.scenario
    try:
        if args.alpha is not None:
            scenario = scenario.replace(alpha_rad=math.radians(args.alpha))
        if args.beta is not None:
            scenario = scenario.replace(beta_rad=math.radians(args.beta))
        optimizer = cfg.optimizer if args.seed is None else cfg.optimizer.replace(seed=args.seed)
    except ValueError as exc:
        raise InputError(f"--alpha/--beta/--seed: {exc}") from None
    out_dir = Path(args.out) if args.out is not None else cfg.out_dir
    return cfg._replace(scenario=scenario, out_dir=out_dir, optimizer=optimizer)


def _read(path: Path, name: str, digests: dict[str, str] | None) -> tuple[bytes, str]:
    """The bytes of the input file ``name``, read once, and their SHA-256, which ``digests[name]`` gets too."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digests is not None:
        digests[name] = digest
    return data, digest


def _build_ris(cfg: ScenarioConfig, digests: dict[str, str] | None = None,
               spelled: bool = False) -> ScatterMatrix | tuple[ScatterMatrix, str | None]:
    """The RIS matrix, from the model or from ``ris.file``: read once; its one cached point, else those bytes parsed.

    The file's SHA-256 goes into ``digests["ris"]`` for the manifest. Only a miss decodes the bytes (an error names
    the file if they are not UTF-8); a hit's key is the SHA-256 of bytes that already parsed. A parse is cached only
    once its point is selected, so a run that fails on the port count or the frequency writes no entry; the entry
    also holds that point's text, and then serves the run as it would a warm one. With ``spelled``
    (``cmd_synthesize`` only), the matrix and that text, or None where there is none (a model, or no entry).
    """
    scn = cfg.scenario
    if isinstance(cfg.ris, RisFile):
        path, tol_hz = cfg.ris.path, cfg.ris.freq_tol_hz
        data, digest = _read(path, "ris", digests)
        hit = load_cached(path, digest, scn.freq_hz, tol_hz, scn.element_numbers, spelled=spelled)
        if hit is None:
            doc = read_touchstone(path, decoded(data, TouchstoneError, f"{path}: "))
            if doc.n_ports != len(scn.elements):
                raise InputError(f"{path}: {doc.n_ports} ports for {len(scn.elements)} scenario elements")
            ris = matrix_at_frequency(doc, scn.freq_hz, tol_hz, element_numbers=scn.element_numbers)
            store_cached(path, digest, doc, doc.frequencies_hz.index(ris.freq_hz))
            parsed = (ris, None) if spelled else ris  # what serves the run when no entry could be stored
            hit = load_cached(path, digest, scn.freq_hz, tol_hz, scn.element_numbers, spelled=spelled) or parsed
        return hit
    ris = synth_ris_matrix(scn.elements, scn.freq_hz, cfg.ris.model)
    return (ris, None) if spelled else ris


def _build_patterns(cfg: ScenarioConfig, ris: ScatterMatrix,
                    digests: dict[str, str] | None = None) -> list[ElementPattern]:
    """The element patterns, uniform or from ``patterns.file``: read once, parsed unless cached for its bytes.

    The file's SHA-256 goes into ``digests["patterns"]`` for the manifest; only a miss decodes the bytes.
    """
    scn = cfg.scenario
    if isinstance(cfg.patterns, PatternsFile):
        path = cfg.patterns.path
        data, digest = _read(path, "patterns", digests)
        table = load_cached_patterns(path, digest)
        if table is None:
            table = parse_pattern_table(decoded(data, PatternError, f"{path}: "))
            store_cached_patterns(path, digest, table)
        parsed = {p.index_m: p for p in table}
        missing = [m for m in scn.element_numbers if m not in parsed]
        if missing:
            raise InputError(f"pattern table lacks elements {missing}")
        return [parsed[m] for m in scn.element_numbers]
    assert isinstance(cfg.patterns, PatternsUniform)
    return [
        ElementPattern.isotropic(m, cfg.patterns.gain_lin, s_mm=complex(ris.entries[i, i]))
        for i, m in enumerate(scn.element_numbers)
    ]


def _write_manifest(cfg: ScenarioConfig, args: argparse.Namespace, outputs: list[str], digests: dict[str, str],
                    seed: int | None = None, **extra: str) -> None:
    """Write ``manifest.<command>.json`` into ``cfg.out_dir``; ``extra`` and the angle overrides join the config.

    ``digests`` holds the SHA-256 of the input files the run read; the config and the unread files are hashed here.
    ``--out`` stays out of it, so two runs that differ only in where they write keep equal manifests.
    """
    angles = (("alpha", args.alpha), ("beta", args.beta))
    overrides = {key: f"{value!r} deg" for key, value in angles if value is not None}
    paths = {"config": Path(args.config)}
    if isinstance(cfg.ris, RisFile):
        paths["ris"] = cfg.ris.path
    if isinstance(cfg.patterns, PatternsFile):
        paths["patterns"] = cfg.patterns.path
    hashes = {name: _read(p, name, None)[1] for name, p in paths.items() if name not in digests}
    manifest = {
        "command": args.command,
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "config": {**cfg.raw, **overrides, **extra},
        "input_hashes": {**hashes, **digests},
        "outputs": outputs,
    }
    path = cfg.out_dir / f"manifest.{args.command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_synthesize(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    digests: dict[str, str] = {}
    ris, text = _build_ris(cfg, digests, spelled=True)  # the text of an export's point, cached with its parse
    patterns = _build_patterns(cfg, ris, digests)
    full = assemble_full_matrix(cfg.scenario, ris, patterns)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / f"full.s{full.n_ports}p"
    write_touchstone(document_from_matrix(full), out_path, None if text is None else (ris.entries, text))
    _write_manifest(cfg, args, [out_path.name], digests)
    print(f"wrote {out_path} ({full.n_ports} ports at {full.freq_hz / 1e9:.9g} GHz)")
    return 0


def cmd_optimize(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    scn = cfg.scenario
    digests: dict[str, str] = {}
    ris = _build_ris(cfg, digests)
    patterns = _build_patterns(cfg, ris, digests)
    full = assemble_full_matrix(scn, ris, patterns)

    opts = cfg.optimizer.replace(initial=phase_gradient_seed(full, cfg.bounds, cfg.varactor))
    result = optimize(full, cfg.bounds, cfg.varactor, opts)

    gammas = load_gammas(result.caps, scn.freq_hz, ris.z0_ohm, cfg.varactor)
    lines = [CAPS_HEADER]
    for m, c, g in zip(scn.element_numbers, result.caps.caps_f, gammas.gammas):
        lines.append(f"{m},{c * 1e12:.12g},{g.real:.12g},{g.imag:.12g}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    caps_path = cfg.out_dir / "caps.csv"
    caps_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(cfg, args, [caps_path.name], digests, seed=opts.seed,
                    achieved_objective=f"{result.objective:.12g}")
    print(f"wrote {caps_path} (objective {result.objective:.6g})")
    return 0


def _read_caps_csv(path: Path, cfg: ScenarioConfig, digests: dict[str, str]) -> LoadVector:
    """The capacitances of a ``caps.csv``, checked against the scenario; its SHA-256 goes into ``digests["caps"]``."""
    if not path.is_file():
        raise InputError(f"caps file does not exist: {path}")
    text = decoded(_read(path, "caps", digests)[0], InputError, f"{path}: ")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[0:2] != ["m", "c_pf"]:
        raise InputError(f"{path}: expected header starting with 'm,c_pf'")
    caps_by_m: dict[int, float] = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            m, c_pf = int(cells[0]), float(cells[1])
        except (ValueError, IndexError):
            raise InputError(f"{path}: bad row {ln!r}") from None
        if m in caps_by_m:
            raise InputError(f"{path}: duplicate element {m}")
        caps_by_m[m] = c_pf * 1e-12
    numbers = cfg.scenario.element_numbers
    missing = [m for m in numbers if m not in caps_by_m]
    if missing:
        raise InputError(f"{path}: missing capacitances for elements {missing}")
    unknown = sorted(set(caps_by_m) - set(numbers))
    if unknown:
        raise InputError(f"{path}: capacitances for elements {unknown} the scenario lacks")
    caps_f = [caps_by_m[m] for m in numbers]
    try:
        _check_caps(caps_f, cfg.bounds, numbers)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    return LoadVector.of(caps_f)


def cmd_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> int:
    scn = cfg.scenario
    if cfg.reflector is None:
        raise InputError("sweep needs reflector.width and reflector.height in the config")
    alphas = cfg.sweep.alphas_rad()

    curves = []
    digests: dict[str, str] = {}
    if args.caps is not None:
        caps = _read_caps_csv(Path(args.caps), cfg, digests)
        ris = _build_ris(cfg, digests)
        patterns = _build_patterns(cfg, ris, digests)
        curves.append(sweep_rx_angle(scn, ris, patterns, caps, alphas, model=cfg.varactor))
    curves.append(
        flat_reflector_reference(
            cfg.reflector.width_m, cfg.reflector.height_m, scn.wavelength_m, scn.beta_rad, alphas
        )
    )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "brcs.csv"
    export_csv(curves, out_path)
    _write_manifest(cfg, args, [out_path.name], digests)
    print(f"wrote {out_path} ({len(curves)} curve(s), {alphas.size} angles)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Far-field link synthesis, load optimization and BRCS sweeps for RIS links",
    )
    parser.add_argument("--version", action="version", version=f"rislink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # the arguments every command takes
    common.add_argument("config", help="scenario configuration file")
    common.add_argument("--alpha", type=float, default=None, help="override Rx angle (degrees)")
    common.add_argument("--beta", type=float, default=None, help="override Tx angle (degrees)")
    common.add_argument("--seed", type=int, default=None, help="override optimizer seed")
    common.add_argument("--out", default=None, help="override output directory")

    p_syn = sub.add_parser("synthesize", parents=[common], help="assemble the full link matrix to a Touchstone file")
    p_syn.set_defaults(func=cmd_synthesize)

    p_opt = sub.add_parser("optimize", parents=[common], help="optimize per-element load capacitances")
    p_opt.set_defaults(func=cmd_optimize)

    p_swp = sub.add_parser("sweep", parents=[common], help="BRCS receiver-angle sweep with reflector reference")
    p_swp.add_argument("caps", nargs="?", default=None,
                       help="caps.csv from 'optimize' (omit for reflector-only)")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(_apply_overrides(read_scenario(args.config), args), args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RislinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())
