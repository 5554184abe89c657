"""Command-line pipeline: synthesize | optimize | sweep.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/config/parse
problem. Every command writes a manifest.<command>.json next to its
outputs, so commands sharing one output directory keep their own
provenance; runs with identical inputs and seed reproduce output files
byte-identically (timestamps live only in the manifests).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .brcs import export_csv, flat_reflector_reference, sweep_rx_angle
from .errors import InputError, RislinkError
from .farfield import ElementPattern, assemble_full_matrix, synth_ris_matrix
from .loads import LoadVector, load_gammas, optimize, phase_gradient_seed
from .network import ScatterMatrix
from .patterns import parse_pattern_table
from .scenario import (
    PatternsFile,
    PatternsUniform,
    RisFile,
    ScenarioConfig,
    read_scenario,
)
from .touchstone import document_from_matrix, matrix_at_frequency, read_touchstone, write_touchstone

CAPS_HEADER = "m,c_pf,gamma_re,gamma_im"


@dataclass
class RunManifest:
    """Provenance record written alongside every output."""

    command: str
    version: str
    created_utc: str
    seed: int | None
    config: dict
    input_hashes: dict
    outputs: list[str]

    def write(self, out_dir: Path) -> None:
        """Write ``manifest.<command>.json`` into ``out_dir``."""
        payload = dataclasses.asdict(self)
        path = out_dir / f"manifest.{self.command}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    scenario = cfg.scenario
    try:
        if args.alpha is not None:
            scenario = replace(scenario, alpha_rad=math.radians(args.alpha))
        if args.beta is not None:
            scenario = replace(scenario, beta_rad=math.radians(args.beta))
    except ValueError as exc:
        raise InputError(f"--alpha/--beta: {exc}") from None
    out_dir = Path(args.out) if args.out is not None else cfg.out_dir
    optimizer = cfg.optimizer if args.seed is None else replace(cfg.optimizer, seed=args.seed)
    return replace(cfg, scenario=scenario, out_dir=out_dir, optimizer=optimizer)


def _build_ris(cfg: ScenarioConfig) -> ScatterMatrix:
    scn = cfg.scenario
    if isinstance(cfg.ris, RisFile):
        doc = read_touchstone(cfg.ris.path)
        if doc.n_ports != len(scn.elements):
            raise InputError(f"{cfg.ris.path}: {doc.n_ports} ports for {len(scn.elements)} scenario elements")
        return matrix_at_frequency(
            doc, scn.freq_hz, cfg.ris.freq_tol_hz, element_numbers=scn.element_numbers
        )
    return synth_ris_matrix(scn.elements, scn.freq_hz, cfg.ris.model)


def _build_patterns(cfg: ScenarioConfig, ris: ScatterMatrix) -> list[ElementPattern]:
    scn = cfg.scenario
    if isinstance(cfg.patterns, PatternsFile):
        parsed = {p.index_m: p for p in parse_pattern_table(cfg.patterns.path.read_text(encoding="utf-8"))}
        missing = [m for m in scn.element_numbers if m not in parsed]
        if missing:
            raise InputError(f"pattern table lacks elements {missing}")
        return [parsed[m] for m in scn.element_numbers]
    assert isinstance(cfg.patterns, PatternsUniform)
    return [
        ElementPattern.isotropic(m, cfg.patterns.gain_lin, s_mm=complex(ris.entries[i, i]))
        for i, m in enumerate(scn.element_numbers)
    ]


def _input_hashes(cfg: ScenarioConfig, config_path: Path, extra: dict[str, Path] | None = None) -> dict:
    paths = {"config": config_path}
    if isinstance(cfg.ris, RisFile):
        paths["ris"] = cfg.ris.path
    if isinstance(cfg.patterns, PatternsFile):
        paths["patterns"] = cfg.patterns.path
    paths.update(extra or {})
    return {name: _sha256(path) for name, path in paths.items()}


def _manifest(command: str, cfg: ScenarioConfig, config_path: Path, outputs: list[str],
              seed: int | None, extra_inputs: dict[str, Path] | None = None,
              extra_config: dict | None = None) -> RunManifest:
    config = dict(cfg.raw)
    config.update(extra_config or {})
    return RunManifest(
        command=command,
        version=__version__,
        created_utc=_utc_now(),
        seed=seed,
        config=config,
        input_hashes=_input_hashes(cfg, config_path, extra_inputs),
        outputs=outputs,
    )


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(read_scenario(args.config), args)
    ris = _build_ris(cfg)
    patterns = _build_patterns(cfg, ris)
    full = assemble_full_matrix(cfg.scenario, ris, patterns)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / f"full.s{full.n_ports}p"
    write_touchstone(document_from_matrix(full), out_path)
    _manifest("synthesize", cfg, Path(args.config), [out_path.name], seed=None).write(cfg.out_dir)
    print(f"wrote {out_path} ({full.n_ports} ports at {full.freq_hz / 1e9:.9g} GHz)")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(read_scenario(args.config), args)
    scn = cfg.scenario
    ris = _build_ris(cfg)
    patterns = _build_patterns(cfg, ris)
    full = assemble_full_matrix(scn, ris, patterns)

    seed_vector = phase_gradient_seed(scn, cfg.bounds, cfg.varactor, z0_ohm=ris.z0_ohm)
    opts = replace(cfg.optimizer, initial=seed_vector)
    result = optimize(full, cfg.bounds, cfg.varactor, opts)

    gammas = load_gammas(result.caps, scn.freq_hz, ris.z0_ohm, cfg.varactor)
    lines = [CAPS_HEADER]
    for m, c, g in zip(scn.element_numbers, result.caps.caps_f, gammas.gammas):
        lines.append(f"{m},{c * 1e12:.12g},{g.real:.12g},{g.imag:.12g}")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    caps_path = cfg.out_dir / "caps.csv"
    caps_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _manifest(
        "optimize", cfg, Path(args.config), [caps_path.name], seed=opts.seed,
        extra_config={"achieved_objective": f"{result.objective:.12g}"},
    ).write(cfg.out_dir)
    print(f"wrote {caps_path} (objective {result.objective:.6g})")
    return 0


def _read_caps_csv(path: Path, cfg: ScenarioConfig) -> LoadVector:
    if not path.is_file():
        raise InputError(f"caps file does not exist: {path}")
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
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
    for m in numbers:
        if not cfg.bounds.contains(caps_by_m[m]):
            raise InputError(
                f"{path}: element {m} capacitance {caps_by_m[m] * 1e12:.6g} pF outside configured bounds"
            )
    return LoadVector.of(caps_by_m[m] for m in numbers)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(read_scenario(args.config), args)
    scn = cfg.scenario
    if cfg.reflector is None:
        raise InputError("sweep needs reflector.width and reflector.height in the config")
    alphas = cfg.sweep.alphas_rad()

    curves = []
    extra_inputs: dict[str, Path] = {}
    if args.caps is not None:
        caps = _read_caps_csv(Path(args.caps), cfg)
        extra_inputs["caps"] = Path(args.caps)
        ris = _build_ris(cfg)
        patterns = _build_patterns(cfg, ris)
        curves.append(sweep_rx_angle(scn, ris, patterns, caps, alphas, model=cfg.varactor))
    curves.append(
        flat_reflector_reference(
            cfg.reflector.width_m, cfg.reflector.height_m, scn.wavelength_m, scn.beta_rad, alphas
        )
    )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "brcs.csv"
    export_csv(curves, out_path)
    _manifest("sweep", cfg, Path(args.config), [out_path.name], seed=None,
              extra_inputs=extra_inputs).write(cfg.out_dir)
    print(f"wrote {out_path} ({len(curves)} curve(s), {alphas.size} angles)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Far-field link synthesis, load optimization and BRCS sweeps for RIS links",
    )
    parser.add_argument("--version", action="version", version=f"rislink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="scenario configuration file")
        p.add_argument("--alpha", type=float, default=None, help="override Rx angle (degrees)")
        p.add_argument("--beta", type=float, default=None, help="override Tx angle (degrees)")
        p.add_argument("--seed", type=int, default=None, help="override optimizer seed")
        p.add_argument("--out", default=None, help="override output directory")

    p_syn = sub.add_parser("synthesize", help="assemble the full link matrix to a Touchstone file")
    common(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_opt = sub.add_parser("optimize", help="optimize per-element load capacitances")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_swp = sub.add_parser("sweep", help="BRCS receiver-angle sweep with reflector reference")
    common(p_swp)
    p_swp.add_argument("caps", nargs="?", default=None,
                       help="caps.csv from 'optimize' (omit for reflector-only)")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RislinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())
