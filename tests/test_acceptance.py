"""Acceptance suite: one check per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion, each annotated with its runtime against the stated budget.
"""

import cmath
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    azimuth_to_element,
    brute_force_reduce,
    check_reciprocity,
    coupling_coefficient,
    grid_transfer,
    peak_alpha_rad,
    random_full_link,
    random_reciprocal_passive,
    value_at,
)
from rislink import (
    ElementGeometry,
    ElementPattern,
    ExpDecayCoupling,
    LoadVector,
    OptimizerOptions,
    ReflectionVector,
    ScatterMatrix,
    Scenario,
    SPEED_OF_LIGHT,
    brcs_from_coupling,
    check_passivity,
    assemble_full_matrix,
    dumps_touchstone,
    flat_reflector_reference,
    objective,
    optimize,
    parse_touchstone,
    phase_gradient_seed,
    read_scenario,
    read_touchstone,
    reduce_loaded,
    sweep_rx_angle,
    synth_ris_matrix,
)
from rislink.cli import _build_patterns, _build_ris, main
from test_loads import BOUNDS, link_n1, link_n2

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "sample.s2p"
F_CARRIER = 3.55e9


def _report(num, title, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {title} [{elapsed:.2f}s/{budget:g}s]"
    if detail:
        line += f" - {detail}"
    print(line)


@contextmanager
def criterion(num, title, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        elapsed = time.perf_counter() - started
        _report(num, title, False, elapsed, budget_s, detail=str(exc).splitlines()[0][:140])
        raise
    elapsed = time.perf_counter() - started
    within = elapsed < budget_s
    _report(num, title, within, elapsed, budget_s)
    assert within, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def test_criterion_1_parallel_ray_geometry_limit():
    with criterion(1, "parallel-ray geometry limit", budget_s=1.0):
        xs = (-0.154, -0.077, 0.0, 0.077, 0.154)
        beta = math.radians(30)
        elements = tuple(ElementGeometry(i + 1, x, 0.0) for i, x in enumerate(xs))

        def offsets(r):
            scn = Scenario(r, 0.0, beta, F_CARRIER, 1.0, 1.0, elements)
            return [azimuth_to_element(scn, m, "tx") - beta for m in scn.element_numbers]

        deviations = []
        for r in (2.0, 20.0, 200.0, 2000.0):
            measured = offsets(r)
            for x, offset in zip(xs, measured):
                # gamma - beta = -eps*cos(beta) - eps^2*sin(beta)*cos(beta) + O(eps^3),
                # eps = x_m/R; the second-order coefficient is at most 1/2.
                eps = x / r
                predicted = -eps * math.cos(beta)
                assert abs(offset - predicted) <= 0.5 * eps**2, (
                    f"R={r} m, x_m={x} m: gamma-beta = {offset:.6e} rad, "
                    f"first-order law predicts {predicted:.6e} rad"
                )
            deviations.append(max(map(abs, measured)))
        assert all(a > b for a, b in zip(deviations, deviations[1:])), "not monotone"
        # The 1e-5 rad parallel-ray target is crossed where max|x_m|*cos(beta)/R = 1e-5.
        r_star = max(abs(x) for x in xs) * math.cos(beta) / 1e-5
        assert max(map(abs, offsets(0.98 * r_star))) > 1e-5, f"below 1e-5 rad before R*={r_star:.0f} m"
        assert max(map(abs, offsets(1.02 * r_star))) < 1e-5, f"above 1e-5 rad beyond R*={r_star:.0f} m"


def test_criterion_2_coupling_magnitude_and_phase_law():
    with criterion(2, "coupling magnitude/phase law", budget_s=1.0):
        lam = SPEED_OF_LIGHT / F_CARRIER
        pattern = ElementPattern.isotropic(1, gain_lin=3.0)
        values = {}
        for r in (1.0, 2.0, 4.0):
            scn = Scenario(r, 0.0, math.radians(25), F_CARRIER, 12.589, 12.589,
                           (ElementGeometry(1, 0.0, 0.0),))
            values[r] = coupling_coefficient(scn, pattern, 1, "tx")
        assert abs(values[1.0]) / abs(values[2.0]) == pytest.approx(2.0, rel=1e-12)
        assert abs(values[4.0]) / abs(values[2.0]) == pytest.approx(0.5, rel=1e-12)
        for r, value in values.items():
            expected = -2.0 * math.pi * r / lam
            diff = (cmath.phase(value) - expected + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-10, f"phase error {diff:.2e} rad at d={r}"


@pytest.mark.filterwarnings("ignore::rislink.FarFieldValidityWarning")
def test_criterion_3_assembly_contracts(rng):
    with criterion(3, "full-matrix assembly contracts", budget_s=10.0):
        for trial in range(100):
            n = int(rng.integers(1, 15))
            elements = tuple(
                ElementGeometry(m + 1, float(x), float(z))
                for m, (x, z) in enumerate(
                    zip(rng.uniform(-0.154, 0.154, n), rng.uniform(-0.048, 0.048, n))
                )
            )
            if trial % 2 == 0:
                ris = ScatterMatrix.ris_only(
                    random_reciprocal_passive(rng, n, scale=0.9), F_CARRIER
                )
            else:
                ris = synth_ris_matrix(
                    elements, F_CARRIER,
                    ExpDecayCoupling(complex(rng.uniform(0, 0.8)), float(rng.uniform(0, 0.5)),
                                     float(rng.uniform(0.02, 0.2))),
                )
                # keep the synthetic draw strictly passive (margin for the borders)
                top = np.linalg.svd(ris.entries, compute_uv=False).max()
                if top > 0.9:
                    ris = ScatterMatrix.ris_only(ris.entries * (0.9 / top), F_CARRIER)
            scn = Scenario(2.0, 0.0, math.radians(30), F_CARRIER, 12.589, 12.589, elements)
            patterns = [
                ElementPattern.isotropic(m + 1, float(rng.uniform(0.5, 10.0)),
                                         s_mm=complex(ris.entries[m, m]))
                for m in range(n)
            ]
            full = assemble_full_matrix(scn, ris, patterns)
            assert check_reciprocity(full, tol=1e-12)
            assert check_passivity(full, tol=1e-6)
            assert np.array_equal(full.entries[1 : n + 1, 1 : n + 1], ris.entries)


def test_criterion_4_reduction_matches_brute_force(rng):
    with criterion(4, "loaded-port reduction vs signal-flow solve", budget_s=10.0):
        for _ in range(200):
            full = random_full_link(rng, 3, scale=0.95)
            gammas = np.sqrt(rng.uniform(0, 1, 3)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            reduced = reduce_loaded(full, ReflectionVector.of(gammas))
            oracle = brute_force_reduce(full.entries, (0, 4), (1, 2, 3), gammas)
            err = np.abs(reduced.entries - oracle).max() / np.abs(oracle).max()
            assert err <= 1e-10, f"relative error {err:.2e}"


def test_criterion_5_optimizer_matches_exhaustive_grids():
    with criterion(5, "optimizer vs exhaustive capacitance grids", budget_s=60.0):
        full1 = link_n1()
        grid = np.linspace(BOUNDS.c_min_f, BOUNDS.c_max_f, 100_000)
        grid_best_1 = grid_transfer(full1, grid[:, np.newaxis]).max()
        result_1 = optimize(full1, BOUNDS)
        assert grid_best_1 - result_1.objective <= 1e-6, (
            f"N=1 gap {grid_best_1 - result_1.objective:.2e}"
        )

        full2 = link_n2()
        axis = np.linspace(BOUNDS.c_min_f, BOUNDS.c_max_f, 300)
        c1, c2 = np.meshgrid(axis, axis, indexing="ij")
        grid_best_2 = grid_transfer(full2, np.column_stack((c1.ravel(), c2.ravel()))).max()
        result_2 = optimize(full2, BOUNDS)
        assert grid_best_2 - result_2.objective <= 1e-6, (
            f"N=2 gap {grid_best_2 - result_2.objective:.2e}"
        )


def test_criterion_6_steering_behavior():
    with criterion(6, "optimized 7x2 board steers toward the receiver", budget_s=120.0):
        cfg = read_scenario(REPO / "scenarios" / "board_7x2" / "scenario.cfg")
        scn = cfg.scenario
        assert scn.beta_rad == pytest.approx(math.radians(30))
        assert scn.alpha_rad == 0.0
        ris = _build_ris(cfg)
        patterns = _build_patterns(cfg, ris)
        full = assemble_full_matrix(scn, ris, patterns)

        seed = phase_gradient_seed(full, cfg.bounds)
        opts = OptimizerOptions(initial=seed)
        result = optimize(full, cfg.bounds, opts=opts)

        uniform = LoadVector.uniform(1e-12, len(scn.elements))
        assert result.objective >= objective(full, uniform, cfg.bounds)

        alphas = cfg.sweep.alphas_rad()
        optimized_curve = sweep_rx_angle(scn, ris, patterns, result.caps, alphas)
        uniform_curve = sweep_rx_angle(scn, ris, patterns, uniform, alphas)
        reflector = flat_reflector_reference(
            cfg.reflector.width_m, cfg.reflector.height_m, scn.wavelength_m, scn.beta_rad, alphas
        )

        peak_deg = math.degrees(peak_alpha_rad(optimized_curve))
        assert abs(peak_deg) <= 2.0, f"peak at {peak_deg:.2f} deg"
        at_zero = value_at(optimized_curve, 0.0)
        assert at_zero >= value_at(uniform_curve, 0.0) + 3.0, (
            f"only {at_zero - value_at(uniform_curve, 0.0):.2f} dB above uniform loads"
        )
        assert at_zero > value_at(reflector, 0.0), (
            f"RIS {at_zero:.2f} dBsm vs reflector {value_at(reflector, 0.0):.2f} dBsm"
        )


def test_criterion_7_touchstone_robustness():
    with criterion(7, "Touchstone format robustness", budget_s=1.0):
        mags = np.array([[0.11, 0.12], [0.21, 0.22]])
        degs = np.array([[10.0, 20.0], [30.0, 40.0]])
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        ri_vals = mags * np.exp(1j * np.radians(degs))
        texts = {
            "ma": "# GHz S MA R 50\n1.0 " + " ".join(f"{mags[i, j]} {degs[i, j]}" for i, j in order),
            "ri": "# GHz S RI R 50\n1.0 " + " ".join(
                f"{float(ri_vals[i, j].real)!r} {float(ri_vals[i, j].imag)!r}" for i, j in order
            ),
            "db": "# GHz S DB R 50\n1.0 " + " ".join(
                f"{float(20 * np.log10(mags[i, j]))!r} {degs[i, j]}" for i, j in order
            ),
        }
        parsed = {k: parse_touchstone(t).points[0][1] for k, t in texts.items()}
        for key in ("ri", "db"):
            assert np.abs(parsed[key] - parsed["ma"]).max() <= 1e-9

        doc = read_touchstone(GOLDEN)
        expected = np.array([[0.11 + 0.01j, 0.12 + 0.03j], [0.21 + 0.02j, 0.22 + 0.04j]])
        assert np.array_equal(doc.points[0][1], expected)
        again = parse_touchstone(dumps_touchstone(doc), n_ports=2)
        assert doc.frequencies_hz == again.frequencies_hz
        for (fa, ma), (fb, mb) in zip(doc.points, again.points):
            assert fa == fb and np.array_equal(ma, mb)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "optimize CLI is byte-deterministic for a fixed seed", budget_s=120.0):
        cfg = str(REPO / "scenarios" / "board_7x2" / "scenario.cfg")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["optimize", cfg, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["optimize", cfg, "--seed", "5", "--out", str(out2)]) == 0
        caps1 = (out1 / "caps.csv").read_bytes()
        caps2 = (out2 / "caps.csv").read_bytes()
        assert caps1 == caps2
        assert len(caps1.splitlines()) == 15


def test_criterion_9_brcs_self_consistency(rng):
    with criterion(9, "BRCS radar-equation self-consistency", budget_s=1.0):
        lam = SPEED_OF_LIGHT / F_CARRIER
        for _ in range(100):
            s2 = float(rng.uniform(0, 0.05))
            d_tx, d_rx = (float(v) for v in rng.uniform(0.5, 20.0, 2))
            g_tx, g_rx = (float(v) for v in rng.uniform(1.0, 30.0, 2))
            sigma = brcs_from_coupling(math.sqrt(s2), d_tx, d_rx, g_tx, g_rx, lam)
            back = sigma * g_tx * g_rx * lam**2 / ((4 * math.pi) ** 3 * d_tx**2 * d_rx**2)
            assert back == pytest.approx(s2, rel=1e-12)

        width, height, beta = 0.308, 0.096, math.radians(30)
        curve = flat_reflector_reference(width, height, lam, beta, np.array([beta]))
        closed_form = 4 * math.pi * (width * height * math.cos(beta)) ** 2 / lam**2
        assert 10 ** (curve.sigma_dbsm[0] / 10) == pytest.approx(closed_form, rel=1e-9)
