import math
from pathlib import Path

import numpy as np
import pytest

from conftest import coordinate_terms, grid_transfer, random_full_link, random_passive
from rislink import (
    ElementGeometry,
    LoadBounds,
    LoadVector,
    OptimizerOptions,
    ReflectionVector,
    ScatterMatrix,
    Scenario,
    SPEED_OF_LIGHT,
    UnoptimizableError,
    VaractorModel,
    assemble_full_matrix,
    cap_to_gamma,
    load_gammas,
    objective,
    objective_gradient,
    optimize,
    phase_gradient_seed,
    power_transfer,
    read_scenario,
    reduce_loaded,
)
from rislink import loads
from rislink.cli import _build_patterns, _build_ris

REPO = Path(__file__).resolve().parents[1]
F_CARRIER = 3.55e9
BOUNDS = LoadBounds(0.23e-12, 2.1e-12)
MODELS = (VaractorModel(), VaractorModel(2.0, 0.5e-9))


def link_n1():
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = s[1, 0] = 0.35 * np.exp(1j * 0.7)
    s[1, 2] = s[2, 1] = 0.4 * np.exp(-1j * 1.2)
    s[1, 1] = 0.45 * np.exp(1j * 2.1)
    return ScatterMatrix.full_link(s, F_CARRIER, [1])


def link_n2():
    """Two coupled loaded ports with an interior-capacitance optimum."""
    ph = (-0.1209, -2.5554, 0.2937, 2.6479, 0.3954, 1.5325)
    s = np.zeros((4, 4), dtype=complex)
    s[0, 1] = s[1, 0] = 0.3 * np.exp(1j * ph[0])
    s[0, 2] = s[2, 0] = 0.25 * np.exp(1j * ph[1])
    s[3, 1] = s[1, 3] = 0.35 * np.exp(1j * ph[2])
    s[3, 2] = s[2, 3] = 0.3 * np.exp(1j * ph[3])
    s[1, 1] = 0.3 * np.exp(1j * ph[4])
    s[2, 2] = 0.25 * np.exp(1j * ph[5])
    s[1, 2] = s[2, 1] = 0.15 * np.exp(1j * 0.3)
    return ScatterMatrix.full_link(s, F_CARRIER, [1, 2])


class TestCapToGamma:
    def test_ideal_load_is_unit_magnitude(self):
        for c_pf in (0.23, 0.5, 1.0, 1.7, 2.1):
            g = cap_to_gamma(c_pf * 1e-12, F_CARRIER)
            assert abs(g) == pytest.approx(1.0, abs=1e-12)

    def test_large_capacitance_approaches_short(self):
        assert cap_to_gamma(1.0, F_CARRIER) == pytest.approx(-1.0, abs=1e-9)

    def test_one_picofarad_oracle(self):
        # Hand oracle: X = -1/(2 pi f C), gamma via the bilinear map.
        w = 2 * math.pi * F_CARRIER
        x = -1.0 / (w * 1e-12)
        oracle = (1j * x - 50) / (1j * x + 50)
        assert x == pytest.approx(-44.83237833574517, rel=1e-12)
        g = cap_to_gamma(1e-12, F_CARRIER, 50.0)
        assert g == pytest.approx(oracle, rel=1e-12)
        assert g == pytest.approx(-0.10866167164928699 - 0.9940787901944104j, rel=1e-12)
        assert math.degrees(np.angle(g)) == pytest.approx(-96.23817255703982, rel=1e-9)

    def test_phase_monotone_decreasing_in_capacitance(self):
        caps = np.linspace(0.23e-12, 2.1e-12, 200)
        phases = [np.angle(cap_to_gamma(c, F_CARRIER)) for c in caps]
        assert all(a > b for a, b in zip(phases, phases[1:]))

    def test_parasitic_resistance_gives_lossy_load(self):
        lossy = VaractorModel(series_resistance_ohm=2.0)
        assert abs(cap_to_gamma(1e-12, F_CARRIER, model=lossy)) < 1.0

    def test_series_inductance_shifts_reactance(self):
        w = 2 * math.pi * F_CARRIER
        model = VaractorModel(series_inductance_h=1e-9)
        g = cap_to_gamma(1e-12, F_CARRIER, model=model)
        x = w * 1e-9 - 1.0 / (w * 1e-12)
        assert g == pytest.approx((1j * x - 50) / (1j * x + 50), rel=1e-12)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            cap_to_gamma(0.0, F_CARRIER)


class TestObjective:
    def test_zero_tx_coupling_gives_zero_everywhere(self):
        s = np.zeros((3, 3), dtype=complex)
        s[1, 2] = s[2, 1] = 0.4
        full = ScatterMatrix.full_link(s, F_CARRIER, [1])
        for c_pf in (0.3, 1.0, 2.0):
            assert objective(full, LoadVector.of([c_pf * 1e-12]), BOUNDS) == 0.0

    def test_matches_reduction_composition_bit_exactly(self):
        full = link_n2()
        for caps in ([0.3e-12, 1.5e-12], [1.0e-12, 1.0e-12]):
            vec = LoadVector.of(caps)
            gammas = load_gammas(vec, full.freq_hz, full.z0_ohm)
            direct = power_transfer(reduce_loaded(full, gammas))
            assert objective(full, vec, BOUNDS) == direct

    def test_invariant_under_global_tx_coupling_phase(self):
        full = link_n2()
        base = objective(full, LoadVector.of([0.7e-12, 1.1e-12]), BOUNDS)
        rotated = np.array(full.entries, copy=True)
        phase = np.exp(1j * 1.2345)
        rotated[0, 1:3] *= phase
        rotated[1:3, 0] *= phase
        spun = ScatterMatrix.full_link(rotated, F_CARRIER, [1, 2])
        assert objective(spun, LoadVector.of([0.7e-12, 1.1e-12]), BOUNDS) == pytest.approx(
            base, rel=1e-12
        )

    def test_rejects_caps_outside_bounds(self):
        with pytest.raises(ValueError, match="outside bounds"):
            objective(link_n1(), LoadVector.of([3e-12]), BOUNDS)


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        entries = random_passive(rng, 5, scale=0.95)
        full = ScatterMatrix.full_link(entries, F_CARRIER, [1, 2, 3])
        for _ in range(20):
            c = rng.uniform(0.3e-12, 2.0e-12, 3)
            grad = objective_gradient(full, LoadVector.of(c), BOUNDS)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            step = 1e-6 * c * direction
            up = objective(full, LoadVector.of(c + step), BOUNDS)
            down = objective(full, LoadVector.of(c - step), BOUNDS)
            fd = 0.5 * (up - down)
            analytic = float(grad @ step)
            assert analytic == pytest.approx(fd, rel=1e-4)


class TestPhaseGradientSeed:
    def scenario(self, elements, r_m=2.0):
        return Scenario(r_m, 0.0, 0.0, F_CARRIER, 1.0, 1.0, tuple(elements))

    def test_equidistant_elements_get_uniform_seed(self):
        scn = self.scenario([ElementGeometry(1, -0.05, 0.0), ElementGeometry(2, 0.05, 0.0)])
        seed = phase_gradient_seed(scn, BOUNDS)
        assert seed.caps_f[0] == seed.caps_f[1]

    def test_half_wavelength_path_difference_gives_opposed_phases(self):
        # Wide bounds make ~pi of reflection phase reachable; path targets
        # land on opposite ends of the achievable window.
        lam = SPEED_OF_LIGHT / F_CARRIER
        r = 25 * lam
        z2 = math.sqrt((r + lam / 4) ** 2 - r**2)
        scn = self.scenario([ElementGeometry(1, 0.0, 0.0), ElementGeometry(2, 0.0, z2)], r_m=r)
        wide = LoadBounds(0.01e-12, 100e-12)
        seed = phase_gradient_seed(scn, wide)
        phases = [np.angle(cap_to_gamma(c, F_CARRIER)) for c in seed.caps_f]
        separation = abs(math.atan2(math.sin(phases[0] - phases[1]), math.cos(phases[0] - phases[1])))
        assert separation == pytest.approx(math.pi, abs=0.05)

    def test_seed_always_within_bounds(self, rng):
        for _ in range(20):
            elements = [
                ElementGeometry(m + 1, x, z)
                for m, (x, z) in enumerate(zip(rng.uniform(-0.15, 0.15, 6), rng.uniform(-0.05, 0.05, 6)))
            ]
            scn = Scenario(
                float(rng.uniform(0.5, 10)),
                float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-1.0, 1.0)),
                F_CARRIER, 1.0, 1.0, tuple(elements),
            )
            seed = phase_gradient_seed(scn, BOUNDS)
            assert all(BOUNDS.c_min_f <= c <= BOUNDS.c_max_f for c in seed.caps_f)

    def test_interior_target_is_inverted_exactly(self):
        # An in-window target must map to a capacitance whose reflection
        # phase reproduces the round-trip path phase.
        lam = SPEED_OF_LIGHT / F_CARRIER
        target = -1.5  # rad, inside the achievable window for these bounds
        path = (target / (2 * math.pi) + 40) * lam
        scn = self.scenario([ElementGeometry(1, 0.0, 0.0)], r_m=path / 2)
        seed = phase_gradient_seed(scn, BOUNDS)
        phase = float(np.angle(cap_to_gamma(seed.caps_f[0], F_CARRIER)))
        assert phase == pytest.approx(target, abs=1e-9)


class TestOptimize:
    def test_n1_matches_exhaustive_grid(self):
        full = link_n1()
        grid = np.linspace(BOUNDS.c_min_f, BOUNDS.c_max_f, 100_000)
        grid_best = grid_transfer(full, grid[:, np.newaxis]).max()
        result = optimize(full, BOUNDS)
        assert grid_best - result.objective <= 1e-8

    def test_grid_point_evaluation_is_bit_exact(self):
        full = link_n1()
        c = 1.234e-12
        vec = LoadVector.of([c])
        assert objective(full, vec, BOUNDS) == power_transfer(
            reduce_loaded(full, load_gammas(vec, full.freq_hz, full.z0_ohm))
        )

    def test_n2_matches_exhaustive_grid(self):
        full = link_n2()
        axis = np.linspace(BOUNDS.c_min_f, BOUNDS.c_max_f, 300)
        c1, c2 = np.meshgrid(axis, axis, indexing="ij")
        grid_best = grid_transfer(full, np.column_stack((c1.ravel(), c2.ravel()))).max()
        result = optimize(full, BOUNDS)
        assert grid_best - result.objective <= 1e-6

    def test_reproducible_bit_for_bit(self):
        opts = OptimizerOptions(starts=4, seed=11)
        a = optimize(link_n2(), BOUNDS, opts=opts)
        b = optimize(link_n2(), BOUNDS, opts=opts)
        assert a.caps.caps_f == b.caps.caps_f
        assert a.objective == b.objective

    def test_result_within_bounds(self):
        result = optimize(link_n2(), BOUNDS, opts=OptimizerOptions(starts=3, seed=0))
        for c in result.caps.caps_f:
            assert BOUNDS.c_min_f <= c <= BOUNDS.c_max_f

    def test_result_beats_every_start_point(self):
        result = optimize(link_n2(), BOUNDS, opts=OptimizerOptions(starts=6, seed=7))
        for trace in result.trace:
            assert result.objective >= trace.best_history[0]
            assert result.objective >= trace.best_objective or math.isclose(
                result.objective, trace.best_objective
            )

    def test_trace_best_history_is_monotone(self):
        result = optimize(link_n2(), BOUNDS, opts=OptimizerOptions(starts=3, seed=5))
        for trace in result.trace:
            history = trace.best_history
            assert all(a <= b for a, b in zip(history, history[1:]))
            assert trace.n_evals == len(history)

    def test_initial_seed_becomes_first_start(self):
        initial = LoadVector.of([0.5e-12, 1.5e-12])
        opts = OptimizerOptions(starts=2, seed=0, initial=initial)
        result = optimize(link_n2(), BOUNDS, opts=opts)
        assert result.trace[0].initial_pf == pytest.approx((0.5, 1.5))

    def test_zero_coupling_is_unoptimizable(self):
        s = np.zeros((3, 3), dtype=complex)
        s[1, 2] = s[2, 1] = 0.4  # Rx coupled, Tx dead
        full = ScatterMatrix.full_link(s, F_CARRIER, [1])
        with pytest.raises(UnoptimizableError, match="no Tx or Rx coupling"):
            optimize(full, BOUNDS)


class TestCoordinateAscent:
    def test_grid_oracle_matches_objective(self, rng):
        for case in range(40):
            n = 1 + case % 8
            full = random_full_link(rng, n)
            model = MODELS[case % 2]
            caps = rng.uniform(BOUNDS.c_min_f, BOUNDS.c_max_f, (5, n))
            for row, value in zip(caps, grid_transfer(full, caps, model)):
                assert value == pytest.approx(objective(full, LoadVector.of(row), BOUNDS, model), rel=1e-12)

    def test_coordinate_maximum_beats_dense_grid(self, rng):
        grid = np.linspace(BOUNDS.c_min_f, BOUNDS.c_max_f, 20_001)
        for case in range(32):
            n = 1 + case % 8
            full = random_full_link(rng, n)
            model = MODELS[case // 8 % 2]
            caps = rng.uniform(BOUNDS.c_min_f, BOUNDS.c_max_f, n)
            k = int(rng.integers(n))
            stepped = caps.copy()
            terms = coordinate_terms(full.kernel, full.kernel.gammas(caps, model), k)
            stepped[k], _ = loads._coordinate_max(terms, full.kernel, BOUNDS, model)
            assert BOUNDS.c_min_f <= stepped[k] <= BOUNDS.c_max_f
            rows = np.repeat(caps[np.newaxis], grid.size, axis=0)
            rows[:, k] = grid
            grid_best = grid_transfer(full, rows, model).max()
            assert objective(full, LoadVector.of(stepped), BOUNDS, model) >= grid_best * (1 - 1e-12), case

    def test_objective_is_bitwise_objective_of_caps(self, rng):
        for seed, model in enumerate(MODELS):
            for full in (link_n2(), random_full_link(rng, 6)):
                result = optimize(full, BOUNDS, model, OptimizerOptions(starts=3, seed=seed))
                assert result.objective == objective(full, result.caps, BOUNDS, model)

    def test_step_that_lowers_the_best_is_not_taken(self, monkeypatch):
        full = link_n2()
        optimum = optimize(full, BOUNDS)
        assert all(BOUNDS.c_min_f < c < BOUNDS.c_max_f for c in optimum.caps.caps_f)
        g_min = cap_to_gamma(BOUNDS.c_min_f, full.freq_hz, full.z0_ohm)

        def to_c_min(terms, *args):
            a, b, c = terms
            return BOUNDS.c_min_f, abs(a + b * g_min / (1 - c * g_min)) ** 2

        monkeypatch.setattr(loads, "_coordinate_max", to_c_min)
        again = optimize(full, BOUNDS, opts=OptimizerOptions(starts=1, initial=optimum.caps))
        trace = again.trace[0]
        assert trace.best_history == (trace.best_history[0],) * 3
        assert again.objective == pytest.approx(optimum.objective, rel=1e-12)
        assert again.caps.caps_f == pytest.approx(optimum.caps.caps_f, rel=1e-12)

    def test_max_evals_caps_every_start(self, rng):
        opts = OptimizerOptions(starts=4, max_evals=10, seed=1)
        result = optimize(random_full_link(rng, 8), BOUNDS, opts=opts)
        for trace in result.trace:
            history = trace.best_history
            assert trace.n_evals == len(history) <= 10
            assert all(a <= b for a, b in zip(history, history[1:]))
        assert any(trace.n_evals == 10 for trace in result.trace)

    @pytest.mark.parametrize("max_evals", [2000, 10])
    def test_one_factorization_per_pass(self, rng, monkeypatch, max_evals):
        full = random_full_link(rng, 6)
        assert not full.kernel.checks_conditioning
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or solve(*args))
        result = optimize(full, BOUNDS, opts=OptimizerOptions(starts=3, max_evals=max_evals, seed=4))
        assert len(solves) == sum(trace.n_solves for trace in result.trace)
        for trace in result.trace:
            assert trace.n_solves == trace.n_passes + 2
            assert trace.n_passes == -(-(trace.n_evals - 1) // 6)

    # Best objectives of the earlier Nelder-Mead and golden-section search on the same inputs.
    BOARD_PREVIOUS = {7: 1.5730685693420016e-05, 3: 1.5730737174230794e-05}

    @pytest.mark.parametrize("seed", BOARD_PREVIOUS)
    def test_board_not_below_previous_optimizer(self, seed):
        cfg = read_scenario(REPO / "scenarios" / "board_7x2" / "scenario.cfg")
        ris = _build_ris(cfg)
        full = assemble_full_matrix(cfg.scenario, ris, _build_patterns(cfg, ris))
        initial = phase_gradient_seed(cfg.scenario, cfg.bounds, cfg.varactor)
        opts = OptimizerOptions(cfg.optimizer.starts, cfg.optimizer.max_evals, seed, initial)
        assert optimize(full, cfg.bounds, cfg.varactor, opts).objective >= self.BOARD_PREVIOUS[seed]


class TestLoadTypes:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            LoadBounds(2e-12, 1e-12)
        with pytest.raises(ValueError):
            LoadBounds(0.0, 1e-12)

    def test_load_vector_validation(self):
        with pytest.raises(ValueError):
            LoadVector.of([0.0])
        with pytest.raises(ValueError):
            LoadVector.of([float("nan")])

    def test_optimizer_options_replace_checks_again(self):
        opts = OptimizerOptions(starts=3, seed=5)
        assert vars(opts.replace(seed=6)) == {"starts": 3, "max_evals": 2000, "seed": 6, "initial": None}
        with pytest.raises(ValueError, match="seed"):
            opts.replace(seed=-1)

    def test_reflection_vector_from_loads(self):
        gammas = load_gammas(LoadVector.uniform(1e-12, 3), F_CARRIER)
        assert isinstance(gammas, ReflectionVector)
        assert len(gammas) == 3
