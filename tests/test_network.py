import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_reduce, check_reciprocity, random_full_link, random_passive
from rislink import (
    IDEAL_VARACTOR,
    IllConditionedLoadError,
    LoadBounds,
    LoadVector,
    OptimizerOptions,
    ReflectionVector,
    ScatterMatrix,
    VaractorModel,
    cap_to_gamma,
    check_passivity,
    load_gammas,
    objective,
    objective_gradient,
    optimize,
    reduce_loaded,
)
from rislink.network import GAMMA_SLACK, RCOND_LIMIT, _passive_cond_bound

BOUNDS = LoadBounds(0.23e-12, 2.1e-12)


def three_port_link():
    """Tx - one loaded port - Rx with S_ii = 0.2 and couplings 0.5 / 0.4."""
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = s[1, 0] = 0.5
    s[1, 2] = s[2, 1] = 0.4
    s[1, 1] = 0.2
    return ScatterMatrix.full_link(s, 3.55e9, [1])


class TestScatterMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ScatterMatrix(np.zeros((2, 3)), 1e9, ())

    def test_rejects_element_count_mismatch(self):
        # P - N must be 0 (RIS-only) or 2 (link).
        for numbers in ((), (1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="element numbers for a 3-port matrix"):
                ScatterMatrix(np.zeros((3, 3)), 1e9, numbers)
        with pytest.raises(ValueError, match="RIS-only"):
            ScatterMatrix.ris_only(np.zeros((3, 3)), 1e9, (1,))
        with pytest.raises(ValueError, match="Tx and an Rx port"):
            ScatterMatrix.full_link(np.zeros((2, 2)), 1e9, (1, 2))

    def test_rejects_element_number_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            ScatterMatrix(np.zeros((3, 3)), 1e9, (0,))
        with pytest.raises(ValueError, match=">= 1"):
            ScatterMatrix.ris_only(np.zeros((2, 2)), 1e9, (-1, 2))

    def test_rejects_duplicate_element(self):
        with pytest.raises(ValueError, match="unique"):
            ScatterMatrix(np.zeros((2, 2)), 1e9, (3, 3))
        with pytest.raises(ValueError, match="unique"):
            ScatterMatrix.full_link(np.zeros((4, 4)), 1e9, (3, 3))

    def test_rejects_nonpositive_frequency_and_impedance(self):
        with pytest.raises(ValueError, match="freq"):
            ScatterMatrix(np.zeros((1, 1)), 0.0, (1,))
        with pytest.raises(ValueError, match="z0"):
            ScatterMatrix(np.zeros((1, 1)), 1e9, (1,), z0_ohm=-50)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_frequency_and_impedance_by_name(self, value):
        with pytest.raises(ValueError, match=f"^freq_hz must be positive and finite, got {value}$"):
            ScatterMatrix.ris_only(0.2 * np.eye(2), value)
        with pytest.raises(ValueError, match=f"^z0_ohm must be positive and finite, got {value}$"):
            ScatterMatrix.ris_only(0.2 * np.eye(2), 3.55e9, z0_ohm=value)

    def test_entries_are_locked(self):
        sm = ScatterMatrix(np.zeros((2, 2)), 1e9, ())
        with pytest.raises(ValueError):
            sm.entries[0, 0] = 1.0

    def test_port_bookkeeping(self):
        sm = random_full_link(np.random.default_rng(0), 3)
        assert sm.tx_index == 0
        assert sm.rx_index == 4
        assert sm.ris_indices == (1, 2, 3)
        assert sm.element_numbers == (1, 2, 3)
        assert not sm.is_ris_only
        ris = ScatterMatrix.ris_only(np.zeros((2, 2)), 1e9, (7, 3))
        assert ris.is_ris_only
        assert ris.ris_indices == (0, 1)
        assert ris.element_numbers == (7, 3)
        with pytest.raises(ValueError, match="no Tx port"):
            ris.tx_index
        with pytest.raises(ValueError, match="no Rx port"):
            ris.rx_index


class TestReflectionVector:
    def test_unit_magnitude_accepted(self):
        ReflectionVector.of([np.exp(1j * 0.3), -1.0, 1.0])

    def test_active_load_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            ReflectionVector.of([1.001])


class TestReduceLoaded:
    def test_zero_loads_return_external_submatrix_exactly(self, rng):
        full = random_full_link(rng, 4)
        reduced = reduce_loaded(full, ReflectionVector.of([0.0] * 4))
        expected = full.entries[np.ix_((0, 5), (0, 5))]
        assert np.array_equal(reduced.entries, expected)
        assert reduced.element_numbers == ()
        assert (reduced.tx_index, reduced.rx_index) == (0, 1)

    def test_single_loaded_port_scalar_oracle(self):
        # Direct scalar evaluation of the reduction chain.
        gamma = 0.9
        expected = 0.5 * gamma * (1.0 / (1.0 - 0.2 * gamma)) * 0.4
        assert expected == pytest.approx(0.21951219512195125, rel=1e-12)
        reduced = reduce_loaded(three_port_link(), ReflectionVector.of([gamma]))
        assert reduced.entries[1, 0] == pytest.approx(expected, rel=1e-12)
        assert reduced.entries[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_single_loaded_port_matches_signal_flow_solve(self):
        full = three_port_link()
        reduced = reduce_loaded(full, ReflectionVector.of([0.9]))
        oracle = brute_force_reduce(full.entries, (0, 2), (1,), [0.9])
        np.testing.assert_allclose(reduced.entries, oracle, rtol=1e-12, atol=1e-15)

    def test_symmetric_input_gives_symmetric_output(self, rng):
        for _ in range(20):
            entries = random_passive(rng, 6, scale=0.9)
            entries = 0.5 * (entries + entries.T)
            full = ScatterMatrix.full_link(entries, 1e9, range(1, 5))
            gammas = rng.uniform(0.1, 1.0, 4) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
            reduced = reduce_loaded(full, ReflectionVector.of(gammas))
            asym = np.abs(reduced.entries - reduced.entries.T).max()
            assert asym <= 1e-12 * np.abs(reduced.entries).max()

    def test_matches_brute_force_on_random_passive_five_ports(self, rng):
        for _ in range(200):
            full = random_full_link(rng, 3)
            gammas = np.sqrt(rng.uniform(0, 1, 3)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
            reduced = reduce_loaded(full, ReflectionVector.of(gammas))
            oracle = brute_force_reduce(full.entries, (0, 4), (1, 2, 3), gammas)
            err = np.abs(reduced.entries - oracle).max() / np.abs(oracle).max()
            assert err <= 1e-10

    def test_singular_loading_raises_with_condition_number(self):
        s = np.zeros((3, 3), dtype=complex)
        s[1, 1] = 1.0
        full = ScatterMatrix.full_link(s, 1e9, [1])
        with pytest.raises(IllConditionedLoadError, match="condition number"):
            reduce_loaded(full, ReflectionVector.of([1.0]))

    def test_load_count_mismatch(self):
        with pytest.raises(ValueError, match="loads"):
            reduce_loaded(three_port_link(), ReflectionVector.of([0.1, 0.1]))


class TestLinkKernel:
    MODELS = (IDEAL_VARACTOR, VaractorModel(2.0, 0.5e-9))

    def test_network_imports_nothing_from_loads(self):
        # The kernel takes reflection coefficients; the load law lives in loads.VaractorModel alone.
        source = Path(__file__).resolve().parents[1] / "src" / "rislink" / "network.py"
        modules = set()
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        assert not any("loads" in name.split(".") for name in modules), modules

    def test_vectorized_gamma_is_bitwise_cap_to_gamma(self):
        full = three_port_link()
        caps = np.concatenate([np.geomspace(1e-15, 1e-9, 4001), np.linspace(0.23e-12, 2.1e-12, 2001)])
        for model in self.MODELS:
            vectorized = model.gammas(caps, full.freq_hz, full.z0_ohm)
            scalar = np.array([cap_to_gamma(c, full.freq_hz, full.z0_ohm, model) for c in caps])
            assert np.array_equal(vectorized.view(np.float64), scalar.view(np.float64)), model

    def test_transfer_is_bitwise_reduce_loaded(self, rng):
        for k in range(100):
            n = int(rng.integers(1, 16))
            full = random_full_link(rng, n)
            caps = rng.uniform(0.23e-12, 2.1e-12, n)
            model = self.MODELS[k % 2]
            gammas = load_gammas(LoadVector.of(caps), full.freq_hz, full.z0_ohm, model)
            reduced = reduce_loaded(full, gammas).entries[1, 0]
            assert objective(full, LoadVector.of(caps), BOUNDS, model) == abs(reduced) ** 2
            assert full.kernel.transfer(gammas.as_array) == abs(reduced) ** 2

    def test_gradient_matches_central_differences(self, rng):
        for k in range(20):
            full = random_full_link(rng, 4)
            model = self.MODELS[k % 2]
            caps = rng.uniform(0.3e-12, 2.0e-12, 4)
            direction = rng.standard_normal(4)
            step = 1e-6 * caps * direction / np.linalg.norm(direction)
            up = objective(full, LoadVector.of(caps + step), BOUNDS, model)
            down = objective(full, LoadVector.of(caps - step), BOUNDS, model)
            analytic = float(objective_gradient(full, LoadVector.of(caps), BOUNDS, model) @ step)
            assert analytic == pytest.approx(0.5 * (up - down), rel=1e-4)

    def test_passive_s_ii_skips_the_per_evaluation_check(self, rng):
        for _ in range(20):
            full = random_full_link(rng, 6, scale=0.95)
            kernel = full.kernel
            assert np.linalg.norm(kernel.s_ii, 2) < 1.0
            assert not kernel.checks_conditioning
            assert kernel.cond_bound < 0.5 / RCOND_LIMIT
            for _ in range(10):
                gam = np.sqrt(rng.uniform(0, 1, 6)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
                system = np.eye(6) - kernel.s_ii * gam[np.newaxis, :]
                assert np.linalg.cond(system) <= kernel.cond_bound * (1 + 1e-12)

    def test_cheap_bound_decides_as_the_svd_does_and_bounds_cond(self, rng):
        """The O(N^2) bound stands in for the SVD only where it clears: the decision stays the SVD's."""
        limit = 0.5 / RCOND_LIMIT
        resonant = np.diag([np.conj(cap_to_gamma(1e-12, 3.55e9)), 0.2])  # |S_11| = 1, as in the fixture below
        cases = [resonant, np.zeros((3, 3)), np.diag([1 - 1e-11, 0.5]), np.diag([1 - 1e-12, 0.5])]
        for n in (1, 2, 6, 24):
            for scale in (0.3, 0.9, 0.999, 1 - 1e-11, 1 - 1e-12, 1.0):
                cases.append(random_passive(rng, n, scale))
                unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
                cases.append(scale * unitary)  # near-lossless: every singular value at ``scale``
        decisions = set()
        for s_ii in cases:
            s = float(np.linalg.norm(s_ii, 2)) * (1.0 + GAMMA_SLACK)
            exact = (1.0 + s) / (1.0 - s) if s < 1.0 else np.inf
            bound = _passive_cond_bound(s_ii)
            assert (bound >= limit) == (exact >= limit)
            decisions.add((bound >= limit, bound == exact))
            n = len(s_ii)
            for _ in range(5):
                gam = np.exp(1j * rng.uniform(-np.pi, np.pi, n)) * rng.choice([1.0, rng.uniform()], n)
                assert np.linalg.cond(np.eye(n) - s_ii * gam[np.newaxis, :]) <= bound * (1 + 1e-12)
        assert {(False, False), (True, True)} <= decisions  # the cheap bound served, and the SVD decided

    def test_non_passive_s_ii_still_raises_through_optimize(self):
        bounds = LoadBounds(0.23e-12, 2.1e-12)
        c0 = 1e-12
        s = np.zeros((4, 4), dtype=complex)
        s[0, 1] = s[1, 0] = s[0, 2] = s[2, 0] = 0.3
        s[3, 1] = s[1, 3] = s[3, 2] = s[2, 3] = 0.3
        s[1, 1] = np.conj(cap_to_gamma(c0, 3.55e9))  # |S_11| = 1: port 1 resonates at c0
        s[2, 2] = 0.2
        full = ScatterMatrix.full_link(s, 3.55e9, [1, 2])
        assert full.kernel.checks_conditioning
        opts = OptimizerOptions(starts=1, initial=LoadVector.of([c0, c0]))
        with pytest.raises(IllConditionedLoadError, match="condition number"):
            optimize(full, bounds, opts=opts)
        with pytest.raises(IllConditionedLoadError, match="condition number"):
            objective_gradient(full, LoadVector.of([c0, c0]), bounds)

    def test_non_passive_s_ii_raises_at_the_step_whose_held_system_is_singular(self):
        # |S_22| = 1 resonates with load 2 at c0; port 1 couples to it, so the
        # start point is regular but matching load 1 for its step is not.
        bounds = LoadBounds(0.23e-12, 2.1e-12)
        c0 = 1e-12
        s = np.zeros((4, 4), dtype=complex)
        s[0, 1] = s[1, 0] = s[0, 2] = s[2, 0] = 0.3
        s[3, 1] = s[1, 3] = s[3, 2] = s[2, 3] = 0.3
        s[1, 2] = s[2, 1] = 0.3
        s[1, 1] = 0.2
        s[2, 2] = np.conj(cap_to_gamma(c0, 3.55e9))
        full = ScatterMatrix.full_link(s, 3.55e9, [1, 2])
        assert full.kernel.checks_conditioning
        start = LoadVector.of([c0, c0])
        objective(full, start, bounds)
        with pytest.raises(IllConditionedLoadError, match="condition number"):
            optimize(full, bounds, opts=OptimizerOptions(starts=1, initial=start))


class TestPowerTransfer:
    """|S_RxTx|^2 through the kernel: ``full.kernel.transfer(gammas)``."""

    NO_LOADS = np.zeros(0, dtype=complex)

    def test_zero_coupling(self):
        reduced = ScatterMatrix(np.zeros((2, 2)), 1e9, ())
        assert reduced.kernel.transfer(self.NO_LOADS) == 0.0

    def test_magnitude_squared_is_phase_independent(self):
        entries = np.zeros((2, 2), dtype=complex)
        entries[1, 0] = 0.1 * np.exp(1j * np.pi / 3)
        reduced = ScatterMatrix(entries, 1e9, ())
        assert reduced.kernel.transfer(self.NO_LOADS) == pytest.approx(0.01, rel=1e-12)

    def test_composition_with_reduction(self):
        full, loads = three_port_link(), ReflectionVector.of([0.9])
        reduced = reduce_loaded(full, loads)
        assert reduced.kernel.transfer(self.NO_LOADS) == full.kernel.transfer(loads.as_array)
        assert full.kernel.transfer(loads.as_array) == pytest.approx(0.048185603807257595, rel=1e-12)

    def test_unit_interval_for_passive_network_and_loads(self, rng):
        for _ in range(50):
            full = random_full_link(rng, 4, scale=0.95)
            gammas = np.sqrt(rng.uniform(0, 1, 4)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
            value = full.kernel.transfer(ReflectionVector.of(gammas).as_array)
            assert 0.0 <= value <= 1.0


class TestChecks:
    def test_passivity_trivial_cases(self):
        zero = ScatterMatrix.ris_only(np.zeros((3, 3)), 1e9)
        assert check_passivity(zero)
        identity = ScatterMatrix.ris_only(np.eye(3), 1e9)
        assert check_passivity(identity, tol=1e-9)
        hot = np.zeros((3, 3))
        hot[0, 1] = 1.5
        assert not check_passivity(ScatterMatrix.ris_only(hot, 1e9), tol=0.4)

    def test_reciprocity_cases(self):
        diag = ScatterMatrix.ris_only(np.diag([0.1, 0.5 + 0.2j]), 1e9, [1, 2])
        assert check_reciprocity(diag, tol=0.0)
        lop = np.array([[0.0, 0.3], [0.2, 0.0]], dtype=complex)
        assert not check_reciprocity(ScatterMatrix.ris_only(lop, 1e9), tol=0.05)
        assert check_reciprocity(ScatterMatrix.ris_only(lop, 1e9), tol=0.2)
