"""Shared generators and independent oracles for the test suite."""

import numpy as np
import pytest

from rislink import IDEAL_VARACTOR, ScatterMatrix


def random_passive(rng, n, scale=0.95):
    """Random complex n x n matrix rescaled so its largest singular value is `scale`."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m * (scale / np.linalg.svd(m, compute_uv=False).max())


def random_reciprocal_passive(rng, n, scale=0.9):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    return m * (scale / np.linalg.svd(m, compute_uv=False).max())


def random_full_link(rng, n_ris, scale=0.95, freq_hz=3.55e9):
    entries = random_passive(rng, n_ris + 2, scale)
    return ScatterMatrix.full_link(entries, freq_hz, range(1, n_ris + 1))


def brute_force_reduce(entries, ext_indices, ris_indices, gammas):
    """Signal-flow oracle: solve b = S a with a_i = gamma_i b_i on loaded ports.

    Unit incident waves are applied at each external port in turn; the
    resulting outgoing waves at the external ports are the reduced matrix.
    Independent of the terminated-port reduction formula.
    """
    p = entries.shape[0]
    gamma_full = np.zeros(p, dtype=complex)
    for i, g in zip(ris_indices, gammas):
        gamma_full[i] = g
    system = np.eye(p, dtype=complex) - entries * gamma_full[np.newaxis, :]
    reduced = np.zeros((2, 2), dtype=complex)
    for col, source in enumerate(ext_indices):
        b = np.linalg.solve(system, entries[:, source])
        for row, sink in enumerate(ext_indices):
            reduced[row, col] = b[sink]
    return reduced


def brute_force_reduce_batch(entries, ext_indices, ris_indices, gammas):
    """``brute_force_reduce`` for every row of the (B, N) ``gammas``, as one stacked (B, P, P) solve.

    Returns the (B, 2, 2) reduced matrices, ordered like ``ext_indices``.
    """
    gammas = np.asarray(gammas, dtype=complex)
    p = entries.shape[0]
    gamma_full = np.zeros((gammas.shape[0], p), dtype=complex)
    gamma_full[:, list(ris_indices)] = gammas
    system = np.eye(p, dtype=complex) - entries[np.newaxis] * gamma_full[:, np.newaxis, :]
    sources = np.broadcast_to(entries[:, list(ext_indices)], (gammas.shape[0], p, 2))
    return np.linalg.solve(system, sources)[:, list(ext_indices), :]


def grid_transfer(full, caps_f, model=IDEAL_VARACTOR):
    """|S_RxTx|^2 of a full link for every row of the (B, N) capacitances, through the stacked oracle.

    The loads are the model's series R-L-C: Z = R + j(w*L - 1/(w*C)), gamma = (Z - Z0)/(Z + Z0).
    """
    w = 2.0 * np.pi * full.freq_hz
    x = w * model.series_inductance_h - 1.0 / (w * np.asarray(caps_f))
    z = model.series_resistance_ohm + 1j * x
    gammas = (z - full.z0_ohm) / (z + full.z0_ohm)
    reduced = brute_force_reduce_batch(full.entries, (full.tx_index, full.rx_index), full.ris_indices, gammas)
    return np.abs(reduced[:, 1, 0]) ** 2


@pytest.fixture
def rng():
    return np.random.default_rng(20240355)
