"""The seesaw's matrix primitive: PSD matrix powers on a support."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamebox import qcore


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_psd_sqrt_squares_back(seed, dim):
    # a random full-rank density matrix
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.real(np.trace(rho))
    root = qcore.psd_power(rho, 0.5)
    np.testing.assert_allclose(root @ root, rho, atol=1e-9)


def test_psd_power_inverse_on_support():
    rho = np.diag([0.5, 0.5, 0.0])
    inv_half = qcore.psd_power(rho, -0.5)
    # pseudo-inverse behaviour: identity on the support, zero on the kernel
    np.testing.assert_allclose(inv_half @ rho @ inv_half, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def _one_matrix_power(mat, power):
    """psd_power as written for a single matrix only (`.T`, unbroadcast weights)."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    w = np.clip(np.where(np.abs(w) < qcore.EIG_CUTOFF, 0.0, w), 0.0, None)
    out = np.zeros_like(w)
    out[w > 0] = w[w > 0] ** power
    return (v * out) @ v.conj().T


@pytest.mark.parametrize("power", [0.5, -0.5, 0.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_psd_power_on_a_stack_equals_single_calls(dim, power):
    rng = np.random.default_rng([dim, 17])
    g = rng.normal(size=(6, dim, dim)) + 1j * rng.normal(size=(6, dim, dim))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats[1] -= 2.0 * np.eye(dim)  # indefinite: negative eigenvalues count as zero
    mats[2] = np.diag(np.r_[1.0, np.zeros(dim - 1)])  # a kernel
    single = [qcore.psd_power(m, power) for m in mats]
    for m, got in zip(mats, single):
        assert np.array_equal(got, _one_matrix_power(m, power))
    np.testing.assert_allclose(qcore.psd_power(mats, power), np.array(single), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        qcore.psd_power(mats.reshape(2, 3, dim, dim), power), np.array(single).reshape(2, 3, dim, dim),
        rtol=0, atol=1e-12,
    )
    if power == 0.0:  # the projector onto the positive eigenspace
        P = qcore.psd_power(mats, 0.0)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)


def _masked_power(mat, power):
    """psd_power's earlier form: zero the tiny eigenvalues, clip the negative
    ones, then a boolean gather and scatter of the positive ones."""
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    w = np.clip(np.where(np.abs(w) < qcore.EIG_CUTOFF, 0.0, w), 0.0, None)
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = w[pos] ** power
    return (v * out[..., None, :]) @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("power", [0.0, 0.5, -0.5, 1.0, 2.0])
def test_psd_power_is_bitwise_the_masked_form(power):
    c = qcore.EIG_CUTOFF
    edges = [0.0, c / 2, -c / 2, c, -c, -1e6, -3.0, 1e-3, 2.0]
    # diagonal matrices, whose eigh returns these eigenvalues exactly, so
    # the mask meets each edge case itself
    diag = np.array([np.diag(np.roll(edges, k)).astype(complex) for k in range(3)])
    assert np.array_equal(np.linalg.eigvalsh(diag[0]), np.sort(edges))
    # and rotated stacks, where eigh's rounding lands near the edges
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 2, len(edges), len(edges)))  # per matrix, real then imaginary part
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    U = q * (phases / np.abs(phases))[..., None, :]  # Haar unitaries
    rotated = U @ diag[np.arange(4) % 3] @ U.conj().swapaxes(-1, -2)
    for mats in (diag, rotated, rotated.reshape(2, 2, len(edges), len(edges)), rotated[0]):
        assert qcore.psd_power(mats, power).tobytes() == _masked_power(mats, power).tobytes()
    # an exact zero eigenvalue is dropped, never powered
    assert np.all(np.isfinite(qcore.psd_power(diag, power)))
