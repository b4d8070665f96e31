"""State containers, channels, and distance measures."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gamebox import qcore
from gamebox.errors import DimensionMismatchError, ValidationError


def _rand_density(dim, seed, rank=None):
    return qcore.random_density(dim, np.random.default_rng(seed), rank=rank)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_density_operator_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        qcore.DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        qcore.DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        qcore.DensityOperator(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian


def test_pure_state_normalisation():
    with pytest.raises(ValidationError):
        qcore.PureState(np.array([1.0, 1.0]))
    psi = qcore.PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    rho = psi.to_density()
    assert rho.dim == 2
    np.testing.assert_allclose(rho.mat, np.full((2, 2), 0.5), atol=1e-12)


def test_subsystem_spec():
    spec = qcore.SubsystemSpec((2, 3, 2))
    assert spec.total_dim == 12
    assert len(spec) == 3
    with pytest.raises(ValidationError):
        qcore.SubsystemSpec((2, 0))


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_random_density_is_a_state(dim, seed):
    rho = _rand_density(dim, seed)
    assert abs(np.trace(rho.mat) - 1.0) < 1e-9
    assert np.min(np.linalg.eigvalsh(rho.mat)) > -1e-9
    np.testing.assert_allclose(rho.mat, rho.mat.conj().T, atol=1e-12)


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_random_unitary_is_unitary(dim, seed):
    U = qcore.random_unitary(dim, np.random.default_rng(seed))
    np.testing.assert_allclose(U @ U.conj().T, np.eye(dim), atol=1e-10)


# ---------------------------------------------------------------------------
# tensor / partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_recovers_factors(rng):
    a = qcore.random_density(2, rng)
    b = qcore.random_density(3, rng)
    joint = qcore.tensor(a.mat, b.mat)
    spec = qcore.SubsystemSpec((2, 3))
    np.testing.assert_allclose(qcore.partial_trace(joint, spec, keep=[0]).mat, a.mat, atol=1e-10)
    np.testing.assert_allclose(qcore.partial_trace(joint, spec, keep=[1]).mat, b.mat, atol=1e-10)


def test_partial_trace_three_factors(rng):
    parts = [qcore.random_density(d, rng).mat for d in (2, 2, 3)]
    joint = qcore.tensor(*parts)
    kept = qcore.partial_trace(joint, (2, 2, 3), keep=[0, 2])
    np.testing.assert_allclose(kept.mat, qcore.tensor(parts[0], parts[2]), atol=1e-10)
    assert kept.dim == 6


@given(st.integers(0, 10**6))
def test_partial_trace_preserves_trace(seed):
    rho = _rand_density(6, seed)
    reduced = qcore.partial_trace(rho, (2, 3), keep=[1])
    assert abs(np.trace(reduced.mat) - 1.0) < 1e-9


def test_partial_trace_entangled_marginal_is_mixed():
    # maximally entangled state on 2x2 -> maximally mixed marginals
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / math.sqrt(2)
    rho = np.outer(psi, psi)
    marg = qcore.partial_trace(rho, (2, 2), keep=[0])
    np.testing.assert_allclose(marg.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValidationError):
        qcore.partial_trace(rho, (2, 2), keep=[2])
    with pytest.raises(DimensionMismatchError):
        qcore.partial_trace(rho, (2, 3), keep=[0])


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_psd_sqrt_squares_back(seed, dim):
    rho = _rand_density(dim, seed).mat
    root = qcore.psd_sqrt(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-9)


def test_psd_power_inverse_on_support():
    rho = np.diag([0.5, 0.5, 0.0])
    inv_half = qcore.psd_power(rho, -0.5)
    # pseudo-inverse behaviour: identity on the support, zero on the kernel
    np.testing.assert_allclose(inv_half @ rho @ inv_half, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def _one_matrix_power(mat, power, cutoff=qcore.EIG_CUTOFF):
    """psd_power as written for a single matrix only (`.T`, unbroadcast weights)."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    w = np.clip(np.where(np.abs(w) < cutoff, 0.0, w), 0.0, None)
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
    if power == 0.5:
        assert np.array_equal(qcore.psd_sqrt(mats[0]), single[0])
        np.testing.assert_allclose(qcore.psd_sqrt(mats), np.array(single), rtol=0, atol=1e-12)
    if power == 0.0:  # the projector onto the positive eigenspace
        P = qcore.psd_power(mats, 0.0)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)


def _masked_power(mat, power, cutoff=qcore.EIG_CUTOFF):
    """psd_power's earlier form: zero the tiny eigenvalues, clip the negative
    ones, then a boolean gather and scatter of the positive ones."""
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    w = np.clip(np.where(np.abs(w) < cutoff, 0.0, w), 0.0, None)
    out = np.zeros_like(w)
    pos = w > 0
    out[pos] = w[pos] ** power
    return (v * out[..., None, :]) @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("cutoff", [qcore.EIG_CUTOFF, 0.0, -qcore.EIG_CUTOFF])
@pytest.mark.parametrize("power", [0.0, 0.5, -0.5, 1.0, 2.0])
def test_psd_power_is_bitwise_the_masked_form(power, cutoff):
    c = qcore.EIG_CUTOFF
    edges = [0.0, c / 2, -c / 2, c, -c, -1e6, -3.0, 1e-3, 2.0]
    # diagonal matrices, whose eigh returns these eigenvalues exactly, so
    # the mask meets each edge case itself
    diag = np.array([np.diag(np.roll(edges, k)).astype(complex) for k in range(3)])
    assert np.array_equal(np.linalg.eigvalsh(diag[0]), np.sort(edges))
    # and rotated stacks, where eigh's rounding lands near the edges
    rng = np.random.default_rng(5)
    U = np.array([qcore.random_unitary(len(edges), rng) for _ in range(4)])
    rotated = U @ diag[np.arange(4) % 3] @ U.conj().swapaxes(-1, -2)
    for mats in (diag, rotated, rotated.reshape(2, 2, len(edges), len(edges)), rotated[0]):
        got = qcore.psd_power(mats, power, cutoff)
        assert got.tobytes() == _masked_power(mats, power, cutoff).tobytes()
    # an exact zero eigenvalue is dropped at every cutoff, never powered
    assert np.all(np.isfinite(qcore.psd_power(diag, power, cutoff)))
    assert qcore.psd_sqrt(rotated, cutoff).tobytes() == _masked_power(rotated, 0.5, cutoff).tobytes()


def test_trace_norm_matches_svd(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    expected = float(np.sum(np.linalg.svd(m, compute_uv=False)))
    assert qcore.trace_norm(m) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_fidelity_pure_states_is_overlap(rng):
    psi = qcore.random_pure(4, rng)
    phi = qcore.random_pure(4, rng)
    overlap = abs(np.vdot(psi.vec, phi.vec))
    assert qcore.fidelity(psi, phi) == pytest.approx(overlap, abs=1e-10)


@given(st.integers(0, 10**6))
def test_fidelity_bounds_and_symmetry(seed):
    r = np.random.default_rng(seed)
    a = qcore.random_density(3, r)
    b = qcore.random_density(3, r)
    f = qcore.fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert f == pytest.approx(qcore.fidelity(b, a), abs=1e-10)
    assert qcore.fidelity(a, a) == pytest.approx(1.0, abs=1e-9)


def test_trace_distance_extremes():
    zero = np.diag([1.0, 0.0])
    one = np.diag([0.0, 1.0])
    assert qcore.trace_distance(zero, one) == pytest.approx(2.0)
    assert qcore.trace_distance(zero, zero) == 0.0


def test_purified_distance_formula(rng):
    a = qcore.random_density(4, rng)
    b = qcore.random_density(4, rng)
    f = qcore.fidelity(a, b)
    assert qcore.purified_distance(a, b) == pytest.approx(math.sqrt(1 - f * f), abs=1e-10)


@given(st.integers(0, 10**6))
def test_distances_unitarily_invariant(seed):
    r = np.random.default_rng(seed)
    a = qcore.random_density(4, r).mat
    b = qcore.random_density(4, r).mat
    U = qcore.random_unitary(4, r)
    ua, ub = U @ a @ U.conj().T, U @ b @ U.conj().T
    assert qcore.trace_distance(ua, ub) == pytest.approx(qcore.trace_distance(a, b), abs=1e-9)
    assert qcore.fidelity(ua, ub) == pytest.approx(qcore.fidelity(a, b), abs=1e-9)


@given(st.integers(0, 10**6))
def test_trace_distance_triangle(seed):
    r = np.random.default_rng(seed)
    a, b, c = (qcore.random_density(3, r) for _ in range(3))
    assert qcore.trace_distance(a, c) <= qcore.trace_distance(a, b) + qcore.trace_distance(b, c) + 1e-9


def test_distance_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        qcore.fidelity(np.eye(2) / 2, np.eye(3) / 3)
