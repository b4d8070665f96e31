"""Finite-dimensional quantum state primitives on dense numpy arrays.

Conventions
-----------
* Operators are dense complex ``numpy`` matrices; subsystems compose by
  Kronecker product in the order given.
* ``fidelity`` is the root fidelity ``F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1``
  (so ``F in [0, 1]`` and ``F = |<psi|phi>|`` on pure states).
* ``trace_distance`` is the unnormalised trace norm ``|| rho - sigma ||_1``;
  for pure states this equals ``2 * sqrt(1 - |<psi|phi>|^2)`` -- note the
  factor 2, which some one-norm conventions absorb into the distance.
* ``purified_distance`` is ``sqrt(1 - F^2)``.
* Spectral decompositions use an absolute eigenvalue cutoff of ``1e-12``
  when inverting or taking square roots on a support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, ValidationError, check_range

EIG_CUTOFF = 1e-12
DEFAULT_TOL = 1e-10

ComplexMatrix = np.ndarray


@dataclass(frozen=True)
class SubsystemSpec:
    """Ordered local dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValidationError("subsystem spec needs at least one factor")
        if any(not isinstance(d, (int, np.integer)) for d in self.dims):
            raise ValidationError(f"local dimensions must be positive integers, got {self.dims}")
        for d in self.dims:
            check_range("local dimension", d, 1, math.inf)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """A validated density matrix (Hermitian, PSD, unit trace within `tol`)."""

    mat: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        check_range("tol", self.tol, 0.0, math.inf)
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("density operator contains non-finite entries")
        herm_defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if herm_defect > self.tol:
            raise ValidationError(f"not Hermitian within tol: defect {herm_defect:.3e}")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs.size and eigs[0] < -self.tol:
            raise ValidationError(f"not positive semidefinite within tol: min eigenvalue {eigs[0]:.3e}")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(f"trace {tr!r} not within tol of 1")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)


@dataclass(frozen=True)
class PureState:
    """A normalised state vector."""

    vec: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        check_range("tol", self.tol, 0.0, math.inf)
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ValidationError("state vector must be a finite, non-empty 1-d array")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > self.tol:
            raise ValidationError(f"state vector norm {nrm!r} not within tol of 1")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.size

    def to_density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.vec, self.vec.conj()), tol=self.tol)


StateLike = Union[DensityOperator, PureState, np.ndarray]


def to_matrix(state: StateLike) -> np.ndarray:
    """Coerce a state-like object to a dense density matrix (no validation)."""
    if isinstance(state, DensityOperator):
        return state.mat
    if isinstance(state, PureState):
        return np.outer(state.vec, state.vec.conj())
    m = np.asarray(state, dtype=complex)
    if m.ndim == 1:
        return np.outer(m, m.conj())
    return m


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    if not ops:
        raise ValidationError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(state: StateLike, spec: SubsystemSpec | Sequence[int], keep: Iterable[int]) -> DensityOperator:
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    state:
        Density operator (or vector / raw matrix) on the full space.
    spec:
        Local dimensions, e.g. ``SubsystemSpec((2, 2))`` or ``[2, 2]``.
    keep:
        Indices of the subsystems to retain, in their original order.

    Returns
    -------
    DensityOperator on the kept factors (their dimensions multiplied in the
    original order).
    """
    if not isinstance(spec, SubsystemSpec):
        spec = SubsystemSpec(tuple(spec))
    keep_list = sorted(set(int(i) for i in keep))
    if not keep_list:
        raise ValidationError("must keep at least one subsystem")
    for i in keep_list:
        check_range("keep index", i, 0, len(spec), hi_open=True)
    rho = to_matrix(state)
    if rho.shape != (spec.total_dim, spec.total_dim):
        raise DimensionMismatchError(
            f"state dim {rho.shape} does not match subsystem spec total {spec.total_dim}"
        )
    dims = spec.dims
    k = len(dims)
    t = rho.reshape(*dims, *dims)
    traced = [j for j in range(k) if j not in keep_list]
    for j in sorted(traced, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=j, axis2=j + half)
    d_keep = int(np.prod([dims[j] for j in keep_list]))
    out = t.reshape(d_keep, d_keep)
    out = (out + out.conj().T) / 2
    return DensityOperator(out, tol=max(DEFAULT_TOL, 1e-9))


def psd_project_eigs(mat: np.ndarray, cutoff: float = EIG_CUTOFF) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    ``(..., d, d)`` stack, with tiny eigenvalues zeroed."""
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    w = np.where(np.abs(w) < cutoff, 0.0, w)
    return w, v


def psd_power(mat: np.ndarray, power: float, cutoff: float = EIG_CUTOFF) -> np.ndarray:
    """`mat ** power` on the support of a PSD matrix (generalised for power < 0),
    matrix by matrix on a ``(..., d, d)`` stack.  Eigenvalues below `cutoff`,
    and all that are not positive whatever `cutoff` is, count as zero, so
    power 0 gives the projector onto the positive eigenspace."""
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    keep = (w >= cutoff) & (w > 0)
    w = (np.where(keep, w, 1.0) ** power) * keep
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def psd_sqrt(mat: np.ndarray, cutoff: float = EIG_CUTOFF) -> np.ndarray:
    return psd_power(mat, 0.5, cutoff)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values (uses eigenvalues when the input is Hermitian)."""
    m = np.asarray(mat, dtype=complex)
    if m.size and np.max(np.abs(m - m.conj().T)) < 1e-12:
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def fidelity(a: StateLike, b: StateLike) -> float:
    """Root fidelity ``|| sqrt(a) sqrt(b) ||_1``, clamped to [0, 1]."""
    ra, rb = to_matrix(a), to_matrix(b)
    if ra.shape != rb.shape:
        raise DimensionMismatchError(f"state dims differ: {ra.shape} vs {rb.shape}")
    prod = psd_sqrt(ra) @ psd_sqrt(rb)
    f = float(np.sum(np.linalg.svd(prod, compute_uv=False)))
    return min(1.0, max(0.0, f))


def trace_distance(a: StateLike, b: StateLike) -> float:
    """Trace norm ``|| a - b ||_1`` (ranges over [0, 2] for states)."""
    ra, rb = to_matrix(a), to_matrix(b)
    if ra.shape != rb.shape:
        raise DimensionMismatchError(f"state dims differ: {ra.shape} vs {rb.shape}")
    diff = ra - rb
    return float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))


def purified_distance(a: StateLike, b: StateLike) -> float:
    """``sqrt(1 - F(a, b)^2)``."""
    f = fidelity(a, b)
    return math.sqrt(max(0.0, 1.0 - f * f))


def random_pure(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random mixed state: partial trace of a Haar-random purification."""
    r = dim if rank is None else max(1, min(rank, dim))
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    return DensityOperator((m + m.conj().T) / 2, tol=1e-9)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
