"""Entropic quantities, all in bits (base-2 logarithms).

Support violations in the divergences are meaningful outcomes, not
errors: ``rel_entropy`` and ``dmax`` return ``math.inf`` (the IEEE +inf
float, distinct from every finite result) when the first argument's
support is not contained in the second's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import CapabilityError, DimensionMismatchError, ValidationError, check_distribution, check_range

_SUPPORT_CUTOFF = 1e-12


@dataclass(frozen=True)
class ClassicalDistribution:
    """Probability vector with validation and optional outcome labels."""

    probs: np.ndarray
    outcomes: tuple | None = None
    tol: float = 1e-9

    def __post_init__(self) -> None:
        p = check_distribution(
            "distribution", np.asarray(self.probs, dtype=float).reshape(-1), neg_tol=self.tol, sum_tol=self.tol
        )
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))
        labels = tuple(range(p.size)) if self.outcomes is None else tuple(self.outcomes)
        if len(labels) != p.size:
            raise ValidationError(f"{len(labels)} labels for {p.size} probabilities")
        object.__setattr__(self, "outcomes", labels)


@dataclass(frozen=True)
class JointTable:
    """Joint distribution P(y, z); axis 0 is the value, axis 1 the side
    information."""

    table: np.ndarray
    tol: float = 1e-9

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValidationError(f"joint table must be a 2-d array, got {t.ndim} dimensions")
        t = check_distribution("joint table", t, neg_tol=self.tol, sum_tol=self.tol)
        object.__setattr__(self, "table", np.clip(t, 0.0, None))


@dataclass(frozen=True)
class CQState:
    """Classical-quantum state: symbol probabilities and conditional states."""

    probs: np.ndarray
    states: tuple[qcore.DensityOperator, ...]

    def __post_init__(self) -> None:
        p = ClassicalDistribution(self.probs).probs
        if len(self.states) != p.size:
            raise DimensionMismatchError("one conditional state per symbol required")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatchError(f"conditional states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "probs", p)


def _as_probs(P) -> np.ndarray:
    if isinstance(P, ClassicalDistribution):
        return P.probs
    return ClassicalDistribution(np.asarray(P, dtype=float)).probs


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    check_range("binary entropy argument", x, 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def vn_entropy(rho) -> float:
    """von Neumann entropy in bits."""
    m = qcore.to_matrix(rho)
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    eigs = np.clip(eigs, 0.0, None)
    nz = eigs[eigs > _SUPPORT_CUTOFF]
    return float(-np.sum(nz * np.log2(nz)))


def rel_entropy(rho, sigma) -> float:
    """Relative entropy D(rho || sigma) in bits; +inf outside sigma's support."""
    r = qcore.to_matrix(rho)
    s = qcore.to_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shapes differ: {r.shape} vs {s.shape}")
    ws, vs = qcore.psd_project_eigs(s)
    kernel = vs[:, ws <= 0.0]
    if kernel.size and float(np.real(np.trace(kernel.conj().T @ r @ kernel))) > _SUPPORT_CUTOFF:
        return math.inf
    wr, vr = qcore.psd_project_eigs(r)
    wr = np.clip(wr, 0.0, None)
    term1 = float(np.sum(wr[wr > 0] * np.log2(wr[wr > 0])))
    supp = ws > 0.0
    # Tr(rho log sigma) evaluated on sigma's support
    overlaps = np.real(np.einsum("ij,jk,ki->i", vs[:, supp].conj().T, r, vs[:, supp]))
    term2 = float(np.sum(overlaps * np.log2(ws[supp])))
    return term1 - term2


def dmax(rho, sigma) -> float:
    """Max-divergence log2 lambda_max(sigma^{-1/2} rho sigma^{-1/2}); +inf
    outside sigma's support."""
    r = qcore.to_matrix(rho)
    s = qcore.to_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatchError(f"shapes differ: {r.shape} vs {s.shape}")
    ws, vs = qcore.psd_project_eigs(s)
    kernel = vs[:, ws <= 0.0]
    if kernel.size and float(np.real(np.trace(kernel.conj().T @ r @ kernel))) > _SUPPORT_CUTOFF:
        return math.inf
    inv_half = qcore.psd_power(s, -0.5)
    mid = inv_half @ r @ inv_half
    lam = float(np.max(np.linalg.eigvalsh((mid + mid.conj().T) / 2)))
    if lam <= 0.0:
        return -math.inf
    return math.log2(lam)


def smoothed_dmax_classical(P, Q, eps: float) -> float:
    """Smallest log2 lambda such that some P' with ||P - P'||_1 <= eps and
    sum(P') = 1 satisfies P' <= 2^lambda Q, found by bisection.

    For fixed lambda the minimal ell-1 distance from P to the capped
    simplex {0 <= P' <= 2^lambda Q, sum P' = 1} equals twice the excess
    ``sum_x max(P(x) - 2^lambda Q(x), 0)``, so feasibility is a monotone
    threshold condition in lambda.
    """
    p = _as_probs(P)
    q = _as_probs(Q)
    if p.size != q.size:
        raise DimensionMismatchError(f"lengths differ: {p.size} vs {q.size}")
    check_range("eps", eps, 0.0, 1.0, hi_open=True)
    outside = float(p[q <= 0.0].sum())
    if 2.0 * outside > eps + 1e-12:
        raise ValidationError(
            f"mass {outside} outside supp(Q) cannot be smoothed away with eps={eps}"
        )

    supp = q > 0.0

    def excess(lam: float) -> float:
        return float(np.clip(p[supp] - (2.0**lam) * q[supp], 0.0, None).sum()) + outside

    def feasible(lam: float) -> bool:
        return 2.0 * excess(lam) <= eps + 1e-12

    lo = 0.0
    if feasible(lo):
        return 0.0
    ratios = p[supp] / q[supp]
    hi = max(1e-6, math.log2(max(float(np.max(ratios)), 1.0)) + 1e-9)
    for _ in range(64):  # rounding guard; beyond max ratio the excess is just `outside`
        if feasible(hi):
            break
        hi += 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def cond_hmin(state) -> float:
    """Conditional min-entropy H_min(Y | side information), in bits.

    * ``JointTable`` (or 2-d array): exact, ``-log2 sum_z max_y P(y, z)``.
    * ``CQState`` with two symbols: exact via the optimal (Helstrom)
      distinguishing measurement.
    * ``CQState`` with pairwise-commuting weighted states: reduced to the
      classical table in the common eigenbasis.
    * anything else raises ``CapabilityError``.
    """
    if isinstance(state, JointTable) or (isinstance(state, np.ndarray) and state.ndim == 2):
        t = state.table if isinstance(state, JointTable) else JointTable(state).table
        return float(-math.log2(float(t.max(axis=0).sum())))
    if isinstance(state, CQState):
        weighted = [float(p) * s.mat for p, s in zip(state.probs, state.states)]
        if len(weighted) == 2:
            guess = 0.5 * (1.0 + qcore.trace_norm(weighted[0] - weighted[1]))
            return float(-math.log2(guess))
        comm_tol = 1e-9
        for i in range(len(weighted)):
            for j in range(i + 1, len(weighted)):
                comm = weighted[i] @ weighted[j] - weighted[j] @ weighted[i]
                if float(np.max(np.abs(comm))) > comm_tol:
                    raise CapabilityError(
                        "conditional min-entropy implemented only for two symbols "
                        "or pairwise-commuting conditional states"
                    )
        U = _simultaneous_eigenbasis(weighted)
        cols = []
        for w in weighted:
            diag = np.real(np.einsum("ij,jk,ki->i", U.conj().T, w, U))
            off = w - (U * diag) @ U.conj().T
            if float(np.max(np.abs(off))) > 1e-7:
                raise CapabilityError("failed to diagonalise commuting states simultaneously")
            cols.append(np.clip(diag, 0.0, None))
        table = np.stack(cols, axis=1)  # rows: basis outcomes z, columns: symbols y
        return float(-math.log2(float(table.max(axis=1).sum())))
    raise ValidationError(f"unsupported state type {type(state).__name__}")


def _simultaneous_eigenbasis(mats: list[np.ndarray], gap_tol: float = 1e-8) -> np.ndarray:
    """Common eigenbasis of pairwise-commuting Hermitian matrices, by
    recursively refining degenerate eigenspaces."""
    d = mats[0].shape[0]
    U = np.eye(d, dtype=complex)
    blocks = [list(range(d))]
    for A in mats:
        new_blocks = []
        for idx in blocks:
            if len(idx) == 1:
                new_blocks.append(idx)
                continue
            sub = U[:, idx].conj().T @ A @ U[:, idx]
            w, v = np.linalg.eigh((sub + sub.conj().T) / 2)
            U[:, idx] = U[:, idx] @ v
            scale = max(1.0, float(np.max(np.abs(w))))
            start = 0
            for i in range(1, len(idx)):
                if w[i] - w[i - 1] > gap_tol * scale:
                    new_blocks.append(idx[start:i])
                    start = i
            new_blocks.append(idx[start:])
        blocks = new_blocks
    return U


def cond_h0(table, eps: float = 0.0) -> float:
    """Smoothed conditional max-entropy (support size) upper bound.

    At ``eps = 0``: ``log2 max_z |{y : P(y, z) > 0}|`` exactly.  For
    ``eps > 0`` cells are deleted greedily, lightest first (ties in
    row-major order); deleting a cell of mass m costs ``2 m`` of the
    smoothing budget (ell-1 distance after renormalising).  The greedy
    choice is an upper bound on the optimum, not always tight.
    """
    t = table.table if isinstance(table, JointTable) else JointTable(np.asarray(table, dtype=float)).table
    check_range("eps", eps, 0.0, math.inf)
    work = t.copy()
    if eps > 0.0:
        cells = [
            (work[y, z], y * work.shape[1] + z, y, z)
            for y in range(work.shape[0])
            for z in range(work.shape[1])
            if work[y, z] > 0.0
        ]
        cells.sort(key=lambda c: (c[0], c[1]))
        budget = eps
        for mass, _, y, z in cells:
            cost = 2.0 * mass
            if cost <= budget + 1e-15:
                work[y, z] = 0.0
                budget -= cost
            else:
                break
    supports = (work > 0.0).sum(axis=0)
    biggest = int(supports.max())
    if biggest == 0:
        return 0.0
    return float(math.log2(biggest))
