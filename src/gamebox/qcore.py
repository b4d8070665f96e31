"""The matrix primitive of the seesaw: PSD matrix powers on a support, on
stacks of dense complex numpy arrays.

Spectral decompositions use an absolute eigenvalue cutoff of ``1e-12``
when inverting or taking square roots on a support.
"""

from __future__ import annotations

import numpy as np

EIG_CUTOFF = 1e-12


def psd_power(mat: np.ndarray, power: float) -> np.ndarray:
    """`mat ** power` on the support of a PSD matrix (generalised for power < 0),
    matrix by matrix on a ``(..., d, d)`` stack.  Eigenvalues below
    ``EIG_CUTOFF`` count as zero, so power 0 gives the projector onto the
    eigenspace of eigenvalues at least ``EIG_CUTOFF``."""
    w, v = np.linalg.eigh((mat + mat.conj().swapaxes(-1, -2)) / 2)
    keep = w >= EIG_CUTOFF
    w = (np.where(keep, w, 1.0) ** power) * keep
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)

