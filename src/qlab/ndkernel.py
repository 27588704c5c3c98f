"""Minimal dense linear algebra shared by the rest of the lab.

Matrices are plain 2-D numpy arrays in row-major (C) order. Anything SPD
or factorization-related runs in 64-bit through LAPACK (numpy.linalg)
regardless of the caller's dtype; the training path is free to stay in
32-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, FactorizationError

Matrix = np.ndarray


def require_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ContractViolation(f"{name} must be a 2-D array, got {getattr(a, 'shape', type(a))}")
    return a


def frobenius_norm(*arrays: np.ndarray) -> float:
    """L2 norm over every entry of `arrays`: squares summed in 64-bit per
    array, the array sums added in order. Serves single matrices, a
    checkpoint's weights and a step's gradients."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.square(a, dtype=np.float64)))
    return math.sqrt(total)


SYM_RTOL = 1e-10  # cholesky's symmetry tolerance, relative to the largest |h_ij|


def cholesky(h: Matrix) -> Matrix:
    """Lower-triangular L with L @ L.T == h, positive diagonal.

    Always computed in 64-bit, by LAPACK. Raises FactorizationError
    carrying the index of the first non-positive (or non-finite) pivot;
    when LAPACK rejects h or returns a non-finite factor, the reference
    loop reruns only to locate that pivot. The symmetry precondition is
    enforced relative to the largest entry of h.
    """
    require_matrix(h, "h")
    n, m = h.shape
    if n != m:
        raise ContractViolation(f"cholesky needs a square matrix, got {h.shape}")
    a = np.asarray(h, dtype=np.float64)
    scale = np.max(np.abs(a)) if n else 0.0
    if scale > 0 and np.max(np.abs(a - a.T)) > SYM_RTOL * scale:
        raise ContractViolation("cholesky input is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _cholesky_loop(a)
    # LAPACK lets NaN through; the loop reports the pivot where it appears
    return L if np.all(np.isfinite(L)) else _cholesky_loop(a)


def _cholesky_loop(a: Matrix) -> Matrix:
    """Column-by-column reference factorization; raises at the first bad pivot."""
    n = a.shape[0]
    L = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0 or not np.isfinite(d):
            raise FactorizationError(j, float(d))
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


_LEAF = 32  # block size below which LAPACK inverts directly


def _lower_inverse(L: Matrix) -> Matrix:
    """Inverse of lower-triangular L by 2x2 block recursion.

    inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]: the work is
    GEMMs, with LAPACK inverting only _LEAF-sized diagonal blocks.
    """
    n = L.shape[0]
    if n <= _LEAF:
        return np.linalg.inv(L)
    k = n // 2
    a_inv, d_inv = _lower_inverse(L[:k, :k]), _lower_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k], out[k:, k:] = a_inv, d_inv
    out[k:, :k] = -(d_inv @ (L[k:, :k] @ a_inv))
    return out


def spd_inverse(h: Matrix) -> Matrix:
    """h^-1 = L^-T L^-1 for SPD h = L L^T; propagates factorization errors."""
    require_matrix(h, "h")
    L_inv = _lower_inverse(cholesky(h))
    return L_inv.T @ L_inv
