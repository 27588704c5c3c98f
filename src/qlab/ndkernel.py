"""Minimal dense linear algebra shared by the rest of the lab.

Matrices are plain 2-D numpy arrays in row-major (C) order. Anything SPD
or factorization-related runs in 64-bit through LAPACK (numpy.linalg)
regardless of the caller's dtype; the training path is free to stay in
32-bit. The factorisations hold few n x n temporaries: `cholesky` checks
symmetry one row block at a time, and `spd_inverse` factors h with its
column order reversed, inverts that factor in its own array and writes
the upper Cholesky factor of h^-1 into h.
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
    scale = max(np.max(a), -np.min(a)) if n else 0.0
    if scale > 0 and _asymmetry(a) > SYM_RTOL * scale:
        raise ContractViolation("cholesky input is not symmetric within tolerance")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return _cholesky_loop(a)
    # LAPACK lets NaN through; the loop reports the pivot where it appears
    return L if np.all(np.isfinite(L)) else _cholesky_loop(a)


_SYM_BLOCK = 64  # rows per block of the symmetry check


def _asymmetry(a: Matrix) -> float:
    """max |a_ij - a_ji|, one block of rows against the matching columns at
    a time, so no n x n temporary is made."""
    worst = 0.0
    for r0 in range(0, a.shape[0], _SYM_BLOCK):
        rows = slice(r0, r0 + _SYM_BLOCK)
        d = a[rows] - a[:, rows].T
        worst = max(worst, np.max(np.abs(d, out=d)))
    return worst


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


def _invert_lower(L: Matrix) -> None:
    """Overwrite lower-triangular L with its inverse by 2x2 block recursion.

    inv([[A, 0], [C, D]]) = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]: A and D are
    inverted in place, then C is replaced; the work is GEMMs, with LAPACK
    inverting only _LEAF-sized diagonal blocks.
    """
    n = L.shape[0]
    if n <= _LEAF:
        # LAPACK's pivoted inverse leaves round-off above the diagonal
        L[...] = np.tril(np.linalg.inv(L))
        return
    k = n // 2
    _invert_lower(L[:k, :k])
    _invert_lower(L[k:, k:])
    c = L[k:, :k]
    np.matmul(L[k:, k:], c @ L[:k, :k], out=c)
    np.negative(c, out=c)


def spd_inverse(h: Matrix) -> Matrix:
    """U, the upper Cholesky factor of h^-1 (U.T @ U == h^-1, positive
    diagonal), written into h and returned.

    With J the reversal of the column order and J h J = L L^T, h^-1 is
    (J L^-1 J)^T (J L^-1 J), and J L^-1 J is upper triangular: one
    factorisation and one triangular inverse, in L's own array. h must be
    a writeable float64 array; it is consumed, so the solve holds h and L
    only. A failed pivot is reported in h's own column order, and h is
    then left as it was.
    """
    require_matrix(h, "h")
    if h.dtype != np.float64 or not h.flags.writeable:
        raise ContractViolation("spd_inverse needs a writeable float64 h, which it overwrites")
    try:
        L = cholesky(h[::-1, ::-1])
    except FactorizationError as exc:
        raise FactorizationError(h.shape[0] - 1 - exc.pivot, exc.value) from None
    _invert_lower(L)
    h[...] = L[::-1, ::-1]
    return h
