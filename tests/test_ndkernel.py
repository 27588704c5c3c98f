import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlab.errors import ContractViolation, FactorizationError
from qlab.ndkernel import cholesky, frobenius_norm, spd_inverse


def det_recursive(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * det_recursive(minor)
    return total


def adjugate_inverse(a):
    n = a.shape[0]
    d = det_recursive(a)
    cof = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = ((-1.0) ** (i + j)) * det_recursive(minor)
    return cof.T / d


def random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(4)), np.eye(4))


def test_cholesky_hand_case():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert np.max(np.abs(L - expected)) < 1e-14
    assert np.max(np.abs(L @ L.T - [[4, 2], [2, 3]])) < 1e-14


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(FactorizationError) as exc:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot == 1


def test_cholesky_rejects_asymmetric():
    a = np.array([[2.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ContractViolation):
        cholesky(a)


def test_cholesky_reconstruction_and_positive_diagonal():
    rng = np.random.Generator(np.random.PCG64(3))
    for n in (2, 5, 17, 64):
        h = random_spd(rng, n)
        L = cholesky(h)
        assert np.all(np.diag(L) > 0)
        rel = np.linalg.norm(L @ L.T - h) / np.linalg.norm(h)
        assert rel < 1e-10


def test_cholesky_of_LLt_recovers_L():
    rng = np.random.Generator(np.random.PCG64(4))
    L = np.tril(rng.standard_normal((6, 6)))
    L[np.diag_indices(6)] = np.abs(np.diag(L)) + 0.5
    L2 = cholesky(L @ L.T)
    assert np.max(np.abs(L2 - L)) < 1e-10


def test_spd_inverse_identity_and_diagonal():
    assert np.array_equal(spd_inverse(np.eye(2)), np.eye(2))
    x = spd_inverse(np.array([[4.0, 0.0], [0.0, 9.0]]))
    assert np.allclose(x, [[0.25, 0.0], [0.0, 1.0 / 9.0]])


def test_spd_inverse_against_adjugate_inverse():
    rng = np.random.Generator(np.random.PCG64(5))
    h = random_spd(rng, 6)
    x = spd_inverse(h)
    assert np.max(np.abs(x - adjugate_inverse(h))) < 1e-8


def test_spd_inverse_residual_up_to_256():
    rng = np.random.Generator(np.random.PCG64(6))
    for n in (16, 33, 64, 100, 256):  # leaf-sized and recursive, even and odd splits
        h = random_spd(rng, n, jitter=1.0)
        assert np.linalg.norm(h @ spd_inverse(h) - np.eye(n)) / np.sqrt(n) < 1e-8


def test_spd_inverse_indefinite_reports_pivot():
    h = np.eye(5)
    h[3, 3] = -1.0
    with pytest.raises(FactorizationError) as exc:
        spd_inverse(h)
    assert exc.value.pivot == 3


def test_cholesky_nonfinite_reports_pivot():
    # LAPACK passes NaN through; the reference loop still names the pivot
    h = np.eye(4)
    h[2, 1] = h[1, 2] = np.nan
    with pytest.raises(FactorizationError) as exc:
        cholesky(h)
    assert exc.value.pivot == 2


def test_spd_inverse():
    rng = np.random.Generator(np.random.PCG64(7))
    h = random_spd(rng, 8)
    assert np.max(np.abs(h @ spd_inverse(h) - np.eye(8))) < 1e-8


def test_frobenius_norm_cases():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_frobenius_matches_elementwise_sum(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((4, 4))
    oracle = np.sqrt(sum(a[i, j] ** 2 for i in range(4) for j in range(4)))
    got = frobenius_norm(a)
    assert abs(got - oracle) <= 1e-14 * max(oracle, 1.0)
