import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import inverse_factor_reference
from qlab.errors import ContractViolation, FactorizationError
from qlab.ndkernel import SYM_RTOL, cholesky, frobenius_norm, spd_inverse


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
    # spd_inverse gives U with U.T @ U == h^-1
    assert np.array_equal(spd_inverse(np.eye(2)), np.eye(2))
    u = spd_inverse(np.array([[4.0, 0.0], [0.0, 9.0]]))
    assert np.allclose(u, [[0.5, 0.0], [0.0, 1.0 / 3.0]])


def test_spd_inverse_against_adjugate_inverse():
    rng = np.random.Generator(np.random.PCG64(5))
    h = random_spd(rng, 6)
    u = spd_inverse(h.copy())
    assert np.max(np.abs(u.T @ u - adjugate_inverse(h))) < 1e-8


def test_spd_inverse_residual_up_to_256():
    rng = np.random.Generator(np.random.PCG64(6))
    for n in (16, 33, 64, 100, 256):  # leaf-sized and recursive, even and odd splits
        h = random_spd(rng, n, jitter=1.0)
        u = spd_inverse(h.copy())
        assert np.linalg.norm(h @ (u.T @ u) - np.eye(n)) / np.sqrt(n) < 1e-8


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
    u = spd_inverse(h.copy())
    assert np.max(np.abs(h @ (u.T @ u) - np.eye(8))) < 1e-8


LEAN_SIZES = (1, 31, 32, 33, 192, 250, 768)  # leaf, leaf edge, odd and even splits, desk w2


@pytest.mark.parametrize("n", LEAN_SIZES)
def test_in_place_spd_inverse_matches_allocating_reference_bitwise(n):
    rng = np.random.Generator(np.random.PCG64(n))
    h = random_spd(rng, n)
    want = inverse_factor_reference(h).tobytes()
    got = spd_inverse(h)
    assert got is h and got.tobytes() == want


@pytest.mark.parametrize("n", LEAN_SIZES)
def test_spd_inverse_is_the_upper_factor_of_the_inverse(n):
    # upper triangular with a positive diagonal, and U.T @ U @ h == I to
    # round-off: within n * eps * cond(h) in the 2-norm
    h = random_spd(np.random.Generator(np.random.PCG64(n)), n)
    u = spd_inverse(h.copy())
    assert np.array_equal(u, np.triu(u)) and np.all(np.diag(u) > 0)
    residual = np.linalg.norm(u.T @ u @ h - np.eye(n), 2)
    assert residual <= n * np.finfo(np.float64).eps * np.linalg.cond(h)


def test_spd_inverse_leaves_h_when_factorization_fails():
    h = np.eye(40)
    h[37, 37] = -1.0
    before = h.copy()
    with pytest.raises(FactorizationError) as exc:
        spd_inverse(h)
    assert exc.value.pivot == 37
    assert np.array_equal(h, before)


def test_spd_inverse_refuses_what_it_cannot_overwrite():
    with pytest.raises(ContractViolation):
        spd_inverse(np.eye(3, dtype=np.float32))
    frozen = np.eye(3)
    frozen.flags.writeable = False
    with pytest.raises(ContractViolation):
        spd_inverse(frozen)


# (row, col) of one asymmetric entry in a 250 x 250 matrix: the first and
# the last, partial, 64-row block of the check, both triangles
ASYMMETRIC_AT = [(1, 0), (0, 1), (249, 3), (3, 249), (200, 249), (249, 200)]


@pytest.mark.parametrize("at", ASYMMETRIC_AT)
def test_cholesky_symmetry_check_is_blockwise_at_sym_rtol(at):
    h = random_spd(np.random.Generator(np.random.PCG64(8)), 250, jitter=250.0)
    scale = np.max(np.abs(h))
    for factor, raises in ((1.5, True), (0.5, False)):
        a = h.copy()
        a[at] += factor * SYM_RTOL * scale
        assert np.max(np.abs(a)) == scale
        if raises:
            with pytest.raises(ContractViolation):
                cholesky(a)
        else:
            assert np.all(np.diag(cholesky(a)) > 0)


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
