import numpy as np
import pytest

from werner_teleport.density import (
    DensityMatrixError,
    NotHermitianError,
    NotPositiveError,
    TraceError,
    kron,
    partial_trace,
    sigma_x,
    sigma_z,
    validate_density,
)

from helpers import random_density

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)


# ---------------------------------------------------------------- kron

def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_product_big_endian():
    # |0><0| x |1><1| = |01><01|: index 1 in big-endian two-qubit ordering
    product = kron(KET0, KET1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1
    np.testing.assert_array_equal(product, expected)


def test_kron_matches_index_formula():
    # independent oracle: entry(i*n+k, j*n+l) = a(i,j) * b(k,l)
    a, b = sigma_x, sigma_z
    result = kron(a, b)
    n = b.shape[0]
    for i in range(2):
        for j in range(2):
            for k in range(n):
                for l in range(n):
                    assert result[i * n + k, j * n + l] == a[i, j] * b[k, l]


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_rejects_dimension_overflow():
    with pytest.raises(DensityMatrixError, match="exceeds"):
        kron(np.eye(4), np.eye(4))


def test_kron_rejects_non_square():
    with pytest.raises(DensityMatrixError):
        kron(np.ones((2, 3)), np.eye(2))


# ------------------------------------------------------- partial trace

def _partial_trace_oracle(rho, keep, n):
    # brute-force double sum over the traced-out basis indices (big-endian)
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    for ik in range(dim_keep):
        for jk in range(dim_keep):
            total = 0.0
            for t in range(2 ** len(traced)):
                i = j = 0
                for pos, q in enumerate(keep):
                    bit_i = (ik >> (len(keep) - 1 - pos)) & 1
                    bit_j = (jk >> (len(keep) - 1 - pos)) & 1
                    i |= bit_i << (n - 1 - q)
                    j |= bit_j << (n - 1 - q)
                for pos, q in enumerate(traced):
                    bit = (t >> (len(traced) - 1 - pos)) & 1
                    i |= bit << (n - 1 - q)
                    j |= bit << (n - 1 - q)
                total += rho[i, j]
            out[ik, jk] = total
    return out


def test_partial_trace_bell_marginal():
    phi_plus = np.zeros((4, 4), dtype=complex)
    phi_plus[np.ix_([0, 3], [0, 3])] = 0.5
    np.testing.assert_allclose(partial_trace(phi_plus, {0}), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(5)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 4)
    np.testing.assert_allclose(partial_trace(kron(rho_a, rho_b), {0}), rho_a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(kron(rho_a, rho_b), {1, 2}), rho_b, atol=1e-14)


@pytest.mark.parametrize("keep", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}])
def test_partial_trace_matches_double_sum_oracle(keep):
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(rng, 8)
        np.testing.assert_allclose(partial_trace(rho, keep),
                                   _partial_trace_oracle(rho, keep, 3), atol=1e-13)


def test_partial_trace_preserves_trace_and_validity():
    rng = np.random.default_rng(23)
    for dim, keep in [(4, {0}), (8, {2}), (8, {0, 1})]:
        rho = random_density(rng, dim)
        reduced = partial_trace(rho, keep)
        assert abs(np.trace(reduced) - 1) < 1e-12
        validate_density(reduced)


def test_partial_trace_rejects_empty_and_full_keep():
    rho = random_density(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(ValueError):
        partial_trace(rho, {0, 1})
    with pytest.raises(ValueError):
        partial_trace(rho, {0, 5})


# ------------------------------------------------------ validate_density

def test_validate_accepts_projector():
    out = validate_density(np.diag([1.0, 0.0]).astype(complex))
    assert out.shape == (2, 2)


def test_validate_trace_error():
    with pytest.raises(TraceError):
        validate_density(np.diag([0.5, 0.6]).astype(complex))


def test_validate_positivity_error():
    # eigenvalues 0.5 +- 0.6, i.e. 1.1 and -0.1
    bad = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
    with pytest.raises(NotPositiveError, match="-1"):
        validate_density(bad)


def test_validate_hermiticity_error():
    bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
    with pytest.raises(NotHermitianError):
        validate_density(bad)


def test_validate_rejects_non_finite():
    bad = np.diag([np.nan, 1.0]).astype(complex)
    with pytest.raises(DensityMatrixError, match="finite"):
        validate_density(bad)


def test_validate_rejects_unsupported_dimension():
    with pytest.raises(DensityMatrixError):
        validate_density(np.eye(3) / 3)


def test_error_types_are_distinct_value_errors():
    for err in (NotHermitianError, TraceError, NotPositiveError):
        assert issubclass(err, DensityMatrixError)
        assert issubclass(err, ValueError)
    assert NotHermitianError is not TraceError


def test_random_densities_validate():
    rng = np.random.default_rng(41)
    for dim in (2, 4, 8):
        validate_density(random_density(rng, dim))
