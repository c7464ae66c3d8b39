"""Dense complex-matrix substrate for few-qubit density operators.

Everything here works on plain square numpy arrays of dimension 2, 4 or 8
(one to three qubits). Qubit ordering is big-endian throughout: qubit 0 is
the most significant bit of the basis index, so ``kron(a, b)`` puts ``a``
on the most significant qubit(s) and tracing out qubits 0 and 1 of a
three-qubit operator leaves qubit 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERM_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "DensityMatrixError",
    "NotHermitianError",
    "TraceError",
    "NotPositiveError",
    "identity",
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "kron",
    "partial_trace",
    "validate_density",
]

# Hermiticity/trace are direct entry comparisons; positivity goes through an
# eigensolve and is the noisiest check, hence the looser bound.
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class DensityMatrixError(ValueError):
    """A matrix failed one of the density-matrix invariants."""


class NotHermitianError(DensityMatrixError):
    pass


class TraceError(DensityMatrixError):
    pass


class NotPositiveError(DensityMatrixError):
    pass


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    out.setflags(write=False)
    return out


identity = _frozen(np.eye(2))
sigma_x = _frozen([[0, 1], [1, 0]])
sigma_y = _frozen([[0, -1j], [1j, 0]])
sigma_z = _frozen([[1, 0], [0, -1]])

def _check_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DensityMatrixError(f"{name} must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim not in (2, 4, 8):
        raise DensityMatrixError(f"{name} dimension must be 2, 4 or 8, got {dim}")
    if not np.all(np.isfinite(m)):
        raise DensityMatrixError(f"{name} contains non-finite entries")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with ``a`` on the most significant qubit(s).

    The combined dimension is capped at 8 (three qubits); anything larger
    is out of scope for this package and rejected.
    """
    a = _check_square(a, "a")
    b = _check_square(b, "b")
    dim = a.shape[0] * b.shape[0]
    if dim > 8:
        raise DensityMatrixError(f"tensor product dimension {dim} exceeds 8")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: set[int] | frozenset[int]) -> np.ndarray:
    """Trace out all qubits not in ``keep`` and return the reduced matrix.

    Parameters
    ----------
    rho : ndarray
        Square matrix on n qubits (dimension 2**n), big-endian qubit order.
    keep : set of int
        Qubit indices to retain, each in ``range(n)``. Must be a nonempty
        proper subset; use ``np.trace`` for the full trace instead.
    """
    rho = _check_square(rho, "rho")
    n = rho.shape[0].bit_length() - 1
    keep_list = sorted(keep)
    if not keep_list:
        raise ValueError("keep must name at least one qubit")
    if any(q < 0 or q >= n for q in keep_list):
        raise ValueError(f"keep indices must lie in range({n}), got {keep_list}")
    if len(keep_list) == n:
        raise ValueError("keep must be a proper subset of the qubits")

    traced = [q for q in range(n) if q not in keep]
    tensor = rho.reshape((2,) * (2 * n))
    # Contract row/column axes of each traced qubit, highest index first so
    # the remaining axis numbers stay valid.
    remaining = n
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 2 ** remaining
    return tensor.reshape(dim, dim)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants and return the matrix.

    Raises
    ------
    NotHermitianError
        Some entry differs from the conjugate of its transpose partner.
    TraceError
        The trace is not 1.
    NotPositiveError
        The spectrum has a genuinely negative eigenvalue.
    DensityMatrixError
        Structural problems: wrong shape, unsupported dimension, NaN/Inf.
    """
    m = _check_square(m, "density matrix")
    herm_defect = np.abs(m - m.conj().T).max()
    if herm_defect > HERM_TOL:
        raise NotHermitianError(f"not Hermitian (max deviation {herm_defect:.3e})")
    trace = np.trace(m)
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceError(f"trace is {trace:.15g}, expected 1")
    # Hermitian solver keeps the spectrum real; dims <= 8 make this cheap.
    lowest = np.linalg.eigvalsh(m)[0]
    if lowest < -PSD_TOL:
        raise NotPositiveError(f"negative eigenvalue {lowest:.3e}")
    return m
