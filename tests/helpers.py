"""Shared test utilities: random states and reference formulas."""

import numpy as np


def random_density(rng, dim):
    """Ginibre construction: G G+ normalized to unit trace."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def fidelity_reference(a, b, g, e, th, ph, ps):
    """Independent transcription of the closed-form fidelity.

    Kept separate from the package so grid/search tests have an oracle
    that does not share code with the implementation under test.
    """
    return 0.5 * (
        (1 + e * np.cos(th) * np.cos(a) ** 2)
        + g * e * np.sin(th) * np.sin(2 * a) * np.sin(ph) * np.sin(b + ps)
        + g * g * e * np.cos(th / 2) ** 2 * np.cos(2 * ph) * np.sin(a) ** 2
        - g * g * e * np.sin(th / 2) ** 2 * np.sin(a) ** 2 * np.cos(2 * (b + ps))
    )


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def worst_case_reference(gamma, epsilon, theta, phi):
    """Exact worst case of F over the input state at a fixed correction.

    The protocol acts on the input's Bloch vector r = D n, with n a unit
    vector and D = diag(gamma, gamma, 1), as a depolarizing channel of
    strength epsilon followed by the rotation R of U0 (Bowen & Bose, PRL 87,
    267901, 2001), so F = (1 + epsilon r.R r)/2 and its minimum over n is
    (1 + epsilon lambda_min(D sym(R) D))/2. The worst case does not depend
    on psi (nor on the global phase chi), so U0 is taken at psi = chi = 0.
    Shares no code with the package's search.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    u = np.array([[c * np.exp(1j * phi), s], [-s, c * np.exp(-1j * phi)]])
    rotation = np.einsum("iab,bc,jcd,da->ij", _PAULI, u, _PAULI, u.conj().T).real / 2
    d = np.diag([gamma, gamma, 1.0])
    quadratic = d @ (rotation + rotation.T) / 2 @ d
    return 0.5 * (1 + epsilon * np.linalg.eigvalsh(quadratic)[0])
