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
