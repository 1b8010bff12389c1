"""Test-side states and measurements shared by the numerics and security tests.

Named apart from ``perfbench/oracles.py``: both directories put their own
modules on ``sys.path``, so one name would shadow the other in a session
that collects both.
"""

import numpy as np

from otlab.numerics import DensityOperator, Povm


def projector(vec) -> DensityOperator:
    """The pure state ``|vec><vec|``."""
    vec = np.asarray(vec, dtype=complex)
    return DensityOperator(np.outer(vec, vec.conj()))


def random_povm_elements(dim, n_elements, rng, real=False, rank=None):
    """Elements ``[n, dim, dim]`` of one random measurement, drawn on its own.

    Each seed is a random PSD ``x x^dagger`` with ``x`` of shape
    ``(dim, rank)`` (default rank: full); ``real=True`` draws real ``x``.
    A draw whose sum is ill-conditioned is drawn again; if 100 draws in a row
    are, the last one gets a multiple of the identity as one more seed, so
    ``n = n_elements + 1``.  The seeds are conjugated by the inverse square
    root of their sum.  The one-POVM form of ``numerics.draw_povm_block``'s
    law.
    """
    rank = dim if rank is None else rank
    for _ in range(100):
        # Per seed: its real part, then (if complex) its imaginary part.
        z = rng.normal(size=(n_elements, 1 if real else 2, dim, rank))
        x = z[:, 0] if real else z[:, 0] + 1j * z[:, 1]
        seeds = x @ np.conj(np.swapaxes(x, -1, -2))
        w, v = np.linalg.eigh(seeds.sum(axis=0))
        if w.min() > 1e-3 * w.max():
            break
    else:
        seeds = np.concatenate([seeds, [0.01 * float(w.max()) * np.eye(dim)]])
        w, v = np.linalg.eigh(seeds.sum(axis=0))
    inv_sqrt = (v * (w ** -0.5)) @ np.conj(v.T)
    return (inv_sqrt @ seeds @ inv_sqrt).astype(complex)


def random_povm(dim, n_elements, rng, real=False, rank=None) -> Povm:
    """The :class:`Povm` of :func:`random_povm_elements` (same draws)."""
    return Povm(random_povm_elements(dim, n_elements, rng, real, rank))


def erlang_rows(rng, shape, n):
    """``n`` Dirichlet(shape, shape, shape) rows from one draw of ``[n, 3, shape]`` uniforms.

    ``numerics.dirichlet_blocks``'s draw, written as one call: each entry is
    the Erlang(shape) variable ``-log((1 - U1)...(1 - Us))``, and each row is
    divided by its sum.
    """
    gamma = -np.log((1.0 - rng.random((n, 3, shape))).prod(axis=2))
    return gamma / gamma.sum(axis=1, keepdims=True)
