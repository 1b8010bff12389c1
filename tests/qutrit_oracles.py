"""Test-side states and measurements shared by the numerics and security tests.

Named apart from ``perfbench/oracles.py``: both directories put their own
modules on ``sys.path``, so one name would shadow the other in a session
that collects both.
"""

import numpy as np

from otlab.numerics import DensityOperator, Povm, draw_povm_seeds, normalize_povm_seeds


def projector(vec) -> DensityOperator:
    """The pure state ``|vec><vec|``."""
    vec = np.asarray(vec, dtype=complex)
    return DensityOperator(np.outer(vec, vec.conj()))


def random_povm_elements(dim, n_elements, rng, real=False, rank=None):
    """Elements ``[n, dim, dim]`` of a random measurement: ``draw_povm_seeds``, normalized."""
    return normalize_povm_seeds(*draw_povm_seeds(dim, n_elements, rng, real, rank))


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
