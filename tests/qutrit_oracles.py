"""Test-side states and measurements shared by the numerics, security and verify tests.

Also the element forms of the library's measurement kernels, which read
frames and Bloch vectors: POVM elements, sign-state probabilities and
information from elements, Example 1's elements, the tetrahedron states and
the qubit images as 2x2 matrices.  The tests compare the library against them.

Named apart from ``perfbench/oracles.py``: both directories put their own
modules on ``sys.path``, so one name would shadow the other in a session
that collects both.
"""

import numpy as np

from otlab import numerics, security
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
    root of their sum.  The one-POVM form of :func:`draw_povm_block`'s law.
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


def draw_povm_block(rng, dim, sizes, real=False, ranks=None):
    """Elements ``[s, N, dim, dim]`` of the frames of ``numerics._povm_frames``, complex."""
    frames = numerics._povm_frames(rng, dim, sizes, real, ranks)
    return numerics._frame_elements(frames).astype(complex, copy=False)


def returned_states(amplitudes, label):
    """``security.returned_states`` as each sign state's projector, weighted by one einsum.

    The four sign-state projectors ``[..., 4, 3, 3]``, for ``"joint"``, or
    their average into each label value, weighted 1/2 per sign state.
    """
    vecs = security._sign_rows(amplitudes)
    projectors = vecs[..., :, None] * vecs[..., None, :]
    if label == "joint":
        return projectors
    weights = security._LABEL_WEIGHTS[security._LABELS.index(label)]
    return np.einsum("gs,...sab->...gab", weights, projectors)


def sign_state_probabilities(elements, amplitudes):
    """Outcome probabilities ``[..., 4, n]`` of the sign states, in ``RY_ORDER``.

    ``elements[..., n, 3, 3]`` are qutrit measurement elements and
    ``amplitudes[..., 3]`` amplitude rows ``(a, b, c)``; leading axes
    broadcast.  The element form of ``security._frame_probabilities``.
    """
    states = security._sign_rows(amplitudes)
    return np.einsum("...si,...nij,...sj->...sn", states, elements, states).real


def sign_state_information(elements, amplitudes):
    """Information ``[..., 3]`` about y, r and y XOR r in a measurement's outcome.

    Takes the arguments of :func:`sign_state_probabilities`.  The entries
    equal ``mutual_information(returned_ensemble(params, label), povm)`` for
    the labels ``"y"``, ``"r"`` and ``"yxr"``.
    """
    return security._label_information(sign_state_probabilities(elements, amplitudes))


def example1_elements(alpha):
    """Elements ``[..., 4, 3, 3]`` of ``security.example1_povm``, one set per ``alpha``."""
    vectors = security._example_vectors(alpha)
    return vectors[..., :, None] * vectors[..., None, :]


def _tetrahedron():
    """Density matrices ``[4, 2, 2]`` of the Bloch vectors ``security._TETRA_BLOCH``, read-only."""
    ex, ey, ez = security._TETRA_BLOCH.T
    bloch = np.stack([ez, ex - 1j * ey, ex + 1j * ey, -ez], axis=-1).reshape(4, 2, 2)
    states = 0.5 * (np.eye(2) + bloch)
    states.setflags(write=False)
    return states


#: Four pure qubit states on a regular Bloch tetrahedron ``[4, 2, 2]``, in
#: ``RY_ORDER``: the fixed images of the four sign states under the dimension
#: reduction of :func:`lemma1_images`.  Their pairwise Hilbert-Schmidt
#: overlaps all equal 1/3 and their average is the maximally mixed qubit.
TETRAHEDRON = _tetrahedron()


def lemma1_images(elements, amplitudes, variant="exact"):
    """Qubit images ``[..., p, n, 2, 2]`` of elements ``[..., n, 3, 3]`` for rows ``[..., p, 3]``.

    The matrices ``t I + b . sigma`` of ``security._lemma1_bloch``, whose
    docstring describes both variants.
    """
    t, bloch = security._lemma1_bloch(elements, amplitudes, variant)
    x, y, z = np.moveaxis(bloch, -1, 0)
    images = np.empty(t.shape + (2, 2), dtype=complex)
    images[..., 0, 0] = t + z
    images[..., 1, 1] = t - z
    images[..., 0, 1] = x - 1j * y
    images[..., 1, 0] = x + 1j * y
    return images


def classical_mutual_information(joint):
    """Mutual information in bits of joint tables ``[..., rows, cols]``, as a masked ratio.

    The form ``numerics.classical_mutual_information`` had before it took
    its total and marginals with ``einsum`` and, later, passed its rows to
    ``numerics._information``: ``sum`` marginals, and a ratio masked by two
    nested ``np.where``.
    """
    joint = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    total = joint.sum(axis=(-2, -1), keepdims=True)
    joint = joint / np.where(total > 0, total, 1.0)
    denom = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    ratio = np.where(joint > 1e-300, joint / np.where(denom > 0, denom, 1.0), 1.0)
    info = np.maximum(0.0, np.sum(joint * np.log2(ratio), axis=(-2, -1)))
    return float(info) if info.ndim == 0 else info


def floored_information(cond, priors):
    """Information ``[...]`` and weights ``[..., i, n]`` of channels ``cond[..., i, n]``, floored.

    The search's statistic before ``numerics._information``: a zero ``p(k|i)``
    is floored at the smallest normal float, so its weight ``p_i log2(p(k|i)
    / q_k)`` is large and negative but multiplies a zero probability; an
    outcome that never fires gets weight 0.
    """
    marginal = (priors[:, None] * cond).sum(axis=-2, keepdims=True)
    fired = marginal > 0.0
    floored = np.maximum(cond, np.finfo(float).tiny)
    ratio = np.where(fired, floored / np.where(fired, marginal, 1.0), 1.0)
    weights = priors[:, None] * np.log2(ratio)
    return np.maximum(0.0, np.einsum("...in,...in->...", cond, weights)), weights


def frame_statistics(vecs, states, priors):
    """:func:`floored_information` of rank-1 frames ``vecs[..., n, d]`` on ``states[i, d, d]``.

    The search's ``_frame_statistics`` before it called ``numerics._information``.
    """
    probs = np.einsum("...na,iab,...nb->...in", vecs.conj(), states, vecs).real
    return floored_information(np.maximum(probs, 0.0), priors)
