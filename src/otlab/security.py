"""Single-instance adversary analysis for the one-time-table protocol.

A cheating sender's effective input is fully described by one nonnegative
amplitude triple ``(a, b, c)``: after the receiver's phase gate the returned
qutrit is one of the four equiprobable sign states

    (r, y) = (0,0): ( a,  b, c)      (r, y) = (0,1): ( a, -b, c)
    (r, y) = (1,0): (-a, -b, c)      (r, y) = (1,1): (-a,  b, c)

in the computational basis.  This module computes every security quantity of
that family in closed form (guessing probabilities, Holevo triples, binary
entropy tradeoff bounds), reduces arbitrary qutrit measurements on the sign
states to qubit measurements on a Bloch tetrahedron, evaluates the known
extremal example measurements, searches for accessible information by the
steepest-ascent fixed-point iteration over rank-1 measurements (reporting
Holevo's optimality conditions at the result), and samples the Haar
tradeoff curve between the leakage about ``y`` and the table correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import protocol
from .numerics import (COMPLETENESS_ATOL, Ensemble, Povm, _integer, _real, _shown,
                       _valid_ensemble, classical_mutual_information, dirichlet_blocks,
                       trace_distance, xlog2)

__all__ = [
    "CheatParams",
    "GuessProbs",
    "HolevoTriple",
    "Theorem3Report",
    "TradeoffCurve",
    "InfoDeltaReport",
    "SearchConfig",
    "SearchResult",
    "MaxHolevoSumResult",
    "RY_ORDER",
    "cheat_state_vectors",
    "returned_states",
    "returned_ensemble",
    "guess_probs",
    "holevo_triple",
    "binary_entropy",
    "tradeoff_bound_margins",
    "example1_povm",
    "example3_value",
    "accessible_info_search",
    "max_holevo_sum_search",
    "tradeoff_curve",
    "theorem3_report",
    "infodelta_check",
    "MAX_HOLEVO_SUM",
]

# (r, y) enumeration order used for all four-state families in this module.
RY_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))
# The phase gate's diagonals in RY_ORDER: the sign state of (r, y) is GATES[y, r] * (a, b, c).
_SIGNS = np.array([protocol.GATES[y, r].real for r, y in RY_ORDER])

# Bloch vectors of the tetrahedron images of the sign states, one row per (r, y) in RY_ORDER.
_TETRA_BLOCH = np.array([[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]],
                        dtype=float) / np.sqrt(3.0)

#: Analytic maximum of chi_y + chi_r over the amplitude triple family.
MAX_HOLEVO_SUM = float(np.log2(3.0 + np.sqrt(5.0)) - 1.0)


@dataclass(frozen=True)
class CheatParams:
    """Nonnegative amplitude triple with ``a^2 + b^2 + c^2 = 1``."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = _real(getattr(self, name), name)
            if value < -1e-12:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, value)
        # Products of floats overflow to inf, where ``**`` raises OverflowError.
        norm_sq = sum(v * v for v in (self.a, self.b, self.c))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"squares sum to {norm_sq}, expected 1")

    @classmethod
    def from_squares(cls, a2: float, b2: float, c2: float) -> "CheatParams":
        # A square at or below 0 (negative drift) clamps to 0; NaN stays NaN and is rejected.
        return cls(*(math.sqrt(0.0 if s <= 0.0 else s) for s in (a2, b2, c2)))

    @classmethod
    def honest(cls, x: int) -> "CheatParams":
        """Effective triple of an honest sender with input bit ``x``: her t = 0 state."""
        return cls(*protocol.alice_prepare(x, 0).amplitudes.real.tolist())

    @classmethod
    def learn_y(cls) -> "CheatParams":
        """The y-extracting cheat state ``(|0> + |1>)/sqrt(2)``: the extremal family at 0."""
        return cls.from_alpha(0.0)

    @classmethod
    def from_alpha(cls, alpha: float) -> "CheatParams":
        """Extremal family ``(1, cos(alpha), sin(alpha))/sqrt(2)``, ``alpha`` in ``[0, pi/2]``."""
        alpha = _quarter_turn(_real(alpha, "alpha"))
        s = 1.0 / np.sqrt(2.0)
        return cls(s, float(np.cos(alpha)) * s, float(np.sin(alpha)) * s)

    @property
    def squares(self) -> np.ndarray:
        return np.array([self.a ** 2, self.b ** 2, self.c ** 2])


@dataclass(frozen=True)
class GuessProbs:
    """Optimal single-shot guessing probabilities for y, r and y XOR r."""

    p_y: float
    p_r: float
    p_yxr: float

    def __post_init__(self):
        for name in ("p_y", "p_r", "p_yxr"):
            val = getattr(self, name)
            if not (0.5 - 1e-12 <= val <= 1.0 + 1e-12):
                raise ValueError(f"{name}={_shown(val)} outside [1/2, 1]")
        for other in (self.p_r, self.p_yxr):
            lhs = (other - 0.5) ** 2 + (self.p_y - 0.5) ** 2
            if lhs > 0.25 + 1e-12:
                raise ValueError(f"circle constraint violated: {lhs} > 1/4")


@dataclass(frozen=True)
class HolevoTriple:
    """Holevo quantities (bits) for the y, r and y XOR r binary ensembles."""

    chi_y: float
    chi_r: float
    chi_yxr: float

    def __post_init__(self):
        for name in ("chi_y", "chi_r", "chi_yxr"):
            val = getattr(self, name)
            if not (-1e-12 <= val <= 1.0 + 1e-12):
                raise ValueError(f"{name}={_shown(val)} outside [0, 1]")


def _sign_rows(amplitudes) -> np.ndarray:
    """Sign states ``[..., 4, 3]`` of amplitude rows ``[..., 3]``, in ``RY_ORDER``."""
    return _SIGNS * np.asarray(amplitudes, dtype=float)[..., None, :]


def cheat_state_vectors(params: CheatParams) -> np.ndarray:
    """The four returned sign states as real rows, in ``RY_ORDER``."""
    return _sign_rows([params.a, params.b, params.c])


_LABELS = ("y", "r", "yxr")
# Weight of each sign state in the joint table of each label and label value:
# a prior of 1/2 on the value times the 1/2 of each state averaged into it.
_LABEL_WEIGHTS = 0.25 * np.array([[[dict(y=y, r=r, yxr=y ^ r)[label] == value for r, y in RY_ORDER]
                                   for value in (0, 1)] for label in _LABELS])
# Per label, the sign pattern sum_s w_gs s_a s_b of its returned states [g, 3, 3] (weight 1/2
# per sign state s averaged into g), and their uniform prior; "joint" is the four sign states.
_STATE_SIGNS = {label: np.einsum("gs,sa,sb->gab", 2.0 * weights, _SIGNS, _SIGNS)
                for label, weights in zip(_LABELS, _LABEL_WEIGHTS)}
_STATE_SIGNS["joint"] = _SIGNS[:, :, None] * _SIGNS[:, None, :]
_PRIORS = {label: np.full(len(signs), 1.0 / len(signs)) for label, signs in _STATE_SIGNS.items()}


def returned_states(amplitudes, label: str) -> np.ndarray:
    """Returned states ``[..., 2, 3, 3]`` of amplitude rows ``[..., 3]``, grouped by ``label``.

    ``label`` is one of ``"y"``, ``"r"``, ``"yxr"`` (the two equiprobable
    mixed states of each label value, averaged over the hidden bit) or
    ``"joint"`` (the four pure sign states in ``RY_ORDER``, ``[..., 4, 3, 3]``).
    Each state is the label's sign pattern times the outer product of its row.
    """
    signs = _STATE_SIGNS.get(label)
    if signs is None:
        raise ValueError(f"unknown label {label!r}")
    amps = np.asarray(amplitudes, dtype=float)
    return signs * (amps[..., :, None] * amps[..., None, :])[..., None, :, :]


def returned_ensemble(params: CheatParams, label: str) -> Ensemble:
    """Uniform ensemble of :func:`returned_states`.

    The states of a validated triple are density operators by construction,
    so they are not checked again.  They are copied once, into one complex
    stack with a last slot for their average; one ``eigvalsh`` of it gives
    their spectra and their average's, and only the states' spectra are
    checked against the floor.
    """
    states = returned_states([params.a, params.b, params.c], label)
    return _valid_ensemble(_PRIORS[label], states)


def _frame_probabilities(frames, amplitudes) -> np.ndarray:
    """Probabilities ``[..., p, 4, n]`` of frames ``[..., n, r, 3]`` and rows ``[..., p, 3]``.

    Leading axes broadcast; the sign states are in ``RY_ORDER``.  Element
    ``n`` is ``sum_k v_k v_k^dagger`` over its frame vectors
    ``frames[..., n, k, :]`` (a rank-1 measurement has ``r = 1``), so its
    probability on the real sign state ``psi`` is ``sum_k |v_k . psi|^2``:
    no element is formed (``tests/qutrit_oracles.py`` holds that form), and
    every overlap comes from one matmul per leading index.
    """
    frames = np.asarray(frames)
    states = _sign_rows(amplitudes)                                        # [..., p, 4, 3]
    n, r, d = frames.shape[-3:]
    p = states.shape[-3]
    vectors = np.moveaxis(frames, -1, -3).reshape(frames.shape[:-3] + (d, n * r))
    overlaps = states.reshape(states.shape[:-3] + (p * 4, d)) @ vectors   # [..., 4p, n r]
    overlaps = overlaps.reshape(overlaps.shape[:-2] + (p, 4, n, r))
    if np.iscomplexobj(overlaps):   # |z|^2 as the sum of squares of its real and imaginary parts
        overlaps = overlaps.view(float)
    return np.einsum("...k,...k->...", overlaps, overlaps)


def _label_information(probs) -> np.ndarray:
    """Information ``[..., 3]`` about y, r and y XOR r of sign-state probabilities ``[..., 4, n]``.

    On a measurement's probabilities the entries equal ``mutual_information(
    returned_ensemble(params, label), povm)`` for the labels ``"y"``, ``"r"`` and ``"yxr"``.
    """
    return classical_mutual_information(np.einsum("lgs,...sn->...lgn", _LABEL_WEIGHTS, probs))


def guess_probs(params: CheatParams) -> GuessProbs:
    """Closed forms ``1/2 + ab``, ``1/2 + ac``, ``1/2 + bc``.

    Each equals the Helstrom value ``(1 + D)/2`` for the trace distance D of
    the corresponding binary ensemble (2ab, 2ac, 2bc respectively).
    """
    a, b, c = params.a, params.b, params.c
    return GuessProbs(p_y=0.5 + a * b, p_r=0.5 + a * c, p_yxr=0.5 + b * c)


def _triple_from_squares(a2, b2, c2):
    """Vectorized closed forms of the three Holevo quantities."""
    a2 = np.clip(np.asarray(a2, dtype=float), 0.0, 1.0)
    b2 = np.clip(np.asarray(b2, dtype=float), 0.0, 1.0)
    c2 = np.clip(np.asarray(c2, dtype=float), 0.0, 1.0)
    # Terms summed in the nine-term order, so results are bitwise those of
    # taking each xlog2 separately (TestTripleFromSquares checks this); on
    # arrays the sums and the clamp at 0 go in place.
    la, lb, lc = xlog2(a2), xlog2(b2), xlog2(c2)
    chis = []
    for first, second, rest in ((la, lb, c2), (la, lc, b2), (lb, lc, a2)):
        chi = -first
        chi -= second
        chi += xlog2(1.0 - rest)
        chis.append(np.maximum(chi, 0.0, out=chi if isinstance(chi, np.ndarray) else None))
    return tuple(chis)


def holevo_triple(params: CheatParams) -> HolevoTriple:
    """Closed-form Holevo triple of the amplitude family.

    chi_y = -a^2 log a^2 - b^2 log b^2 + (1 - c^2) log (1 - c^2), and
    cyclically for chi_r (b^2 <-> c^2 roles) and chi_{y xor r}.  Agrees with
    the eigendecomposition-based Holevo quantity of
    :func:`returned_ensemble` to 1e-10.
    """
    # The six entropy terms of _triple_from_squares in one xlog2 and then in
    # Python floats, in its order (bitwise equal, TestHolevoTriple checks):
    # numpy's per-call cost on 0-d values would dominate otherwise.
    a2, b2, c2 = (min(max(s, 0.0), 1.0) for s in (params.a ** 2, params.b ** 2, params.c ** 2))
    la, lb, lc, ma, mb, mc = xlog2([a2, b2, c2, 1.0 - a2, 1.0 - b2, 1.0 - c2]).tolist()
    return HolevoTriple(chi_y=max(-la - lb + mc, 0.0), chi_r=max(-la - lc + mb, 0.0),
                        chi_yxr=max(-lb - lc + ma, 0.0))


def binary_entropy(delta):
    """``h(delta) = -(1-delta) log2(1-delta) - delta log2 delta`` on [0, 1].

    Elementwise for arrays; a float for scalar input.
    """
    delta = np.asarray(delta, dtype=float)
    inside = (delta >= 0.0) & (delta <= 1.0)
    if not inside.all():
        raise ValueError(f"argument {delta[~inside].flat[0]} outside [0, 1]")
    # -xlog2(delta) - xlog2(1 - delta), negated and subtracted in place on arrays.
    bits = xlog2(delta)
    bits = np.negative(bits, out=bits) if delta.ndim else -bits
    bits -= xlog2(1.0 - delta)
    return bits


def tradeoff_bound_margins(chi_y, chi_r, chi_yxr) -> tuple:
    """Margins of the binary-entropy tradeoff bounds, on the rows where they apply.

    When ``delta = 1 - chi_r`` lies in [0, 1/2), both chi_y and chi_yxr are
    at most ``h(delta)``; when ``delta' = 1 - chi_yxr`` does, both chi_r and
    chi_y are at most ``h(delta')``.  Gives one pair ``(rows, margins)`` per
    anchor, chi_r's first: ``rows`` indexes the flattened broadcast inputs
    where the anchor's bound applies (never where it is NaN), and
    ``margins[len(rows), 2]`` holds ``bound - value`` there, in the order
    above, nonnegative where the bound holds.  ``binary_entropy`` is taken
    of those rows' deltas only.
    """
    chi_y, chi_r, chi_yxr = (chi.ravel() for chi in np.broadcast_arrays(
        *(np.asarray(chi, dtype=float) for chi in (chi_y, chi_r, chi_yxr))))
    out = []
    for anchor, others in ((chi_r, (chi_y, chi_yxr)), (chi_yxr, (chi_r, chi_y))):
        # 0 <= 1 - anchor < 1/2 exactly when 1/2 < anchor <= 1: the difference
        # is exact for anchors in [1/2, 2] (Sterbenz) and rounds to at least
        # 1/2 below them.
        rows = np.flatnonzero((anchor > 0.5) & (anchor <= 1.0))
        bound = binary_entropy(1.0 - anchor.take(rows))
        margins = np.empty((rows.size, 2))
        for col, other in enumerate(others):
            np.subtract(bound, other.take(rows), out=margins[:, col])
        out.append((rows, margins))
    return tuple(out)


def _lemma1_bloch(elements, amplitudes, variant: str = "exact") -> tuple:
    """Qubit images of elements ``[..., n, 3, 3]`` for rows ``[..., p, 3]``, in Bloch form.

    Leading axes broadcast.  Row ``(a, b, c)`` maps element ``n`` to the
    image ``t I + b . sigma``: ``t`` is ``[..., p, n]`` and ``b`` (x, y, z)
    ``[..., p, n, 3]``, both real, so every image is Hermitian by
    construction (``tests/qutrit_oracles.py`` builds the 2x2 matrices).  Its
    probability on the tetrahedron state of Bloch vector ``r``
    (``_TETRA_BLOCH``) is ``t + b . r`` and its eigenvalues ``t +- |b|``.
    With ``M`` an element's real part, ``(f, g, h)`` its diagonal and ``u, v,
    w = M[0,1], M[0,2], M[1,2]``, ``t = a^2 f + b^2 g + c^2 h`` and ``b`` is
    ``2*sqrt(3) * (ab*u, bc*w, ac*v)`` for variant "exact", the unique image
    with every outcome probability of the sign states (complete, not always
    PSD), or ``sqrt(3) * (ab*u, ac*v, bc*w)`` for "psd", a genuine POVM whose
    distribution is the exact one shrunk halfway to the average state's.
    """
    if variant not in ("exact", "psd"):
        raise ValueError(f"unknown variant {variant!r}")
    # The real part drops i*(antisymmetric) exactly and stays symmetric PSD;
    # its entries get a unit p axis and the amplitudes a unit n axis.
    real = np.asarray(elements).real[..., None, :, :, :]
    amps = np.asarray(amplitudes, dtype=float)[..., None]
    a, b, c = amps[..., 0, :], amps[..., 1, :], amps[..., 2, :]
    f, g, h = real[..., 0, 0], real[..., 1, 1], real[..., 2, 2]
    u, v, w = real[..., 0, 1], real[..., 0, 2], real[..., 1, 2]
    t = a * a * f + b * b * g + c * c * h
    if variant == "exact":
        scale, xyz = 2.0 * np.sqrt(3.0), (a * b * u, b * c * w, a * c * v)
    else:
        scale, xyz = np.sqrt(3.0), (a * b * u, a * c * v, b * c * w)
    # Component by component, so that each component is one contiguous array.
    bloch = np.empty((3,) + t.shape)
    for axis, component in enumerate(xyz):
        np.multiply(scale, component, out=bloch[axis])
    return t, np.moveaxis(bloch, 0, -1)


def _bloch_is_measurement(t, bloch):
    """:func:`numerics.is_measurement` of the images ``t I + b . sigma`` ``[..., n]``, ``[...]``.

    Real ``t`` and ``b`` make every image Hermitian, so only completeness is
    tested: the images' sum is ``(T + B_z, B_x - i B_y; B_x + i B_y, T - B_z)``,
    and its largest entrywise distance from the identity,
    ``max(|T +- B_z - 1|, |B_x +- i B_y|)``, must be at most
    ``COMPLETENESS_ATOL``.  A NaN never passes.
    """
    total, (bx, by, bz) = np.sum(t, axis=-1), np.moveaxis(np.sum(bloch, axis=-2), -1, 0)
    gap = np.maximum(np.maximum(np.abs(total + bz - 1.0), np.abs(total - bz - 1.0)),
                     np.hypot(bx, by))
    return gap <= COMPLETENESS_ATOL


def _bloch_least_eigenvalues(t, bloch):
    """Least eigenvalues ``t - |b|`` ``[...]`` of the images ``t I + b . sigma``: no eigensolve."""
    return t - np.sqrt(np.sum(bloch * bloch, axis=-1))


def _quarter_turn(alpha) -> np.ndarray:
    """``alpha`` as a float array; ValueError unless every entry lies in ``[0, pi/2 + 1e-12]``."""
    alpha = np.asarray(alpha, dtype=float)
    outside = ~((alpha >= 0.0) & (alpha <= np.pi / 2 + 1e-12))
    if outside.any():
        raise ValueError(f"alpha {alpha[outside].flat[0]} outside [0, pi/2]")
    return alpha


# Columns e_1 and e_2 of the rows of _example_vectors, before the 1/sqrt(2).
_EXAMPLE_SIGNS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _example_vectors(alpha) -> np.ndarray:
    """Frame rows ``[..., 4, 3]`` of :func:`example1_povm`, one per outcome.

    The rows are ``cos alpha e_0 +- e_1`` and ``sin alpha e_0 +- e_2``, each
    over sqrt(2).  Every alpha must lie in ``[0, pi/2]``.
    """
    alpha = _quarter_turn(alpha)
    vectors = np.empty(alpha.shape + (4, 3))
    vectors[..., :2, 0] = np.cos(alpha)[..., None]
    vectors[..., 2:, 0] = np.sin(alpha)[..., None]
    vectors[..., 1:] = _EXAMPLE_SIGNS
    vectors /= np.sqrt(2.0)
    return vectors


def example1_povm(alpha: float) -> Povm:
    """Four-outcome rank-1 qutrit measurement that splits y- and r-information.

    On the extremal input family :meth:`CheatParams.from_alpha` it extracts
    ``cos^2(alpha)`` bits about y and ``sin^2(alpha)`` bits about r, summing
    to exactly one bit.  Its elements are ``v v^T`` of its frame's rows.
    """
    vectors = _example_vectors(float(alpha))
    return Povm(vectors[:, :, None] * vectors[:, None, :])


def example3_value(a):
    """Closed-form joint-information value of the alpha-family measurement.

    For amplitude ``a``, a scalar or an array, and ``b' = sqrt(1 - a^2)``
    returns ``(a+b')^2 log2(a+b') + (a-b')^2 log2|a-b'|`` with vanishing terms
    dropped, a ``float`` for a scalar; equals the measured information sum
    of the matching :func:`example1_povm` on any state ``(a, b' cos t, b' sin t)``.
    """
    a = np.asarray(a, dtype=float)
    outside = ~((a >= 0.0) & (a <= 1.0))
    if outside.any():
        raise ValueError(f"a {a[outside][0]} outside [0, 1]")
    b_prime = np.sqrt(np.maximum(0.0, 1.0 - a * a))
    total = sum(x ** 2 * np.log2(x, out=np.zeros(a.shape), where=x > 0.0)
                for x in (a + b_prime, np.abs(a - b_prime)))
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Accessible-information search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Random starts and iteration budget of :func:`accessible_info_search`.

    Both are integers >= 0 (:func:`numerics._integer`); ``(0, 0)`` runs the
    seed frames alone.
    """

    n_starts: int = 32
    max_iters: int = 400

    def __post_init__(self):
        for name in ("n_starts", "max_iters"):
            if _integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be an integer >= 0, not {getattr(self, name)!r}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best measurement found, with Holevo's optimality conditions at it.

    With ``R_k`` the information gradient of element ``Pi_k`` and
    ``G = sum_k R_k Pi_k`` (Hermitian part), a stationary measurement has
    ``stationarity = max_k ||Pi_k (G - R_k)||_2 = 0``, and a maximum also
    has ``min_condition_eig = min_k lambda_min(G - R_k) >= 0``.  A real
    frame's ``G - R_k`` are real symmetric, and a real symmetric matrix is
    PSD over the complex numbers exactly when it is PSD over the reals, so
    its eigenvalue checks the complex conditions too.
    """

    best_value: float
    best_povm: Povm
    stationarity: float
    min_condition_eig: float


# Alphas at which the one-parameter example measurements seed the search.
_SEED_ALPHAS = np.linspace(0.0, np.pi / 2, 5)


def _seed_frames(states: np.ndarray, priors: np.ndarray) -> list:
    """Rank-1 direction rows of the known extremal measurements of the ensemble.

    Basis, average-eigenbasis and Helstrom measurements; for a qutrit also
    the three plane bases and :func:`example1_povm` on the alpha grid
    ``_SEED_ALPHAS``.  No other dimension has seeds of its own: an entangled
    two-qutrit input acts as the qutrit amplitude triple of its sent
    qutrit's reduced diagonal (:func:`tradeoff_curve`).
    """
    dim = states.shape[-1]
    frames = [np.eye(dim), np.linalg.eigh(np.tensordot(priors, states, 1))[1].T]
    if len(states) == 2:
        frames.append(np.linalg.eigh(states[0] - states[1])[1].T)
    if dim == 3:
        for i, j in ((0, 1), (0, 2), (1, 2)):
            plane = np.eye(3)
            plane[[i, j]] = np.array([[1.0, 1.0], [1.0, -1.0]]) @ plane[[i, j]] / np.sqrt(2.0)
            frames.append(plane)
        frames.extend(_example_vectors(_SEED_ALPHAS))
    return frames


# Smallest normal float: the floor of a zero outcome probability.
_TINY = np.finfo(float).tiny


def _frame_statistics(vecs: np.ndarray, states: np.ndarray, priors: np.ndarray):
    """Information and gradient weights of rank-1 measurements.

    ``vecs[..., n, d]`` holds the rows ``v_k`` of elements
    ``Pi_k = v_k v_k^dagger``.  Returns the information ``[...]`` in bits and
    the weights ``p_i log2(p(k|i) / q_k)`` ``[..., i, n]`` of the gradient
    ``R_k = sum_i weight_ik rho_i``.  A zero ``p(k|i)`` is floored at the
    smallest normal float, so its weight is large and negative (it is
    ``-inf`` in exact arithmetic) but multiplies a zero probability; an
    element that never fires gets weight 0.  The information is
    ``sum_ik p(k|i) weight_ik``, each log ratio computed once.
    """
    probs = np.einsum("...na,iab,...nb->...in", vecs.conj(), states, vecs).real
    probs = np.maximum(probs, 0.0)
    marginal = (priors[:, None] * probs).sum(axis=-2, keepdims=True)
    fired = marginal > 0.0
    floored = np.maximum(probs, _TINY)
    ratio = np.where(fired, floored / np.where(fired, marginal, 1.0), 1.0)
    weights = priors[:, None] * np.log2(ratio)
    return np.maximum(0.0, np.einsum("...in,...in->...", probs, weights)), weights


def _normalize(rows: np.ndarray):
    """Rows ``Lambda^{-1/2} w_k`` with ``Lambda = sum_k w_k w_k^dagger``, and which are valid.

    A frame is valid when the minimum eigenvalue of its ``Lambda`` exceeds
    1e-10; an invalid frame comes back unnormalized.
    """
    lam = np.swapaxes(rows, -1, -2) @ rows.conj()
    eig, basis = np.linalg.eigh(lam)
    valid = eig[..., 0] > 1e-10
    scale = np.where(valid[..., None], eig, 1.0)[..., None, :] ** -0.5
    inv_sqrt = (basis * scale) @ np.swapaxes(basis, -1, -2).conj()
    return rows @ np.swapaxes(inv_sqrt, -1, -2), valid


def accessible_info_search(ensemble: Ensemble, config: SearchConfig | None = None,
                           rng: np.random.Generator | None = None) -> SearchResult:
    """Lower-bound the accessible information by steepest-ascent iteration.

    The iteration of Rehacek, Englert and Kaszlikowski (PRA 71, 054303,
    2005) on rank-1 measurements, each element ``Pi_k = v_k v_k^dagger``
    taking the step ``w_k = (1 + eps R_k) v_k``, ``v_k <- Lambda^{-1/2} w_k``
    with ``Lambda = sum_k w_k w_k^dagger`` and the gradient
    ``R_k = sum_i p_i rho_i log2(p(k|i) / q_k)``.  A step is taken only if it
    raises the information and ``Lambda`` is well conditioned; otherwise that
    start's ``eps`` halves.  A real ensemble (every imaginary part exactly 0)
    runs on real frames of ``d(d+1)/2`` rows, enough for a real optimum
    (Sasaki, Barnett, Jozsa, Osaki and Hirota, PRA 59, 3325, 1999); any
    other on complex frames of ``d^2`` rows, enough by Davies' theorem.  The
    starts -- the known extremal measurements, zero-padded (a zero row stays
    zero), and ``config.n_starts`` Gaussian frames -- run in lockstep as one
    stack.  The result is deterministic for a given generator and never
    exceeds the Holevo quantity of the ensemble.
    """
    cfg = config or SearchConfig()
    rng = np.random.default_rng(0) if rng is None else rng
    priors = ensemble.probabilities
    states = ensemble.matrices
    dim = ensemble.dim
    if states.imag.any():
        noise = rng.normal(size=(cfg.n_starts, 2, dim * dim, dim))
        noise = noise[:, 0] + 1j * noise[:, 1]
    else:
        states = states.real
        noise = rng.normal(size=(cfg.n_starts, dim * (dim + 1) // 2, dim))
    seeds = _seed_frames(states, priors)
    starts = np.zeros((len(seeds),) + noise.shape[1:], dtype=noise.dtype)
    for idx, frame in enumerate(seeds):
        starts[idx, :len(frame)] = frame
    vecs, valid = _normalize(np.concatenate([starts, noise]))
    vecs = vecs[valid]
    info, weights = _frame_statistics(vecs, states, priors)
    eps = np.ones(len(vecs))
    flat_states = states.reshape(len(states), dim * dim)
    for _ in range(cfg.max_iters):
        # R_k as one matmul, then R_k v_k: faster than one three-operand einsum.
        r_k = (np.swapaxes(weights, -1, -2) @ flat_states).reshape(vecs.shape + (dim,))
        grad = np.einsum("snab,snb->sna", r_k, vecs)
        cand, valid = _normalize(vecs + eps[:, None, None] * grad)
        cand_info, cand_weights = _frame_statistics(cand, states, priors)
        step = valid & (cand_info > info)
        np.copyto(vecs, cand, where=step[:, None, None])
        np.copyto(info, cand_info, where=step)
        np.copyto(weights, cand_weights, where=step[:, None, None])
        eps[~step] *= 0.5
    best = int(np.argmax(info))
    used = np.any(vecs[best] != 0.0, axis=-1)
    rows = vecs[best, used]
    elements = rows[:, :, None] * rows[:, None, :].conj()
    grads = np.einsum("in,iab->nab", weights[best][:, used], states)
    total = np.einsum("nab,nbc->ac", grads, elements)
    gaps = 0.5 * (total + total.conj().T) - grads
    return SearchResult(
        best_value=float(info[best]), best_povm=Povm(elements),
        stationarity=float(np.linalg.norm(elements @ gaps, ord=2, axis=(-2, -1)).max()),
        min_condition_eig=float(np.linalg.eigvalsh(gaps).min()))


# ---------------------------------------------------------------------------
# Global maximum of chi_y + chi_r and the Haar tradeoff curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxHolevoSumResult:
    max_sum: float
    argmax: CheatParams
    constrained_max: float     # along the symmetric slice b^2 = c^2
    unconstrained_max: float   # free 2-d search over the simplex


def _chi_sum_of_squares(a2, b2):
    """``chi_y + chi_r`` at ``(a2, b2, 1 - a2 - b2)``; -inf off the simplex."""
    a2, b2 = np.broadcast_arrays(np.asarray(a2, dtype=float), np.asarray(b2, dtype=float))
    c2 = 1.0 - a2 - b2
    chi_y, chi_r, _ = _triple_from_squares(a2, b2, c2)
    return np.where((a2 >= 0.0) & (b2 >= 0.0) & (c2 >= -1e-15), chi_y + chi_r, -np.inf)


def _zoom_max(f, center) -> tuple:
    """``(x, f(x))`` at the maximum of ``f`` by a zooming grid around ``center``.

    Each of 12 rounds evaluates ``f`` once on the :func:`numpy.ix_` axes of
    a grid of 41 points per coordinate, first over a window 1 wide, and
    recentres a window four grid steps wide on its best point, so the
    window shrinks tenfold per round.  ``f`` gives -inf off its domain.
    """
    points, center, half = 41, np.atleast_1d(center), 0.5
    for _ in range(12):
        axes = np.ix_(*(c + np.linspace(-half, half, points) for c in center))
        values = f(*axes)
        best = np.unravel_index(np.argmax(values), values.shape)
        center = np.array([axis.flat[i] for axis, i in zip(axes, best)])
        half = 4.0 * half / (points - 1)
    return center, float(values[best])


def max_holevo_sum_search() -> MaxHolevoSumResult:
    """Maximize ``chi_y + chi_r`` over amplitude triples by :func:`_zoom_max`.

    Primary route: along the symmetric slice ``b^2 = c^2``, where the sum
    is a unimodal function of ``b^2``.  Cross-check: over the free ``(a^2,
    b^2)`` simplex; the two routes agree to 1e-8.
    """
    (b2_star,), constrained = _zoom_max(
        lambda b2: _chi_sum_of_squares(1.0 - 2.0 * b2, b2), 0.25)
    argmax = CheatParams.from_squares(1.0 - 2.0 * b2_star, b2_star, b2_star)
    _, unconstrained = _zoom_max(_chi_sum_of_squares, (0.5, 0.5))
    return MaxHolevoSumResult(max_sum=constrained, argmax=argmax,
                              constrained_max=constrained, unconstrained_max=unconstrained)


def _curve_blocks(rng: np.random.Generator, n: int):
    """Each block of Haar diagonals, Dirichlet(3, 3, 3) rows, with its closed-form triple."""
    for squares in dirichlet_blocks(rng, 3, n):
        yield squares, _triple_from_squares(*squares.T)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Binned maxima of chi_y against max(chi_r, chi_yxr) over Haar samples.

    Holds no per-sample array: ``rng_state`` is the bit-generator state the
    samples were drawn from, and :attr:`triples` replays them from it on
    first read.
    """

    n_samples: int
    bin_width: float
    bins: tuple                 # ((center, max_h2), ...) sorted, empty bins omitted
    max_sum: float              # max over samples of chi_y + max(chi_r, chi_yxr)
    argmax: CheatParams
    rng_state: dict             # bit_generator.state before the first sample

    @cached_property
    def triples(self) -> np.ndarray:
        """``[n, 3]``: chi_y, chi_r, chi_yxr per sample, replayed from ``rng_state``."""
        bit_generator = getattr(np.random, self.rng_state["bit_generator"])()
        bit_generator.state = self.rng_state
        return np.concatenate([np.column_stack(triple) for _, triple in
                               _curve_blocks(np.random.Generator(bit_generator), self.n_samples)])

    @property
    def h1(self) -> np.ndarray:
        return np.maximum(self.triples[:, 1], self.triples[:, 2])

    @property
    def h2(self) -> np.ndarray:
        return self.triples[:, 0]

    @cached_property
    def envelope_violations(self) -> int:
        """Bins with left edge ``l >= 1/2`` whose maximum ``chi_y`` exceeds ``h(1 - l) + 1e-9``."""
        centers, values = np.array(self.bins).T
        left = centers - self.bin_width / 2.0
        upper = left >= 0.5
        return int(np.sum(values[upper] > binary_entropy(1.0 - left[upper]) + 1e-9))

    @property
    def violations(self) -> int:
        """:attr:`envelope_violations`, plus one if ``max_sum > MAX_HOLEVO_SUM + 1e-6``."""
        return self.envelope_violations + int(self.max_sum > MAX_HOLEVO_SUM + 1e-6)


def tradeoff_curve(n_samples: int, bin_width: float = 0.01,
                   rng: np.random.Generator | None = None) -> TradeoffCurve:
    """Sample the Holevo tradeoff curve from Haar-random two-qutrit inputs.

    A sender who keeps one qutrit of an entangled pair and sends the other
    gains nothing over a single qutrit: a control unitary on the kept qutrit
    commutes with every receiver gate, so the input acts exactly as the
    amplitude triple whose squares are the diagonal of the sent qutrit's
    reduced operator.  A sample enters only through that diagonal, drawn
    from its exact law: each entry sums three squared moduli of i.i.d.
    complex Gaussians over the kept qutrit, a Gamma(3) variable, so the
    normalized diagonal is Dirichlet(3, 3, 3).  Each squared modulus is an
    Exp(1) variable ``-log(1 - U)`` of a uniform U, so an entry is drawn as
    the Erlang(3) variable ``-log((1 - U1)(1 - U2)(1 - U3))`` by
    :func:`numerics.dirichlet_blocks` at shape 3, which keeps it finite.
    Its closed-form Holevo triple is computed, and the per-bin maximum of
    ``chi_y`` is recorded over left-closed bins ``[k*w, (k+1)*w)`` of
    ``max(chi_r, chi_yxr) <= 1``; a width ``w >= 2**-53`` keeps every ``k``
    an exact integer.  ``n_samples`` is an integer in [1, 2**63 - 1] and
    ``bin_width`` a real (:func:`numerics._integer`, :func:`numerics._real`).

    Samples go through in the blocks of :func:`numerics.dirichlet_blocks`,
    drawn in stream order, so the result is that of one draw of all
    samples, and no block is kept.  While the ``floor(1/w) + 1`` bins that
    cover [0, 1] number at most ``n_samples``, each block takes its per-bin
    maxima into one dense array indexed by ``k``, grown to the largest
    ``k`` a block reaches (``max(chi_r, chi_yxr)`` can round a few ulps
    above 1), so memory is that of one block.  With more bins than samples,
    each sample's ``k`` and ``chi_y`` are kept and the occupied bins are
    found by one sort of the ``k`` instead.  Either way each bin holds the
    maximum of the same samples, so the bins are the same.
    """
    n, bin_width = _integer(n_samples, "n_samples"), _real(bin_width, "bin_width")
    if not 1 <= n <= 2**63 - 1:
        raise ValueError(f"n_samples must be an integer in [1, 2**63 - 1], not {n_samples!r}")
    if not bin_width >= 2.0 ** -53:
        raise ValueError("bin_width must be finite and at least 2**-53")
    rng = np.random.default_rng(0) if rng is None else rng
    rng_state = rng.bit_generator.state
    dense = math.floor(1.0 / bin_width) + 1 <= n
    if dense:
        maxima = np.full(0, -np.inf)
    else:
        sample_keys, sample_chi_y = np.empty(n, dtype=int), np.empty(n)
    max_sum, argmax_squares, start = -np.inf, None, 0
    for squares, (chi_y, chi_r, chi_yxr) in _curve_blocks(rng, n):
        h1 = np.maximum(chi_r, chi_yxr)
        sums = chi_y + h1
        arg = int(np.argmax(sums))
        # Strictly greater: a tie keeps the earlier block's sample, as one
        # argmax over all samples would.
        if sums[arg] > max_sum:
            max_sum, argmax_squares = float(sums[arg]), squares[arg].copy()
        keys = np.floor(h1 / bin_width).astype(int)
        if dense:
            top = int(keys.max()) + 1
            if top > maxima.size:
                maxima = np.concatenate([maxima, np.full(top - maxima.size, -np.inf)])
            np.maximum.at(maxima, keys, chi_y)
        else:
            stop = start + len(squares)
            sample_keys[start:stop], sample_chi_y[start:stop] = keys, chi_y
            start = stop
    if dense:
        keys = np.flatnonzero(maxima > -np.inf)
        maxima = maxima[keys]
    else:
        keys, inverse = np.unique(sample_keys, return_inverse=True)
        maxima = np.full(keys.size, -np.inf)
        np.maximum.at(maxima, inverse, sample_chi_y)
    bins = tuple(((k + 0.5) * bin_width, v) for k, v in zip(keys.tolist(), maxima.tolist()))
    return TradeoffCurve(
        n_samples=n, bin_width=bin_width, bins=bins, max_sum=max_sum,
        argmax=CheatParams.from_squares(*argmax_squares), rng_state=rng_state)


# ---------------------------------------------------------------------------
# Guessing-probability inequalities and the small-delta information chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem3Report:
    """Extreme-point values of the two guessing-probability inequalities.

    ``2*p_b + p_a >= 2`` and ``2*p_b_prime + max(p_ar, p_ay) >= 2`` both hold
    with equality for this protocol: the receiver distinguishes the sender's
    honest inputs (or honest-vs-cheating preparation) with probability 3/4,
    while a sender who is certain of one output bit gains nothing about the
    complementary one.
    """

    p_a: float
    p_b: float
    p_b_prime: float
    p_ar: float
    p_ay: float
    lhs_eq17: float
    lhs_eq18: float


def theorem3_report() -> Theorem3Report:
    """Compute the inequality extreme points from first principles."""
    # Two-state averages of the honest sent states SENT[x, t] over t, for
    # x = 0 and 1, and of the +/- pair of y-extracting cheat states (the
    # learn-y sign states of (r, y) = (0, 0) and (0, 1)): diag(1,1,0)/2.
    pairs = np.concatenate([protocol.SENT, [cheat_state_vectors(CheatParams.learn_y())[:2]]])
    averages = 0.5 * np.einsum("pti,ptj->pij", pairs, pairs.conj())
    p_b, p_b_prime = (0.5 * (1.0 + trace_distance(averages[0], averages[1:]))).tolist()

    p_ay = guess_probs(CheatParams.honest(0)).p_y        # certain of r
    p_ar = guess_probs(CheatParams.learn_y()).p_r        # certain of y
    # Certainty about one output bit (r, or y xor r) pins the triple; the
    # complementary output guess is then fair either way.
    p_a = max(guess_probs(CheatParams.honest(0)).p_yxr,
              guess_probs(CheatParams.honest(1)).p_r)
    return Theorem3Report(
        p_a=p_a, p_b=p_b, p_b_prime=p_b_prime, p_ar=p_ar, p_ay=p_ay,
        lhs_eq17=2.0 * p_b + p_a, lhs_eq18=2.0 * p_b_prime + max(p_ar, p_ay))


@dataclass(frozen=True, eq=False)
class InfoDeltaReport:
    """The small-delta information chain, one array entry per grid point.

    ``mi_bound`` is the mutual-information value at error weight delta,
    ``drop_margin`` the (positive) term discarded between the exact
    rewriting and its upper estimate, ``terminal_margin`` the gap
    ``(1 - 2*delta) - (1 + delta*log2(2*delta))``, and
    ``identity_residual`` the numerical residual of the two exact
    rewritings in the chain.
    """

    mi_bound: np.ndarray
    drop_margin: np.ndarray
    terminal_margin: np.ndarray
    identity_residual: np.ndarray

    @property
    def point_ok(self) -> np.ndarray:
        return ((self.drop_margin > 0.0) & (self.terminal_margin > 0.0)
                & (self.identity_residual <= 1e-12))

    @property
    def ok(self) -> bool:
        return bool(self.point_ok.all())

    @property
    def min_margin(self) -> float:
        return float(min(self.drop_margin.min(), self.terminal_margin.min()))


def infodelta_check(grid: Iterable[float]) -> InfoDeltaReport:
    """Evaluate the strict-inequality chain bounding information at small delta.

    For each delta in (0, 0.1): the mutual information of the joint
    distribution ``(1/2, 0, delta, 1/2 - delta)`` equals
    ``1/2 + delta log2 delta - (1/2 + delta) log2(1/2 + delta)``, rewrites
    exactly to ``1 + delta + delta log2 delta - (1/2+delta) log2(1+2 delta)``,
    is strictly below ``1 + delta log2(2 delta)`` (dropping the positive
    subtracted term), which is strictly below ``1 - 2 delta`` on the stated
    interval.  Behavior outside (0, 0.1) is deliberately not extrapolated.
    An array grid is taken as it is; any other iterable is read into one.  An
    empty grid is rejected: a report of no points would pass vacuously.
    """
    delta = (np.asarray(grid, dtype=float) if isinstance(grid, np.ndarray)
             else np.fromiter(grid, dtype=float))
    if delta.size == 0:
        raise ValueError("the delta grid is empty")
    outside = ~((delta > 0.0) & (delta < 0.1))
    if outside.any():
        raise ValueError(f"delta {delta[outside][0]} outside (0, 0.1)")
    delta_log = delta * np.log2(delta)
    line1 = 0.5 + delta_log - (0.5 + delta) * np.log2(0.5 + delta)
    line4 = 1.0 + delta + delta_log
    line3 = line4 - (0.5 + delta) * np.log2(1.0 + 2.0 * delta)
    line5 = 1.0 + delta * np.log2(2.0 * delta)
    return InfoDeltaReport(
        mi_bound=line1, drop_margin=line4 - line3,
        terminal_margin=(1.0 - 2.0 * delta) - line5,
        identity_residual=np.maximum(np.abs(line1 - line3), np.abs(line4 - line5)))

