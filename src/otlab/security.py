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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import protocol
from .numerics import (
    DensityOperator,
    Ensemble,
    InvalidMeasurementError,
    Povm,
    PureState,
    classical_mutual_information,
    holevo,
    trace_distance,
    xlog2,
)

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
    "sign_state_probabilities",
    "sign_state_information",
    "params_from_two_qutrit",
    "guess_probs",
    "holevo_triple",
    "binary_entropy",
    "tradeoff_bound_margins",
    "tetrahedron_states",
    "lemma1_images",
    "lemma1_reduce",
    "example1_elements",
    "example1_povm",
    "example2_povm",
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
_SIGNS = np.array([[1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, 1, 1]], dtype=float)

# Bloch signs of the tetrahedron images, one row per (r, y) in RY_ORDER.
_TETRA_SIGNS = np.array([[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]], dtype=float)

#: Analytic maximum of chi_y + chi_r over the amplitude triple family.
MAX_HOLEVO_SUM = float(np.log2(3.0 + np.sqrt(5.0)) - 1.0)


@dataclass(frozen=True)
class CheatParams:
    """Nonnegative amplitude triple with ``a^2 + b^2 + c^2 = 1``."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.a, self.b, self.c])):
            raise ValueError(f"amplitudes ({self.a}, {self.b}, {self.c}) must be finite")
        for name in ("a", "b", "c"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"{name} must be nonnegative")
        norm_sq = self.a ** 2 + self.b ** 2 + self.c ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"squares sum to {norm_sq}, expected 1")

    @classmethod
    def from_squares(cls, a2: float, b2: float, c2: float) -> "CheatParams":
        vals = np.sqrt(np.clip([a2, b2, c2], 0.0, None))
        return cls(float(vals[0]), float(vals[1]), float(vals[2]))

    @classmethod
    def honest(cls, x: int) -> "CheatParams":
        """Effective triple of an honest sender with input bit ``x``."""
        s = 1.0 / np.sqrt(2.0)
        return cls(s, 0.0, s) if int(x) == 0 else cls(0.0, s, s)

    @classmethod
    def learn_y(cls) -> "CheatParams":
        """The y-extracting cheat state ``(|0> + |1>)/sqrt(2)``."""
        s = 1.0 / np.sqrt(2.0)
        return cls(s, s, 0.0)

    @classmethod
    def from_alpha(cls, alpha: float) -> "CheatParams":
        """One-parameter extremal family ``(1, cos(alpha), sin(alpha))/sqrt(2)``."""
        if not np.isfinite(alpha):
            raise ValueError(f"alpha {alpha} must be finite")
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
                raise ValueError(f"{name}={val} outside [1/2, 1]")
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
                raise ValueError(f"{name}={val} outside [0, 1]")


def _sign_rows(amplitudes) -> np.ndarray:
    """Sign states ``[..., 4, 3]`` of amplitude rows ``[..., 3]``, in ``RY_ORDER``."""
    return _SIGNS * np.asarray(amplitudes, dtype=float)[..., None, :]


def cheat_state_vectors(params: CheatParams) -> np.ndarray:
    """The four returned sign states as real rows, in ``RY_ORDER``."""
    return _sign_rows([params.a, params.b, params.c])


def _label_index(label: str, r: int, y: int) -> int:
    if label == "y":
        return y
    if label == "r":
        return r
    if label == "yxr":
        return y ^ r
    raise ValueError(f"unknown label {label!r}")


_LABELS = ("y", "r", "yxr")
# Weight of each sign state in the joint table of each label and label value:
# a prior of 1/2 on the value times the 1/2 of each state averaged into it.
_LABEL_WEIGHTS = 0.25 * np.array([[[_label_index(label, r, y) == value for r, y in RY_ORDER]
                                   for value in (0, 1)] for label in _LABELS])


def returned_states(amplitudes, label: str) -> np.ndarray:
    """Returned states ``[..., 2, 3, 3]`` of amplitude rows ``[..., 3]``, grouped by ``label``.

    ``label`` is one of ``"y"``, ``"r"``, ``"yxr"`` (the two equiprobable
    mixed states of each label value, averaged over the hidden bit) or
    ``"joint"`` (the four pure sign states in ``RY_ORDER``, ``[..., 4, 3, 3]``).
    """
    if label != "joint" and label not in _LABELS:
        raise ValueError(f"unknown label {label!r}")
    vecs = _sign_rows(amplitudes)
    projectors = vecs[..., :, None] * vecs[..., None, :]
    if label == "joint":
        return projectors
    weights = 2.0 * _LABEL_WEIGHTS[_LABELS.index(label)]
    return np.einsum("gs,...sab->...gab", weights, projectors)


def returned_ensemble(params: CheatParams, label: str) -> Ensemble:
    """Uniform ensemble of :func:`returned_states`, its states validated in one pass."""
    states = returned_states([params.a, params.b, params.c], label)
    return Ensemble.uniform(DensityOperator.from_stack(states))


def sign_state_probabilities(elements, amplitudes) -> np.ndarray:
    """Outcome probabilities ``[..., 4, n]`` of the sign states, in ``RY_ORDER``.

    ``elements[..., n, 3, 3]`` are qutrit measurement elements and
    ``amplitudes[..., 3]`` amplitude rows ``(a, b, c)``; leading axes
    broadcast.
    """
    states = _sign_rows(amplitudes)
    return np.einsum("...si,...nij,...sj->...sn", states, elements, states).real


def sign_state_information(elements, amplitudes) -> np.ndarray:
    """Information ``[..., 3]`` about y, r and y XOR r in a measurement's outcome.

    Takes the arguments of :func:`sign_state_probabilities`.  The entries
    equal ``mutual_information(returned_ensemble(params, label), povm)`` for
    the labels ``"y"``, ``"r"`` and ``"yxr"``.
    """
    probs = sign_state_probabilities(elements, amplitudes)
    return classical_mutual_information(np.einsum("lgs,...sn->...lgn", _LABEL_WEIGHTS, probs))


def params_from_two_qutrit(state) -> CheatParams:
    """Effective amplitude triple of an entangled two-qutrit input.

    The sent qutrit is the second tensor factor.  A control unitary on the
    withheld qutrit (conditioned on the sent one) commutes with every
    receiver gate and orthonormalizes the withheld components, so the triple
    is exactly the square root of the diagonal of the reduced operator on
    the sent qutrit, and its Holevo triple equals that of the full
    entangled-state ensembles.
    """
    if not isinstance(state, PureState):
        state = PureState.from_amplitudes(state)
    if state.dim != 9:
        raise ValueError(f"expected a two-qutrit state (dim 9), got dim {state.dim}")
    amps = state.amplitudes.reshape(3, 3)  # [withheld, sent]
    squares = (np.abs(amps) ** 2).sum(axis=0)
    return CheatParams.from_squares(*squares)


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
    # taking each xlog2 separately (TestTripleFromSquares checks this).
    la, lb, lc = xlog2(a2), xlog2(b2), xlog2(c2)
    chi_y = -la - lb + xlog2(1.0 - c2)
    chi_r = -la - lc + xlog2(1.0 - b2)
    chi_yxr = -lb - lc + xlog2(1.0 - a2)
    return (np.clip(chi_y, 0.0, None), np.clip(chi_r, 0.0, None),
            np.clip(chi_yxr, 0.0, None))


def holevo_triple(params: CheatParams) -> HolevoTriple:
    """Closed-form Holevo triple of the amplitude family.

    chi_y = -a^2 log a^2 - b^2 log b^2 + (1 - c^2) log (1 - c^2), and
    cyclically for chi_r (b^2 <-> c^2 roles) and chi_{y xor r}.  Agrees with
    the eigendecomposition-based Holevo quantity of
    :func:`returned_ensemble` to 1e-10.
    """
    a2, b2, c2 = params.squares
    chi_y, chi_r, chi_yxr = _triple_from_squares(a2, b2, c2)
    return HolevoTriple(chi_y=float(chi_y), chi_r=float(chi_r), chi_yxr=float(chi_yxr))


def binary_entropy(delta):
    """``h(delta) = -(1-delta) log2(1-delta) - delta log2 delta`` on [0, 1].

    Elementwise for arrays; a float for scalar input.
    """
    delta = np.asarray(delta, dtype=float)
    outside = ~((delta >= 0.0) & (delta <= 1.0))
    if outside.any():
        raise ValueError(f"argument {delta[outside].flat[0]} outside [0, 1]")
    return -xlog2(delta) - xlog2(1.0 - delta)


def tradeoff_bound_margins(chi_y, chi_r, chi_yxr) -> np.ndarray:
    """Margins ``[..., 4]`` of the binary-entropy tradeoff bounds.

    When ``delta = 1 - chi_r < 1/2``, both chi_y and chi_yxr are at most
    ``h(delta)``; when ``delta' = 1 - chi_yxr < 1/2``, both chi_r and chi_y
    are at most ``h(delta')``.  The margins are ``bound - value`` in that
    order, nonnegative where a bound holds and NaN where it does not apply.
    """
    chi_y, chi_r, chi_yxr = np.broadcast_arrays(
        *(np.asarray(chi, dtype=float) for chi in (chi_y, chi_r, chi_yxr)))
    margins = np.full(chi_y.shape + (4,), np.nan)
    for col, anchor, others in ((0, chi_r, (chi_y, chi_yxr)), (2, chi_yxr, (chi_r, chi_y))):
        delta = 1.0 - anchor
        applies = (delta >= 0.0) & (delta < 0.5)
        bound = binary_entropy(delta[applies])
        for offset, other in enumerate(others):
            margins[..., col + offset][applies] = bound - other[applies]
    return margins


def tetrahedron_states() -> tuple:
    """Four pure qubit states on a regular Bloch tetrahedron, in ``RY_ORDER``.

    These are the fixed images of the four sign states under the dimension
    reduction in :func:`lemma1_reduce`; their pairwise Hilbert-Schmidt
    overlaps all equal 1/3 and their average is the maximally mixed qubit.
    """
    out = []
    for ex, ey, ez in _TETRA_SIGNS / np.sqrt(3.0):
        bloch = np.array([[ez, ex - 1j * ey], [ex + 1j * ey, -ez]])
        out.append(DensityOperator.from_matrix(0.5 * (np.eye(2) + bloch)))
    return tuple(out)


def lemma1_images(elements, amplitudes, variant: str = "exact") -> np.ndarray:
    """Qubit images ``[p, n, 2, 2]`` of elements ``[n, 3, 3]`` for amplitude rows ``[p, 3]``.

    Each element's real part ``M`` (the imaginary antisymmetric part changes
    no probability on the real sign states), with diagonal ``(f, g, h)`` and
    ``u, v, w = M[0,1], M[0,2], M[1,2]``, maps to the identity weight
    ``a^2 f + b^2 g + c^2 h`` plus a Bloch vector.

    variant="exact"
        Bloch vector ``2*sqrt(3) * (ab*u, bc*w, ac*v)``: the unique image
        reproducing every outcome probability on the four sign states.  The
        images are Hermitian and sum to the identity but need not be positive
        semidefinite, because the four tetrahedron states affinely span the
        qubit operator space, which forces this normalization.
    variant="psd"
        Bloch vector ``sqrt(3) * (ab*u, ac*v, bc*w)``: genuine POVM elements,
        whose outcome distribution is the exact one shrunk halfway toward the
        average-state distribution (with the two middle sign states
        relabeled), so per-element statistics hold only for diagonal
        measurements.
    """
    if variant not in ("exact", "psd"):
        raise ValueError(f"unknown variant {variant!r}")
    real = np.asarray(elements).real  # drops i*(antisymmetric) exactly; stays symmetric PSD
    a, b, c = np.asarray(amplitudes, dtype=float).T[:, :, None]
    f, g, h = real[:, 0, 0], real[:, 1, 1], real[:, 2, 2]
    u, v, w = real[:, 0, 1], real[:, 0, 2], real[:, 1, 2]
    base = a * a * f + b * b * g + c * c * h
    if variant == "exact":
        scale, (x, y, z) = 2.0 * np.sqrt(3.0), (a * b * u, b * c * w, a * c * v)
    else:
        scale, (x, y, z) = np.sqrt(3.0), (a * b * u, a * c * v, b * c * w)
    x, y, z = scale * x, scale * y, scale * z
    images = np.empty(base.shape + (2, 2), dtype=complex)
    images[..., 0, 0] = base + z
    images[..., 1, 1] = base - z
    images[..., 0, 1] = x - 1j * y
    images[..., 1, 0] = x + 1j * y
    return images


def lemma1_reduce(povm3: Povm, params: CheatParams, variant: str = "exact") -> Povm:
    """Map a qutrit POVM to a qubit measurement over the tetrahedron images.

    The images of :func:`lemma1_images` as a ``Povm``; the exact variant
    skips the PSD check and reports its true minimum eigenvalue.
    """
    if povm3.dim != 3:
        raise InvalidMeasurementError(f"expected a qutrit POVM, got dim {povm3.dim}")
    images = lemma1_images(np.stack(povm3.elements), [[params.a, params.b, params.c]], variant)
    return Povm(2, tuple(images[0]), require_psd=(variant == "psd"))


def _example_vectors(alpha, dim: int) -> np.ndarray:
    """Rows ``[..., 4, dim]``: ``(cos alpha e_0 +- e_a)``, ``(sin alpha e_0 +- e_b)``, over sqrt(2).

    ``(a, b) = (1, 2)`` for a qutrit; ``(4, 8)`` for two qutrits, so that
    ``e_0, e_a, e_b`` are ``|00>, |11>, |22>``.
    """
    alpha = np.asarray(alpha, dtype=float)
    first = np.repeat(np.stack([np.cos(alpha), np.sin(alpha)], axis=-1), 2, axis=-1)
    axes = np.eye(dim)[[1, 2] if dim == 3 else [4, 8]]
    rest = np.array([1.0, -1.0, 1.0, -1.0])[:, None] * np.repeat(axes, 2, axis=0)
    return (first[..., None] * np.eye(dim)[0] + rest) / np.sqrt(2.0)


def example1_elements(alpha) -> np.ndarray:
    """Elements ``[..., 4, 3, 3]`` of :func:`example1_povm`, one set per ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    outside = ~((alpha >= 0.0) & (alpha <= np.pi / 2 + 1e-12))
    if outside.any():
        raise ValueError(f"alpha {alpha[outside].flat[0]} outside [0, pi/2]")
    vectors = _example_vectors(alpha, 3)
    return vectors[..., :, None] * vectors[..., None, :]


def example1_povm(alpha: float) -> Povm:
    """Four-outcome rank-1 qutrit measurement that splits y- and r-information.

    On the extremal input family :meth:`CheatParams.from_alpha` it extracts
    ``cos^2(alpha)`` bits about y and ``sin^2(alpha)`` bits about r, summing
    to exactly one bit.
    """
    return Povm.from_elements(example1_elements(float(alpha)))


def example2_povm(alpha: float) -> Povm:
    """Two-qutrit analogue of :func:`example1_povm` on the diagonal subspace.

    Four rank-1 elements supported on span{|00>, |11>, |22>} plus the
    projector onto the six-dimensional orthocomplement.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= np.pi / 2 + 1e-12):
        raise ValueError(f"alpha {alpha} outside [0, pi/2]")
    vectors = _example_vectors(alpha, 9)
    elements = vectors[:, :, None] * vectors[:, None, :]
    return Povm.from_elements(list(elements) + [np.eye(9) - elements.sum(axis=0)])


def example3_value(a: float) -> float:
    """Closed-form joint-information value of the alpha-family measurement.

    For amplitude ``a`` and ``b' = sqrt(1 - a^2)`` returns
    ``(a+b')^2 log2(a+b') + (a-b')^2 log2|a-b'|`` with vanishing terms
    dropped; equals the measured information sum of the matching
    :func:`example1_povm` on any state ``(a, b' cos t, b' sin t)``.
    """
    a = float(a)
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a {a} outside [0, 1]")
    b_prime = np.sqrt(max(0.0, 1.0 - a * a))
    total = 0.0
    plus, minus = a + b_prime, abs(a - b_prime)
    if plus > 0.0:
        total += plus ** 2 * np.log2(plus)
    if minus > 0.0:
        total += minus ** 2 * np.log2(minus)
    return float(total)


# ---------------------------------------------------------------------------
# Accessible-information search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Random starts and iteration budget of :func:`accessible_info_search`."""

    n_starts: int = 32
    max_iters: int = 400


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best measurement found, with Holevo's optimality conditions at it.

    With ``R_k`` the information gradient of element ``Pi_k`` and
    ``G = sum_k R_k Pi_k`` (Hermitian part), a stationary measurement has
    ``stationarity = max_k ||Pi_k (G - R_k)||_2 = 0``, and a maximum also
    has ``min_condition_eig = min_k lambda_min(G - R_k) >= 0``.
    """

    best_value: float
    best_povm: Povm
    stationarity: float
    min_condition_eig: float


# Alphas at which the one-parameter example measurements seed the search.
_SEED_ALPHAS = np.linspace(0.0, np.pi / 2, 5)


def _seed_frames(states: np.ndarray, priors: np.ndarray) -> list:
    """Rank-1 direction rows of the known extremal measurements of the ensemble.

    Basis, average-eigenbasis and Helstrom measurements; for a qutrit the
    three plane bases and :func:`example1_povm`, for two qutrits
    :func:`example2_povm` (its six-dimensional remainder split into basis
    rows), both on the alpha grid ``_SEED_ALPHAS``.
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
        frames.extend(_example_vectors(_SEED_ALPHAS, 3))
    if dim == 9:
        rest = np.eye(9)[[1, 2, 3, 5, 6, 7]]
        frames.extend(np.concatenate([v, rest]) for v in _example_vectors(_SEED_ALPHAS, 9))
    return frames


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
    probs = np.clip(probs, 0.0, None)
    marginal = (priors[:, None] * probs).sum(axis=-2, keepdims=True)
    fired = marginal > 0.0
    floored = np.maximum(probs, np.finfo(float).tiny)
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
    2005) on rank-1 measurements with ``d^2`` outcomes, enough by Davies'
    theorem.  Each element ``Pi_k = v_k v_k^dagger`` takes the step
    ``w_k = (1 + eps R_k) v_k``, ``v_k <- Lambda^{-1/2} w_k`` with
    ``Lambda = sum_k w_k w_k^dagger`` and the gradient
    ``R_k = sum_i p_i rho_i log2(p(k|i) / q_k)``.  A step is taken only if it
    raises the information and ``Lambda`` is well conditioned; otherwise that
    start's ``eps`` halves.  The starts -- the known extremal measurements,
    zero-padded to ``d^2`` rows (a zero row stays zero), and
    ``config.n_starts`` random complex frames -- run in lockstep as one
    stack.  The result is deterministic for a given generator and never
    exceeds the Holevo quantity of the ensemble.
    """
    cfg = config or SearchConfig()
    rng = np.random.default_rng(0) if rng is None else rng
    priors = ensemble.probabilities
    states = np.stack([op.matrix for op in ensemble.states])
    dim = ensemble.dim
    seeds = _seed_frames(states, priors)
    starts = np.zeros((len(seeds) + cfg.n_starts, dim * dim, dim), dtype=complex)
    for idx, frame in enumerate(seeds):
        starts[idx, :len(frame)] = frame
    noise = rng.normal(size=(cfg.n_starts, 2, dim * dim, dim))
    starts[len(seeds):] = noise[:, 0] + 1j * noise[:, 1]
    vecs, valid = _normalize(starts)
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
        vecs[step], info[step], weights[step] = cand[step], cand_info[step], cand_weights[step]
        eps[~step] *= 0.5
    best = int(np.argmax(info))
    used = np.any(vecs[best] != 0.0, axis=-1)
    rows = vecs[best, used]
    elements = rows[:, :, None] * rows[:, None, :].conj()
    grads = np.einsum("in,iab->nab", weights[best][:, used], states)
    total = np.einsum("nab,nbc->ac", grads, elements)
    gaps = 0.5 * (total + total.conj().T) - grads
    return SearchResult(
        best_value=float(info[best]), best_povm=Povm.from_elements(list(elements)),
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


def _chi_sum_of_squares(a2: float, b2: float) -> float:
    c2 = 1.0 - a2 - b2
    if a2 < 0 or b2 < 0 or c2 < -1e-15:
        return -np.inf
    chi_y, chi_r, _ = _triple_from_squares(a2, b2, max(c2, 0.0))
    return float(chi_y + chi_r)


def max_holevo_sum_search() -> MaxHolevoSumResult:
    """Maximize ``chi_y + chi_r`` over amplitude triples.

    Primary route: one-dimensional bounded search along the symmetric slice
    ``b^2 = c^2`` where the sum reduces to a scalar function of ``b^2``.
    Cross-check: coarse grid plus Nelder-Mead polish over the free
    ``(a^2, b^2)`` simplex; the two routes agree to 1e-8.
    """
    from scipy import optimize

    def neg_slice(b2: float) -> float:
        return -_chi_sum_of_squares(1.0 - 2.0 * b2, b2)

    res = optimize.minimize_scalar(neg_slice, bounds=(1e-15, 0.5 - 1e-15),
                                   method="bounded", options={"xatol": 1e-13})
    b2_star = float(res.x)
    constrained = -float(res.fun)
    argmax = CheatParams.from_squares(1.0 - 2.0 * b2_star, b2_star, b2_star)

    grid = np.linspace(0.01, 0.99, 50)
    best_grid, best_pt = -np.inf, (0.4, 0.3)
    for a2 in grid:
        for b2 in grid:
            if a2 + b2 >= 1.0:
                continue
            val = _chi_sum_of_squares(a2, b2)
            if val > best_grid:
                best_grid, best_pt = val, (a2, b2)
    nm = optimize.minimize(lambda q: -_chi_sum_of_squares(q[0], q[1]), best_pt,
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 2000})
    unconstrained = -float(nm.fun)
    return MaxHolevoSumResult(max_sum=constrained, argmax=argmax,
                              constrained_max=constrained, unconstrained_max=unconstrained)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """Binned maxima of chi_y against max(chi_r, chi_yxr) over Haar samples."""

    n_samples: int
    bin_width: float
    bins: tuple                 # ((center, max_h2), ...) sorted, empty bins omitted
    triples: np.ndarray         # (n, 3): chi_y, chi_r, chi_yxr per sample
    max_sum: float              # max over samples of chi_y + max(chi_r, chi_yxr)
    argmax: CheatParams

    @property
    def h1(self) -> np.ndarray:
        return np.maximum(self.triples[:, 1], self.triples[:, 2])

    @property
    def h2(self) -> np.ndarray:
        return self.triples[:, 0]


def tradeoff_curve(n_samples: int, bin_width: float = 0.01,
                   rng: np.random.Generator | None = None) -> TradeoffCurve:
    """Sample the Holevo tradeoff curve from Haar-random two-qutrit inputs.

    A sample enters only through its amplitude triple, the square root of
    the diagonal of its reduced operator on the sent qutrit (see
    :func:`params_from_two_qutrit`).  That diagonal is drawn from its exact
    law: each entry sums three squared moduli of i.i.d. complex Gaussians
    over the withheld qutrit, a Gamma(3) variable, so the normalized
    diagonal is Dirichlet(3, 3, 3).  Its closed-form Holevo triple is
    computed, and the per-bin maximum of ``chi_y`` is recorded over
    left-closed bins ``[k*w, (k+1)*w)`` of ``max(chi_r, chi_yxr) <= 1``; a
    width ``w >= 2**-53`` keeps every ``k`` an exact integer.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (np.isfinite(bin_width) and bin_width >= 2.0 ** -53):
        raise ValueError("bin_width must be finite and at least 2**-53")
    rng = np.random.default_rng(0) if rng is None else rng
    squares = rng.dirichlet([3.0, 3.0, 3.0], size=int(n_samples))
    chi_y, chi_r, chi_yxr = _triple_from_squares(*squares.T)
    triples = np.column_stack([chi_y, chi_r, chi_yxr])
    h1 = np.maximum(chi_r, chi_yxr)
    sums = chi_y + h1
    arg = int(np.argmax(sums))
    keys, inverse = np.unique(np.floor(h1 / bin_width).astype(int), return_inverse=True)
    maxima = np.full(keys.size, -np.inf)
    np.maximum.at(maxima, inverse, chi_y)
    bins = tuple(((k + 0.5) * bin_width, v) for k, v in zip(keys.tolist(), maxima.tolist()))
    return TradeoffCurve(
        n_samples=int(n_samples), bin_width=float(bin_width), bins=bins,
        triples=triples, max_sum=float(sums[arg]),
        argmax=CheatParams.from_squares(*squares[arg]))


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


def _honest_average_state(x: int) -> DensityOperator:
    ops = [protocol.alice_prepare(x, t).projector() for t in (0, 1)]
    return DensityOperator.mixture([0.5, 0.5], ops)


def theorem3_report() -> Theorem3Report:
    """Compute the inequality extreme points from first principles."""
    rho0 = _honest_average_state(0)
    rho1 = _honest_average_state(1)
    p_b = 0.5 * (1.0 + trace_distance(rho0, rho1))

    # Average over the +/- pair of y-extracting cheat states: diag(1,1,0)/2.
    sqrt_half = 1.0 / np.sqrt(2.0)
    cheat_ops = [DensityOperator.from_pure([sqrt_half, s * sqrt_half, 0.0]) for s in (1, -1)]
    cheat_avg = DensityOperator.mixture([0.5, 0.5], cheat_ops)
    p_b_prime = 0.5 * (1.0 + trace_distance(rho0, cheat_avg))

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

    delta: np.ndarray
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
    """
    delta = np.array(list(grid), dtype=float)
    outside = ~((delta > 0.0) & (delta < 0.1))
    if outside.any():
        raise ValueError(f"delta {delta[outside][0]} outside (0, 0.1)")
    line1 = 0.5 + delta * np.log2(delta) - (0.5 + delta) * np.log2(0.5 + delta)
    line3 = 1.0 + delta + delta * np.log2(delta) - (0.5 + delta) * np.log2(1.0 + 2.0 * delta)
    line4 = 1.0 + delta + delta * np.log2(delta)
    line5 = 1.0 + delta * np.log2(2.0 * delta)
    return InfoDeltaReport(
        delta=delta, mi_bound=line1, drop_margin=line4 - line3,
        terminal_margin=(1.0 - 2.0 * delta) - line5,
        identity_residual=np.maximum(np.abs(line1 - line3), np.abs(line4 - line5)))


def holevo_triple_from_nine_dim(state: PureState) -> HolevoTriple:
    """Holevo triple computed directly in the two-qutrit space.

    The receiver's gate acts on the sent (second) factor; the withheld
    factor rides along.  This is the eigendecomposition-based oracle for the
    closed-form route through :func:`params_from_two_qutrit`.
    """
    if state.dim != 9:
        raise ValueError(f"expected dim 9, got {state.dim}")
    eye3 = np.eye(3, dtype=complex)
    branches = np.stack([np.kron(eye3, protocol.bob_gate(y, r)) @ state.amplitudes
                         for r, y in RY_ORDER])
    projectors = branches[:, :, None] * branches[:, None, :].conj()
    # Each label's two states average the two branches of each label value.
    chi_y, chi_r, chi_yxr = np.minimum(
        holevo(2.0 * np.einsum("lgs,sab->lgab", _LABEL_WEIGHTS, projectors)), 1.0)
    return HolevoTriple(chi_y=float(chi_y), chi_r=float(chi_r), chi_yxr=float(chi_yxr))
