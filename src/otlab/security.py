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
extremal example measurements, searches for accessible information by
multi-start hill climbing over rank-1 measurements, and samples the Haar
tradeoff curve between the leakage about ``y`` and the table correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import optimize

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
    "TradeoffBoundReport",
    "Theorem3Report",
    "TradeoffCurve",
    "InfoDeltaReport",
    "SearchConfig",
    "SearchResult",
    "MaxHolevoSumResult",
    "RY_ORDER",
    "cheat_state_vectors",
    "returned_ensemble",
    "sign_state_probabilities",
    "sign_state_information",
    "params_from_two_qutrit",
    "guess_probs",
    "holevo_triple",
    "binary_entropy",
    "tradeoff_bound_margins",
    "check_tradeoff_bounds",
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


def cheat_state_vectors(params: CheatParams) -> np.ndarray:
    """The four returned sign states as real rows, in ``RY_ORDER``."""
    return _SIGNS * np.array([params.a, params.b, params.c])


def _label_index(label: str, r: int, y: int) -> int:
    if label == "y":
        return y
    if label == "r":
        return r
    if label == "yxr":
        return y ^ r
    raise ValueError(f"unknown label {label!r}")


def returned_ensemble(params: CheatParams, label: str) -> Ensemble:
    """Ensemble of returned states grouped by ``label``.

    ``label`` is one of ``"y"``, ``"r"``, ``"yxr"`` (two equiprobable mixed
    states, averaged over the hidden bit) or ``"joint"`` (the four pure sign
    states with probability 1/4 each).
    """
    vecs = cheat_state_vectors(params)
    projectors = [np.outer(v, v) for v in vecs]
    if label == "joint":
        return Ensemble.uniform([DensityOperator.from_matrix(p) for p in projectors])
    groups = {0: [], 1: []}
    for (r, y), proj in zip(RY_ORDER, projectors):
        groups[_label_index(label, r, y)].append(proj)
    ops = [DensityOperator.from_matrix(0.5 * (g[0] + g[1])) for g in (groups[0], groups[1])]
    return Ensemble.uniform(ops)


# Weight of each sign state in the joint table of each label and label value:
# a prior of 1/2 on the value times the 1/2 of each state averaged into it.
_LABEL_WEIGHTS = 0.25 * np.array([[[_label_index(label, r, y) == value for r, y in RY_ORDER]
                                   for value in (0, 1)] for label in ("y", "r", "yxr")])


def sign_state_probabilities(elements, amplitudes) -> np.ndarray:
    """Outcome probabilities ``[..., 4, n]`` of the sign states, in ``RY_ORDER``.

    ``elements[..., n, 3, 3]`` are qutrit measurement elements and
    ``amplitudes[..., 3]`` amplitude rows ``(a, b, c)``; leading axes
    broadcast.
    """
    states = _SIGNS * np.asarray(amplitudes, dtype=float)[..., None, :]
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
    chi_y = -xlog2(a2) - xlog2(b2) + xlog2(1.0 - c2)
    chi_r = -xlog2(a2) - xlog2(c2) + xlog2(1.0 - b2)
    chi_yxr = -xlog2(b2) - xlog2(c2) + xlog2(1.0 - a2)
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


@dataclass(frozen=True)
class TradeoffBoundReport:
    """Margins of the binary-entropy tradeoff bounds for one triple.

    When ``delta = 1 - chi_r < 1/2`` both ``chi_y`` and ``chi_yxr`` are
    bounded by ``h(delta)``; when ``delta' = 1 - chi_yxr < 1/2`` both
    ``chi_r`` and ``chi_y`` are bounded by ``h(delta')``.  Margins are
    ``bound - value`` (nonnegative means the bound holds) and are ``None``
    where the corresponding delta is >= 1/2 (bound not applicable).
    """

    triple: HolevoTriple
    delta: float
    delta_prime: float
    margin_chi_y_vs_delta: float | None
    margin_chi_yxr_vs_delta: float | None
    margin_chi_r_vs_delta_prime: float | None
    margin_chi_y_vs_delta_prime: float | None

    def violations(self, tol: float = 1e-9) -> int:
        margins = [self.margin_chi_y_vs_delta, self.margin_chi_yxr_vs_delta,
                   self.margin_chi_r_vs_delta_prime, self.margin_chi_y_vs_delta_prime]
        return sum(1 for m in margins if m is not None and m < -tol)


def tradeoff_bound_margins(chi_y, chi_r, chi_yxr) -> np.ndarray:
    """Margins ``[..., 4]`` of the ``h(delta)`` bounds, NaN where a bound does not apply.

    In the order of :class:`TradeoffBoundReport`: chi_y and chi_yxr against
    ``h(1 - chi_r)``, then chi_r and chi_y against ``h(1 - chi_yxr)``.
    """
    margins = []
    for anchor, others in ((chi_r, (chi_y, chi_yxr)), (chi_yxr, (chi_r, chi_y))):
        delta = 1.0 - np.asarray(anchor, dtype=float)
        applies = (delta >= 0.0) & (delta < 0.5)
        bound = binary_entropy(np.where(applies, delta, 0.0))
        margins += [np.where(applies, bound - other, np.nan) for other in others]
    return np.stack(margins, axis=-1)


def check_tradeoff_bounds(params: CheatParams) -> TradeoffBoundReport:
    """Evaluate the ``h(delta)`` tradeoff bounds for one amplitude triple."""
    triple = holevo_triple(params)
    margins = tradeoff_bound_margins(triple.chi_y, triple.chi_r, triple.chi_yxr)
    return TradeoffBoundReport(triple, 1.0 - triple.chi_r, 1.0 - triple.chi_yxr,
                               *(None if np.isnan(m) else float(m) for m in margins))


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


def example1_elements(alpha) -> np.ndarray:
    """Elements ``[..., 4, 3, 3]`` of :func:`example1_povm`, one set per ``alpha``."""
    alpha = np.asarray(alpha, dtype=float)
    outside = ~((alpha >= 0.0) & (alpha <= np.pi / 2 + 1e-12))
    if outside.any():
        raise ValueError(f"alpha {alpha[outside].flat[0]} outside [0, pi/2]")
    # Rows (cos alpha, +-1, 0) and (sin alpha, 0, +-1), over sqrt(2).
    first = np.repeat(np.stack([np.cos(alpha), np.sin(alpha)], axis=-1), 2, axis=-1)
    rest = np.array([[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    vectors = (first[..., None] * np.array([1.0, 0.0, 0.0]) + rest) / np.sqrt(2.0)
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
    ca, sa = np.cos(alpha), np.sin(alpha)
    e00, e11, e22 = np.eye(9)[0], np.eye(9)[4], np.eye(9)[8]
    vectors = [(ca * e00 + e11), (ca * e00 - e11), (sa * e00 + e22), (sa * e00 - e22)]
    elements = [0.5 * np.outer(v, v) for v in vectors]
    rest = np.eye(9) - sum(elements)
    return Povm.from_elements(elements + [rest])


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
    """Settings for the multi-start rank-1 measurement search."""

    n_starts: int = 32
    n_elements: int | None = None      # default: clamp(2*dim, 4, 9)
    max_iters: int = 400
    step0: float = 0.4
    step_decay: float = 0.7
    min_step: float = 1e-10
    stall_limit: int = 30


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_value: float
    best_povm: Povm


def _mi_of_elements(elements: np.ndarray, states: np.ndarray, priors: np.ndarray) -> float:
    table = np.einsum("njk,skj->sn", elements, states).real
    np.clip(table, 0.0, None, out=table)
    return classical_mutual_information(priors[:, None] * table)


def _elements_from_frame(vmat: np.ndarray, weights: np.ndarray):
    """Rank-1 elements from weighted direction rows, normalized to resolve I."""
    seeds = weights[:, None, None] * (vmat[:, :, None] * vmat[:, None, :])
    total = seeds.sum(axis=0)
    w, v = np.linalg.eigh(total)
    if w.min() < 1e-10:
        return None
    inv_sqrt = (v * (w ** -0.5)) @ v.T
    return np.einsum("ab,nbc,cd->nad", inv_sqrt, seeds, inv_sqrt)


def _rank1_split(povm: Povm):
    """Decompose a POVM into rank-1 direction/weight pairs (a refinement)."""
    directions, weights = [], []
    for element in povm.elements:
        w, v = np.linalg.eigh(element.real)
        for eig, vec in zip(w, v.T):
            if eig > 1e-12:
                directions.append(vec)
                weights.append(eig)
    return np.array(directions), np.array(weights)


def _plane_basis(dim: int, i: int, j: int) -> Povm:
    rows = np.eye(dim, dtype=complex)
    plus = (rows[i] + rows[j]) / np.sqrt(2.0)
    minus = (rows[i] - rows[j]) / np.sqrt(2.0)
    others = [rows[k] for k in range(dim) if k not in (i, j)]
    return Povm.projective([plus, minus] + others)


def _seed_povms(ensemble: Ensemble) -> list:
    dim = ensemble.dim
    states = ensemble.states
    seeds = [Povm.projective(np.eye(dim, dtype=complex))]
    avg = ensemble.average()
    seeds.append(Povm.projective(np.linalg.eigh(avg.matrix)[1].conj().T))
    if len(states) == 2:
        diff = states[0].matrix - states[1].matrix
        seeds.append(Povm.projective(np.linalg.eigh(diff)[1].conj().T))
    if dim == 3:
        seeds.extend(_plane_basis(3, i, j) for i, j in ((0, 1), (0, 2), (1, 2)))
        seeds.append(_best_alpha_povm(ensemble, example1_povm))
    if dim == 9:
        seeds.append(_best_alpha_povm(ensemble, example2_povm))
    return seeds


def _best_alpha_povm(ensemble: Ensemble, family) -> Povm:
    """Optimize the one-parameter measurement family for this ensemble."""
    priors = ensemble.probabilities
    states = np.stack([op.matrix for op in ensemble.states])

    def neg(alpha: float) -> float:
        elements = np.stack(family(float(alpha)).elements)
        return -_mi_of_elements(elements, states, priors)

    res = optimize.minimize_scalar(neg, bounds=(0.0, np.pi / 2), method="bounded",
                                   options={"xatol": 1e-10})
    return family(float(res.x))


def accessible_info_search(ensemble: Ensemble, config: SearchConfig | None = None,
                           rng: np.random.Generator | None = None) -> SearchResult:
    """Lower-bound the accessible information by multi-start local search.

    The ansatz is a frame of 4-9 real rank-1 directions with positive
    weights, symmetrically normalized to a resolution of the identity; known
    extremal measurements (basis measurements, the one-parameter example
    families, Helstrom bases) are split into rank-1 pieces and seeded into
    the start set, then each start is refined by accept-if-better
    perturbations with a shrinking step.  The result is deterministic for a
    given generator and never exceeds the Holevo quantity of the ensemble.
    """
    cfg = config or SearchConfig()
    rng = np.random.default_rng(0) if rng is None else rng
    dim = ensemble.dim
    n_elem = cfg.n_elements or min(9, max(4, 2 * dim))
    priors = ensemble.probabilities
    states = np.stack([op.matrix for op in ensemble.states])

    def evaluate(vmat, weights):
        elements = _elements_from_frame(vmat, weights)
        if elements is None:
            return None, None
        return _mi_of_elements(elements, states, priors), elements

    starts = []
    for seed_povm in _seed_povms(ensemble):
        starts.append(_rank1_split(seed_povm))
    for _ in range(cfg.n_starts):
        vmat = rng.normal(size=(n_elem, dim))
        vmat /= np.linalg.norm(vmat, axis=1, keepdims=True)
        starts.append((vmat, np.full(n_elem, dim / n_elem)))

    best_value, best_elements = -1.0, None
    for vmat0, weights0 in starts:
        vmat = np.array(vmat0, dtype=float)
        vmat /= np.linalg.norm(vmat, axis=1, keepdims=True)
        logw = np.log(np.asarray(weights0, dtype=float))
        value, elements = evaluate(vmat, np.exp(logw))
        if value is None:
            continue
        step, stall = cfg.step0, 0
        for _ in range(cfg.max_iters):
            j = int(rng.integers(len(vmat)))
            perturb_dir = rng.random() < 0.8
            if perturb_dir:
                cand_v = vmat.copy()
                cand_v[j] = cand_v[j] + step * rng.normal(size=dim)
                cand_v[j] /= np.linalg.norm(cand_v[j])
                cand_w = np.exp(logw)
            else:
                cand_v = vmat
                cand_logw = logw.copy()
                cand_logw[j] += step * rng.normal()
                cand_w = np.exp(cand_logw)
            cand_value, cand_elements = evaluate(cand_v, cand_w)
            if cand_value is not None and cand_value > value + 1e-15:
                value, elements = cand_value, cand_elements
                vmat = np.array(cand_v, dtype=float)
                if not perturb_dir:
                    logw = cand_logw
                stall = 0
            else:
                stall += 1
                if stall >= cfg.stall_limit:
                    stall = 0
                    step *= cfg.step_decay
                    if step < cfg.min_step:
                        break
        if value > best_value:
            best_value, best_elements = value, elements
    povm = Povm.from_elements(list(best_elements))
    return SearchResult(best_value=float(best_value), best_povm=povm)


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


def _haar_two_qutrit_squares(n: int, rng: np.random.Generator):
    """Amplitude matrices and reduced diagonals for n Haar two-qutrit states."""
    z = rng.normal(size=(n, 9)) + 1j * rng.normal(size=(n, 9))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    squares = (np.abs(z.reshape(n, 3, 3)) ** 2).sum(axis=1)  # sum over withheld factor
    return z, squares


def tradeoff_curve(n_samples: int, bin_width: float = 0.01,
                   rng: np.random.Generator | None = None) -> TradeoffCurve:
    """Sample the Holevo tradeoff curve from Haar-random two-qutrit inputs.

    Each sample is reduced to its amplitude triple (see
    :func:`params_from_two_qutrit`), its closed-form Holevo triple is
    computed, and the per-bin maximum of ``chi_y`` is recorded over
    left-closed bins ``[k*w, (k+1)*w)`` of ``max(chi_r, chi_yxr) <= 1``; a
    width ``w >= 2**-53`` keeps every ``k`` an exact integer.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not (np.isfinite(bin_width) and bin_width >= 2.0 ** -53):
        raise ValueError("bin_width must be finite and at least 2**-53")
    rng = np.random.default_rng(0) if rng is None else rng
    _, squares = _haar_two_qutrit_squares(int(n_samples), rng)
    chi_y, chi_r, chi_yxr = _triple_from_squares(squares[:, 0], squares[:, 1], squares[:, 2])
    triples = np.column_stack([chi_y, chi_r, chi_yxr])
    h1 = np.maximum(chi_r, chi_yxr)
    sums = chi_y + h1
    arg = int(np.argmax(sums))
    bins: dict[int, float] = {}
    indices = np.floor(h1 / bin_width).astype(int)
    for k in np.unique(indices):
        mask = indices == k
        bins[int(k)] = float(chi_y[mask].max())
    bin_list = tuple(sorted(((k + 0.5) * bin_width, v) for k, v in bins.items()))
    return TradeoffCurve(
        n_samples=int(n_samples), bin_width=float(bin_width), bins=bin_list,
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
    branch_states = []
    for r, y in RY_ORDER:
        gate = np.kron(eye3, protocol.bob_gate(y, r))
        branch_states.append(PureState(9, gate @ state.amplitudes).projector())
    values = {}
    for label in ("y", "r", "yxr"):
        groups = {0: [], 1: []}
        for (r, y), op in zip(RY_ORDER, branch_states):
            groups[_label_index(label, r, y)].append(op)
        ops = [DensityOperator.mixture([0.5, 0.5], groups[i]) for i in (0, 1)]
        values[label] = holevo(Ensemble.uniform(ops))
    return HolevoTriple(chi_y=min(values["y"], 1.0), chi_r=min(values["r"], 1.0),
                        chi_yxr=min(values["yxr"], 1.0))
