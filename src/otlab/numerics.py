"""Dense complex operator algebra and information primitives for dims <= 9.

Everything here runs on exact dense Hermitian eigendecompositions; the
largest Hilbert space in this package is two qutrits (dimension 9), so cubic
solvers are the right tool and no sparsity or precision tricks are needed.
All entropic quantities are in bits.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "InvalidOperatorError",
    "InvalidStateError",
    "InvalidMeasurementError",
    "PureState",
    "DensityOperator",
    "Povm",
    "Ensemble",
    "von_neumann_entropy",
    "trace_distance",
    "fidelity",
    "partial_trace",
    "haar_random_pure",
    "mutual_information",
    "holevo",
    "classical_mutual_information",
    "xlog2",
    "random_povm",
    "random_povm_elements",
    "random_density_operator",
]

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-10
# Eigenvalues in [EIG_FLOOR, 0] are numerical PSD drift and are clamped to 0
# before logarithms; anything below the floor is rejected as unphysical.
EIG_FLOOR = -1e-10


class InvalidOperatorError(ValueError):
    """A density operator failed the Hermiticity/trace/positivity checks."""


class InvalidStateError(ValueError):
    """A state vector is not normalized."""


class InvalidMeasurementError(ValueError):
    """A POVM failed positivity or completeness, or does not fit the states."""


def xlog2(x):
    """Elementwise ``x * log2(x)`` with the ``0 * log 0 = 0`` convention.

    Entries that are not positive (NaN included) give 0.  Such entries send
    numpy down its slow masked path, so pass only the entries you need.
    """
    arr = np.asarray(x, dtype=float)
    positive = arr > 0.0
    out = np.log2(arr, where=positive, out=np.zeros_like(arr))
    np.multiply(arr, out, where=positive, out=out)
    return float(out) if out.ndim == 0 else out


def _within(a, b, atol: float) -> bool:
    """Every entry of ``a - b`` is at most ``atol`` in modulus.

    A NaN or infinite entry gives a NaN or infinite difference, which never is.
    """
    with np.errstate(invalid="ignore"):
        return bool(np.abs(a - b).max(initial=0.0) <= atol)


def _density_spectra(mats) -> np.ndarray:
    """Spectra ``[..., d]`` of a stack ``[..., d, d]`` of density operators.

    Every matrix must be Hermitian (a NaN or infinite entry never is), have
    unit trace and no eigenvalue below ``EIG_FLOOR``; the first failure
    raises :class:`InvalidOperatorError`.  One batched ``eigvalsh`` serves
    the whole stack.
    """
    mats = np.asarray(mats, dtype=complex)
    if not _within(mats, mats.swapaxes(-1, -2).conj(), HERMITIAN_ATOL):
        raise InvalidOperatorError("operator is not Hermitian")
    traces = mats.trace(axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_ATOL
    if off.any():
        raise InvalidOperatorError(f"trace is {traces[off].flat[0]}, expected 1")
    eigs = np.linalg.eigvalsh(mats)
    if eigs.min(initial=0.0) < EIG_FLOOR:
        raise InvalidOperatorError("operator has a negative eigenvalue beyond tolerance")
    return eigs


def _entropy_bits(spectra):
    """Shannon entropies ``[...]`` of the distributions ``[..., d]``; a float for one."""
    bits = np.maximum(0.0, -xlog2(np.clip(spectra, 0.0, None)).sum(axis=-1))
    return float(bits) if bits.ndim == 0 else bits


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in a ``dim``-dimensional complex Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.dim < 1 or amps.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} amplitudes, got shape {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
            raise InvalidStateError("state vector is not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(dim=amps.size, amplitudes=amps)

    def projector(self) -> "DensityOperator":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.dim, mat)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive semidefinite ``dim x dim`` operator.

    Validation computes the spectrum, which is kept (read-only) for
    :meth:`eigenvalues`.  ``_spectrum`` is private to :meth:`from_stack`,
    which passes the spectra of a stack it validated in one batched pass.
    """

    dim: int
    matrix: np.ndarray
    _spectrum: InitVar[np.ndarray | None] = None

    def __post_init__(self, _spectrum):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {mat.shape}")
        eigs = _density_spectra(mat) if _spectrum is None else _spectrum
        mat.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigenvalues", eigs)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityOperator":
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        return cls(mat.shape[0], mat)

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityOperator":
        return PureState.from_amplitudes(amplitudes).projector()

    @classmethod
    def from_stack(cls, matrices) -> tuple:
        """Density operators of a stack ``[n, d, d]``, validated in one batched pass."""
        mats = np.array(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
        spectra = _density_spectra(mats)
        return tuple(cls(mats.shape[1], mat, _spectrum=spectrum)
                     for mat, spectrum in zip(mats, spectra))

    @classmethod
    def mixture(cls, weights, operators) -> "DensityOperator":
        """Convex combination of density operators."""
        weights = np.asarray(weights, dtype=float)
        mat = sum(w * op.matrix for w, op in zip(weights, operators))
        return cls.from_matrix(mat)

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, computed once at validation (read-only)."""
        return self._eigenvalues


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite measurement: Hermitian elements summing to the identity.

    By default every element must also be positive semidefinite (min
    eigenvalue >= -1e-10).  ``require_psd=False`` skips only that check and
    is used for affine measurement images that reproduce statistics of a
    restricted state family without being physical on all states; the
    resulting object still satisfies Hermiticity and completeness and
    reports its actual minimum eigenvalue via :attr:`min_eigenvalue`.
    """

    dim: int
    elements: tuple
    require_psd: InitVar[bool] = True

    def __post_init__(self, require_psd: bool):
        elems = []
        min_eig = np.inf
        for idx, element in enumerate(self.elements):
            mat = np.asarray(element, dtype=complex)
            if mat.shape != (self.dim, self.dim):
                raise InvalidMeasurementError(
                    f"element {idx} has shape {mat.shape}, expected ({self.dim}, {self.dim})")
            if not _within(mat, mat.conj().T, HERMITIAN_ATOL):
                raise InvalidMeasurementError(f"element {idx} is not Hermitian")
            eig_min = float(np.linalg.eigvalsh(mat).min())
            min_eig = min(min_eig, eig_min)
            if require_psd and eig_min < EIG_FLOOR:
                raise InvalidMeasurementError(
                    f"element {idx} has negative eigenvalue {eig_min:.3e}")
            mat.setflags(write=False)
            elems.append(mat)
        if not elems:
            raise InvalidMeasurementError("POVM needs at least one element")
        total = sum(elems)
        if not _within(total, np.eye(self.dim), COMPLETENESS_ATOL):
            raise InvalidMeasurementError("elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_min_eigenvalue", min_eig)

    @classmethod
    def from_elements(cls, elements, require_psd: bool = True) -> "Povm":
        elems = [np.asarray(e, dtype=complex) for e in elements]
        if not elems:
            raise InvalidMeasurementError("POVM needs at least one element")
        return cls(elems[0].shape[0], tuple(elems), require_psd=require_psd)

    @classmethod
    def projective(cls, basis_rows) -> "Povm":
        """Rank-1 projectors onto the rows of an orthonormal basis matrix."""
        rows = np.asarray(basis_rows, dtype=complex)
        return cls.from_elements([np.outer(v, v.conj()) for v in rows])

    @property
    def min_eigenvalue(self) -> float:
        return self._min_eigenvalue

    @property
    def is_psd(self) -> bool:
        return self._min_eigenvalue >= EIG_FLOOR

    def __len__(self) -> int:
        return len(self.elements)


def _average(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``sum_i p_i rho_i`` of states ``[..., n, d, d]`` and ``probs[n]``, as one matmul."""
    d = states.shape[-1]
    avg = probs[None, :] @ states.reshape(states.shape[:-2] + (d * d,))
    return avg.reshape(avg.shape[:-2] + (d, d))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Classical-quantum source: probabilities paired with density operators."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((float(p), op) for p, op in self.entries)
        if not entries:
            raise ValueError("ensemble needs at least one entry")
        probs = np.array([p for p, _ in entries])
        if not np.isfinite(probs).all():
            raise ValueError("ensemble probabilities must be finite")
        if probs.min() < -NORM_ATOL:
            raise ValueError("ensemble probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > NORM_ATOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        dims = {op.dim for _, op in entries}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in ensemble: {sorted(dims)}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def uniform(cls, operators) -> "Ensemble":
        ops = list(operators)
        return cls(tuple((1.0 / len(ops), op) for op in ops))

    @property
    def dim(self) -> int:
        return self.entries[0][1].dim

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.entries])

    @property
    def states(self) -> tuple:
        return tuple(op for _, op in self.entries)

    def average(self) -> DensityOperator:
        mats = np.array([op.matrix for op in self.states])
        return DensityOperator.from_matrix(_average(self.probabilities, mats))


def _as_density(rho) -> DensityOperator:
    if isinstance(rho, DensityOperator):
        return rho
    return DensityOperator.from_matrix(rho)


def _checked(rho):
    """Matrices and spectra of a :class:`DensityOperator` or of a validated stack.

    An operator gives its matrix and stored spectrum; an array ``[..., d, d]``
    is validated in one batched pass.
    """
    if isinstance(rho, DensityOperator):
        return rho.matrix, rho.eigenvalues()
    mats = np.asarray(rho, dtype=complex)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {mats.shape}")
    return mats, _density_spectra(mats)


def von_neumann_entropy(rho):
    """Spectral entropy ``-sum(lambda * log2(lambda))`` of density operators.

    ``rho`` is a :class:`DensityOperator` (its stored spectrum is used), a
    matrix, or a stack ``[..., d, d]``; a stack gives one value per matrix,
    otherwise a float.  Eigenvalues inside the numerical PSD tolerance band
    are clamped to zero; arrays are validated first, so a non-Hermitian or
    non-unit-trace matrix anywhere in the stack raises
    :class:`InvalidOperatorError`.
    """
    return _entropy_bits(_checked(rho)[1])


def trace_distance(rho, sigma):
    """Half the trace norm of ``rho - sigma``.

    Each argument is a :class:`DensityOperator`, a matrix or a stack
    ``[..., d, d]``; arrays are validated like :func:`von_neumann_entropy`'s,
    stacks broadcast and give one distance per pair, otherwise a float.
    """
    (rho, _), (sigma, _) = _checked(rho), _checked(sigma)
    if rho.shape[-1] != sigma.shape[-1]:
        raise ValueError(f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}")
    dist = np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1) * 0.5
    return float(dist) if dist.ndim == 0 else dist


def _zero_junk_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Clamp eigenvalue noise to exactly 0 so square roots stay clean.

    Eigenvalues of rank-deficient PSD matrices come back as O(eps) junk;
    taking sqrt would inflate them to O(1e-8), so anything below 1e-13
    relative to the spectral radius is treated as an exact zero.
    """
    w = np.clip(w, 0.0, None)
    w[w < 1e-13 * max(1.0, float(w.max(initial=0.0)))] = 0.0
    return w


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``Tr sqrt(sqrt(rho) sigma sqrt(rho))``.

    Equals ``|<psi|phi>|`` on pure inputs.  With the trace distance it obeys
    ``D <= sqrt(1 - F^2)`` on every pair.
    """
    rho, sigma = _as_density(rho), _as_density(sigma)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(_zero_junk_eigenvalues(w))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    eigs = _zero_junk_eigenvalues(np.linalg.eigvalsh(inner))
    return float(min(1.0, np.sqrt(eigs).sum()))


def partial_trace(state, dims, keep: int) -> DensityOperator:
    """Reduce a bipartite density operator to one factor.

    ``dims = (d1, d2)`` declares the tensor factorization (first factor is
    the slow index) and ``keep`` selects the subsystem (0 or 1) to retain.
    """
    rho = _as_density(state)
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 * d2 != rho.dim:
        raise ValueError(f"declared factors {d1}x{d2} do not match dim {rho.dim}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    blocks = rho.matrix.reshape(d1, d2, d1, d2)
    if keep == 0:
        reduced = np.einsum("abcb->ac", blocks)
    else:
        reduced = np.einsum("abad->bd", blocks)
    return DensityOperator.from_matrix(reduced)


def haar_random_pure(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.from_amplitudes(z / np.linalg.norm(z))


def classical_mutual_information(joint):
    """Mutual information in bits of a joint probability table.

    A stack of tables ``[..., rows, cols]`` gives one value per table; a
    single table gives a float.  Tables are renormalized; an all-zero table
    carries no information.
    """
    joint = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    total = joint.sum(axis=(-2, -1), keepdims=True)
    joint = joint / np.where(total > 0, total, 1.0)
    denom = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    mask = joint > 1e-300
    ratio = np.ones_like(joint)
    ratio[mask] = joint[mask] / np.where(denom > 0, denom, 1.0)[mask]
    info = np.maximum(0.0, np.sum(joint * np.log2(ratio), axis=(-2, -1)))
    return float(info) if info.ndim == 0 else info


def mutual_information(ensemble: Ensemble, povm: Povm) -> float:
    """Mutual information between the source label and the POVM outcome."""
    if povm.dim != ensemble.dim:
        raise InvalidMeasurementError(
            f"POVM dim {povm.dim} does not match ensemble dim {ensemble.dim}")
    probs = ensemble.probabilities
    table = np.array([[np.trace(m @ op.matrix).real for m in povm.elements]
                      for op in ensemble.states])
    joint = probs[:, None] * np.clip(table, 0.0, None)
    return classical_mutual_information(joint)


def holevo(ensemble):
    """Holevo quantity ``S(sum_i p_i rho_i) - sum_i p_i S(rho_i)`` in bits.

    ``ensemble`` is an :class:`Ensemble`, whose states' stored spectra are
    reused, or a stack ``[..., n, d, d]`` of ``n`` equiprobable states,
    validated in one batched pass.  The average is formed by one matmul and
    validated as a state; its spectrum is the only one computed beyond the
    states' own.  A stack gives one value per ensemble, an
    :class:`Ensemble` a float.
    """
    if isinstance(ensemble, Ensemble):
        probs = ensemble.probabilities
        spectra = np.array([op.eigenvalues() for op in ensemble.states])
        average = ensemble.average().eigenvalues()
    else:
        states, spectra = _checked(ensemble)
        if states.ndim < 3 or states.shape[-3] == 0:
            raise ValueError(f"expected states [..., n >= 1, d, d], got shape {states.shape}")
        probs = np.full(states.shape[-3], 1.0 / states.shape[-3])
        average = _density_spectra(_average(probs, states))
    chi = np.maximum(0.0, _entropy_bits(average) - (probs * _entropy_bits(spectra)).sum(axis=-1))
    return float(chi) if chi.ndim == 0 else chi


def random_density_operator(dim: int, rng: np.random.Generator,
                            rank: int | None = None) -> DensityOperator:
    """Random mixed state from a normalized Wishart matrix."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = x @ x.conj().T
    return DensityOperator.from_matrix(mat / np.trace(mat).real)


def random_povm_elements(dim: int, n_elements: int, rng: np.random.Generator,
                         real: bool = False, rank: int | None = None) -> np.ndarray:
    """Elements ``[n, dim, dim]`` of a random POVM, by symmetric normalization.

    Each element starts as a random PSD seed ``x x^dagger`` with ``x`` of
    shape ``(dim, rank)`` (default rank: full); ``real=True`` draws real
    ``x``.  The seeds are conjugated by the inverse square root of their sum.
    If 100 draws in a row give an ill-conditioned sum, the last draw gets a
    multiple of the identity as one more element, so ``n = n_elements + 1``.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    rank = dim if rank is None else rank
    # Reject ill-conditioned frames so the normalized elements stay exact
    # to machine precision (low-rank seeds can nearly miss a direction).
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
    inv_sqrt = (v * (w ** -0.5)) @ v.conj().T
    return (inv_sqrt @ seeds @ inv_sqrt).astype(complex, copy=False)


def random_povm(dim: int, n_elements: int, rng: np.random.Generator,
                real: bool = False, rank: int | None = None) -> Povm:
    """Validated :class:`Povm` of :func:`random_povm_elements` (same draws)."""
    return Povm.from_elements(list(random_povm_elements(dim, n_elements, rng, real, rank)))
