"""Dense complex operator algebra and information primitives for small dimensions.

Everything here runs on exact dense Hermitian eigendecompositions; the
protocol's Hilbert space is one qutrit, so cubic solvers are the right tool
and no sparsity or precision tricks are needed.  All entropic quantities are
in bits.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidOperatorError",
    "InvalidStateError",
    "InvalidMeasurementError",
    "PureState",
    "DensityOperator",
    "Povm",
    "is_measurement",
    "Ensemble",
    "trace_distance",
    "mutual_information",
    "holevo",
    "classical_mutual_information",
    "xlog2",
    "dirichlet_blocks",
]

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
COMPLETENESS_ATOL = 1e-10
# Eigenvalues in [EIG_FLOOR, 0] are numerical PSD drift and are clamped to 0
# before logarithms; anything below the floor is rejected as unphysical.
EIG_FLOOR = -1e-10
# Rows per block of dirichlet_blocks, which every sampled sweep (verify prop1, prop3 and lemma1,
# and the tradeoff curve) draws through.  A block's [rows, 3] draw is 192 KiB and each per-sample
# temporary 64 KiB, so a 100k-sample sweep works on cache-sized arrays instead of a few dozen
# fresh 800 KB ones.  verify infodelta and examples check their grids, and the CLI's table
# writes its runs, in blocks of as many points.
DIRICHLET_BLOCK = 8192


class InvalidOperatorError(ValueError):
    """A density operator failed the Hermiticity/trace/positivity checks."""


class InvalidStateError(ValueError):
    """A state vector is not normalized."""


class InvalidMeasurementError(ValueError):
    """A POVM failed positivity or completeness, or does not fit the states."""


def _integer(value, name: str) -> int:
    """``value`` as an int: a Python or numpy integer of any size, not a bool.

    Every count and seed enters the library here, and every real through :func:`_real`;
    each caller checks its range.  Anything else raises ValueError naming ``name``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, not {value!r}")


# Integers wider than this are shown in messages by their width, not their digits: Python's
# str() of an int stops at 4300 digits, and a message should not run for pages either.
_SHOWN_BITS = 256


def _shown(value, convert=str) -> str:
    """``convert(value)`` for a message, or, for an int wider than ``_SHOWN_BITS``, its width.

    Every range message that prints a value it was given prints it through
    here, so that no integer, of any size, makes the message itself fail.
    """
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return convert(value)


def _real(value, name: str) -> float:
    """``value`` as a finite float: a Python or numpy integer or float, not a bool."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    with contextlib.suppress(OverflowError):   # an integer past the float range is not finite
        if -np.inf < float(value) < np.inf:   # NaN fails too
            return float(value)
    raise ValueError(f"{name} must be finite")


def xlog2(x):
    """Elementwise ``x * log2(x)`` with the ``0 * log 0 = 0`` convention.

    Entries that are not positive (NaN included) give exactly 0.  When every
    entry is positive, the logarithm and the product are taken unmasked;
    only when some entry is not are they taken at the positive entries
    alone, into an array of zeros, through numpy's slower masked loops.  The
    two paths give the same bits on the positive entries.
    """
    arr = np.asarray(x, dtype=float)
    positive = arr > 0.0
    if positive.all():
        out = np.log2(arr)
        out *= arr
    else:
        out = np.zeros(arr.shape)
        np.log2(arr, out=out, where=positive)
        np.multiply(out, arr, out=out, where=positive)
    return float(out) if out.ndim == 0 else out


def dirichlet_blocks(rng: np.random.Generator, shape: int, n: int):
    """``n`` Dirichlet(shape, shape, shape) rows, in blocks of ``DIRICHLET_BLOCK`` rows.

    Each entry is the Erlang(``shape``) variable ``-log((1 - U1)...(1 - Us))``
    of ``shape`` uniforms, over its row's sum.  The uniforms are drawn
    row-major as ``[rows, 3, shape]``, ``DIRICHLET_BLOCK // shape`` rows at a
    time, so the blocks, drawn in order, concatenate to the rows of one draw
    ``rng.random((n, 3, shape))``, leave ``rng`` in the same state, and hold
    no more uniforms at once than one block holds entries (at shape 1 they
    are drawn into the block itself); only the last block may be shorter.  A row is taken as its logarithms over their sum,
    which negating both leaves exactly as it is.  The rows stay finite:
    ``1 - U`` lies in (0, 1], so an entry is at most ``53 * shape * log(2)``,
    and it is 0 only if its ``shape`` uniforms are.  The one 0/0, a row of
    ``3 * shape`` zero uniforms, has probability ``2**-159`` at shape 1 and
    ``2**-477`` at shape 3.
    """
    slice_rows = DIRICHLET_BLOCK // shape
    for start in range(0, n, DIRICHLET_BLOCK):
        squares = np.empty((min(DIRICHLET_BLOCK, n - start), 3))
        for row in range(0, len(squares), slice_rows):
            product = squares[row:row + slice_rows]
            if shape == 1:
                rng.random(out=product)
                np.subtract(1.0, product, out=product)
            else:
                uniforms = rng.random((len(product), 3, shape))
                np.subtract(1.0, uniforms, out=uniforms)
                np.multiply(uniforms[..., 0], uniforms[..., 1], out=product)
                for factor in range(2, shape):
                    product *= uniforms[..., factor]
        np.log(squares, out=squares)
        # Summed column by column, in the order of sum(axis=1), which reduces a short axis slowly.
        squares /= (squares[:, 0] + squares[:, 1] + squares[:, 2])[:, None]
        yield squares


def _unit_trace_hermitian(mats) -> np.ndarray:
    """``mats`` as a complex stack ``[..., d, d]``, checked Hermitian and of unit trace.

    A NaN or infinite entry is never Hermitian.  The first failure raises
    :class:`InvalidOperatorError`.
    """
    mats = np.asarray(mats, dtype=complex)
    if not (np.isfinite(mats).all()
            and np.abs(mats - mats.swapaxes(-1, -2).conj()).max(initial=0.0) <= HERMITIAN_ATOL):
        raise InvalidOperatorError("operator is not Hermitian")
    traces = mats.trace(axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_ATOL
    if off.any():
        raise InvalidOperatorError(f"trace is {traces[off].flat[0]}, expected 1")
    return mats


def _above_floor(eigs) -> np.ndarray:
    """``eigs``, unless an eigenvalue lies below ``EIG_FLOOR``: then :class:`InvalidOperatorError`."""
    if eigs.min(initial=0.0) < EIG_FLOOR:
        raise InvalidOperatorError("operator has a negative eigenvalue beyond tolerance")
    return eigs


def _density_spectra(mats) -> np.ndarray:
    """Spectra ``[..., d]`` of a stack ``[..., d, d]`` of density operators.

    Every matrix must be Hermitian, have unit trace and no eigenvalue below
    ``EIG_FLOOR``; the first failure raises :class:`InvalidOperatorError`.
    One batched ``eigvalsh`` serves the whole stack.
    """
    return _above_floor(np.linalg.eigvalsh(_unit_trace_hermitian(mats)))


def _entropy_bits(spectra):
    """Shannon entropies ``[...]`` of the distributions ``[..., d]``; a float for one.

    Entries that are not positive (NaN included) add nothing, as in :func:`xlog2`.
    """
    safe = np.where(spectra > 0.0, spectra, 1.0)
    bits = np.maximum(0.0, -(safe * np.log2(safe)).sum(axis=-1))
    return float(bits) if bits.ndim == 0 else bits


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only complex copy."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector: ``PureState(amplitudes)`` keeps a flat read-only copy, ``dim`` long."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.reshape(self.amplitudes, -1))
        if abs(np.linalg.norm(amps) - 1.0) > NORM_ATOL:
            raise InvalidStateError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive semidefinite operator ``dim x dim``.

    ``DensityOperator(matrix)`` keeps a read-only copy of the square matrix,
    validated through its spectrum, which is not kept.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        _density_spectra(mat)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _view(cls, matrix: np.ndarray) -> "DensityOperator":
        """A view of a validated read-only matrix, for :attr:`Ensemble.states`: no copy, no check."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", matrix)
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def is_measurement(elements):
    """Per measurement of a stack ``[..., n, d, d]``: Hermitian elements summing to the identity.

    Gives a bool array ``[...]``, or a bool for one measurement ``[n, d, d]``.
    Positivity is not checked.  A NaN or infinite entry never passes.
    """
    elements = np.asarray(elements, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        asymmetry = np.abs(elements - elements.swapaxes(-1, -2).conj()).max(
            axis=(-3, -2, -1), initial=0.0)
        incompleteness = np.abs(elements.sum(axis=-3) - np.eye(elements.shape[-1])).max(
            axis=(-2, -1), initial=0.0)
    ok = (asymmetry <= HERMITIAN_ATOL) & (incompleteness <= COMPLETENESS_ATOL)
    return bool(ok) if ok.ndim == 0 else ok


def _element_stack(elements) -> np.ndarray:
    """A copy of ``elements`` as a complex stack ``[n >= 1, d, d]``."""
    try:
        elems = np.array(elements, dtype=complex)
    except ValueError:  # a ragged list: elements of mismatched shapes
        raise InvalidMeasurementError("elements have mismatched shapes") from None
    if elems.ndim != 3 or elems.shape[0] == 0 or elems.shape[1] != elems.shape[2]:
        raise InvalidMeasurementError(f"expected elements [n >= 1, d, d], got {elems.shape}")
    return elems


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite measurement: Hermitian, positive semidefinite elements summing to the identity.

    An element's eigenvalues may dip to -1e-10, as numerical drift.
    ``Povm(elements)`` validates the elements in one batched pass
    (:func:`is_measurement` and one ``eigvalsh``) and keeps one read-only
    copy ``[n, dim, dim]`` of them.
    """

    elements: np.ndarray

    def __post_init__(self):
        elems = _element_stack(self.elements)
        if not is_measurement(elems):
            raise InvalidMeasurementError("elements are not Hermitian or do not sum to the identity")
        element_min = np.linalg.eigvalsh(elems).min(axis=-1)
        idx = int(np.argmin(element_min))
        if element_min[idx] < EIG_FLOOR:
            raise InvalidMeasurementError(
                f"element {idx} has negative eigenvalue {element_min[idx]:.3e}")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)


def _average(probs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``sum_i p_i rho_i`` of states ``[..., n, d, d]`` and ``probs[n]``, as one matmul."""
    d = states.shape[-1]
    avg = probs[None, :] @ states.reshape(states.shape[:-2] + (d * d,))
    return avg.reshape(avg.shape[:-2] + (d, d))


def _spectra_with_average(probs: np.ndarray, states: np.ndarray) -> tuple:
    """Stack ``[..., n + 1, d, d]`` of states ``[..., n, d, d]`` and their average, and its spectra.

    The states are copied once, into a new complex stack, whose last slot
    takes their average; one ``eigvalsh`` of the stack gives the spectra
    ``[..., n + 1, d]``.  A state's eigenvalue below ``EIG_FLOOR`` raises
    :class:`InvalidOperatorError`; the average, a convex combination of the
    states, is not checked.
    """
    n = states.shape[-3]
    stack = np.empty(states.shape[:-3] + (n + 1,) + states.shape[-2:], dtype=complex)
    stack[..., :n, :, :] = states
    stack[..., n, :, :] = _average(probs, stack[..., :n, :, :])
    eigs = np.linalg.eigvalsh(stack)
    _above_floor(eigs[..., :n, :])
    return stack, eigs


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """Classical-quantum source: probabilities ``[n]`` paired with ``n`` density operators.

    ``states`` is a stack ``[n, d, d]`` or a sequence of matrices or
    :class:`DensityOperator` s.  Only the probabilities ``[n]``, the
    matrices ``[n, d, d]``, their spectra ``[n, d]`` and the spectrum
    ``[d]`` of their average are kept, as read-only arrays; :attr:`states`
    views them.  After the probability, Hermiticity and trace checks, the
    states are copied once, into a stack with room for their average, and
    one ``eigvalsh`` of it gives the states' spectra, checked against
    ``EIG_FLOOR``, and the average's.
    """

    probabilities: np.ndarray
    matrices: np.ndarray
    spectra: np.ndarray
    average_spectrum: np.ndarray

    def __init__(self, probabilities, states):
        if not isinstance(states, np.ndarray):
            states = [op.matrix if isinstance(op, DensityOperator) else op for op in states]
        matrices = np.asarray(states, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[0] == 0 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError(f"expected states [n >= 1, d, d], got shape {matrices.shape}")
        probs = np.array(probabilities, dtype=float)
        if probs.shape != matrices.shape[:1]:
            raise ValueError(f"{probs.size} probabilities for {len(matrices)} states")
        if not np.isfinite(probs).all():
            raise ValueError("ensemble probabilities must be finite")
        if probs.min() < -NORM_ATOL:
            raise ValueError("ensemble probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        self._store(probs, _unit_trace_hermitian(matrices))

    def _store(self, probs: np.ndarray, states: np.ndarray) -> None:
        """Keep ``probs[n]``, a complex copy of ``states[n, d, d]`` and their spectra, read-only."""
        stack, eigs = _spectra_with_average(probs, states)
        for name, arr in (("probabilities", probs), ("matrices", stack[:-1]),
                          ("_eigenvalues", eigs), ("spectra", eigs[:-1]),
                          ("average_spectrum", eigs[-1])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls, states) -> "Ensemble":
        """Equiprobable ``states``, in any form the constructor takes."""
        if not isinstance(states, np.ndarray):
            states = list(states)
        return cls(np.ones(len(states)) / len(states), states)

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @property
    def states(self) -> tuple:
        """Read-only :class:`DensityOperator` views of the matrices.

        The views are built as they are, without validation or ``eigvalsh``.
        """
        return tuple(map(DensityOperator._view, self.matrices))


def _valid_ensemble(probabilities, states) -> Ensemble:
    """:class:`Ensemble` of states ``[n, d, d]`` that are density operators by construction.

    For callers that build ``states`` from inputs already validated: the
    probability, Hermiticity and trace checks are skipped, and only the
    states' spectra are checked against ``EIG_FLOOR``.  The states are kept
    as a complex copy, as the public constructor keeps them.
    """
    ensemble = object.__new__(Ensemble)
    ensemble._store(np.array(probabilities, dtype=float), np.asarray(states))
    return ensemble


def _checked(rho) -> np.ndarray:
    """The matrix of a :class:`DensityOperator`, or an array ``[..., d, d]`` validated at once."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    mats = np.asarray(rho, dtype=complex)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {mats.shape}")
    _density_spectra(mats)
    return mats


def trace_distance(rho, sigma):
    """Half the trace norm of ``rho - sigma``.

    Each argument is a :class:`DensityOperator`, a matrix or a stack
    ``[..., d, d]``; arrays are validated first, so a non-Hermitian or
    non-unit-trace matrix anywhere raises :class:`InvalidOperatorError`.
    Stacks broadcast and give one distance per pair, otherwise a float.
    """
    rho, sigma = _checked(rho), _checked(sigma)
    if rho.shape[-1] != sigma.shape[-1]:
        raise ValueError(f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}")
    dist = np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1) * 0.5
    return float(dist) if dist.ndim == 0 else dist


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
    ratio = np.where(joint > 1e-300, joint / np.where(denom > 0, denom, 1.0), 1.0)
    info = np.maximum(0.0, np.sum(joint * np.log2(ratio), axis=(-2, -1)))
    return float(info) if info.ndim == 0 else info


def mutual_information(ensemble: Ensemble, povm: Povm) -> float:
    """Mutual information between the source label and the POVM outcome."""
    if povm.dim != ensemble.dim:
        raise InvalidMeasurementError(
            f"POVM dim {povm.dim} does not match ensemble dim {ensemble.dim}")
    # table[s, n] = Tr(M_n rho_s), for every state and element at once.
    table = np.einsum("nij,sji->sn", povm.elements, ensemble.matrices).real
    joint = ensemble.probabilities[:, None] * np.clip(table, 0.0, None)
    return classical_mutual_information(joint)


def holevo(ensemble):
    """Holevo quantity ``S(sum_i p_i rho_i) - sum_i p_i S(rho_i)`` in bits.

    ``ensemble`` is an :class:`Ensemble`, whose stored spectra (its states'
    and its average's) are reused with no ``eigvalsh``, or a stack
    ``[..., n, d, d]`` of ``n`` equiprobable states.  A stack is validated
    as the :class:`Ensemble` constructor validates its states, and one
    ``eigvalsh`` gives the states' and the averages' spectra.  A stack
    gives one value per ensemble, an :class:`Ensemble` a float.
    """
    if isinstance(ensemble, Ensemble):
        probs, eigs = ensemble.probabilities, ensemble._eigenvalues
    else:
        states = np.asarray(ensemble, dtype=complex)
        if states.ndim < 3 or states.shape[-3] == 0 or states.shape[-1] != states.shape[-2]:
            raise ValueError(f"expected states [..., n >= 1, d, d], got shape {states.shape}")
        probs = np.full(states.shape[-3], 1.0 / states.shape[-3])
        _, eigs = _spectra_with_average(probs, _unit_trace_hermitian(states))
    entropies = _entropy_bits(eigs)
    chi = np.maximum(0.0, entropies[..., -1] - (probs * entropies[..., :-1]).sum(axis=-1))
    return float(chi) if chi.ndim == 0 else chi


def _povm_frames(rng: np.random.Generator, dim: int, sizes, real: bool = False,
                 ranks=None) -> np.ndarray:
    """Frames ``V[s, N, r, dim]`` of ``s`` random POVMs of ``sizes[s]`` elements each.

    A POVM's seeds are random PSD ``x x^dagger``, with ``x`` the first
    ``ranks[i]`` columns (default: all) of a ``dim x dim`` Gaussian matrix,
    real if ``real``, else a real part plus ``1j`` times an imaginary part.
    The frame vectors are those columns times the inverse square root
    ``S^{-1/2}`` of the seeds' sum, so element ``n`` is
    ``sum_k V[n, k] V[n, k]^dagger``; past a POVM's own count and rank they
    are exact zeros.  Each draw is one ``rng.normal`` of
    ``[rows, max(sizes), 1 or 2, dim, dim]``: the POVMs whose ``S`` is
    ill-conditioned are drawn again as one batch.  One drawn so 100 times
    gets ``0.01 * w.max()`` times the identity as one more seed, and then
    ``N = max(sizes) + 1`` and, in that block only, ``r = dim``; otherwise
    ``r = max(ranks)``.  The frames are real if ``real``, else complex.
    """
    sizes = np.asarray(sizes)
    ranks = np.full(len(sizes), dim) if ranks is None else np.asarray(ranks)
    if sizes.min(initial=1) < 1 or ranks.min(initial=1) < 1:
        raise ValueError("need at least one element of rank >= 1 per POVM")
    rank = int(ranks.max(initial=1))
    # Per POVM, its live Gaussian entries: the first sizes[i] seeds' first ranks[i] columns.
    live = ((np.arange(sizes.max(initial=1)) < sizes[:, None])[:, :, None, None, None]
            & (np.arange(rank) < ranks[:, None])[:, None, None, None, :])

    def columns_of(rows):
        z = rng.normal(size=(len(rows), live.shape[1], 1 if real else 2, dim, dim))
        z = z[..., :rank] * live[rows]
        return z[:, :, 0] if real else z[:, :, 0] + 1j * z[:, :, 1]

    def flat(x):
        """The columns ``[rows, dim, N * r]`` of every seed of ``x[rows, N, dim, r]``, in a row."""
        return np.moveaxis(x, -2, 1).reshape(len(x), dim, -1)

    def frame_sums(x):
        # sum_n x_n x_n^dagger, as one [dim, N * r] matrix times its adjoint.
        cols = flat(x)
        return cols @ np.conj(np.swapaxes(cols, -1, -2))

    rows = np.arange(len(sizes))
    x = columns_of(rows)                                   # [s, N, dim, r]
    w, v = np.linalg.eigh(frame_sums(x))
    for draw in range(100):
        # Reject ill-conditioned frames so the normalized elements stay exact
        # to machine precision (low-rank seeds can nearly miss a direction).
        rows = rows[w[rows, 0] <= 1e-3 * w[rows, -1]]
        if rows.size == 0:
            break
        if draw < 99:
            x[rows] = columns_of(rows)
        else:
            # The identity seed's columns are sqrt(0.01 w.max()) e_k, so r widens to dim.
            grown = np.zeros((len(x), x.shape[1] + 1, dim, dim), dtype=x.dtype)
            grown[:, :-1, :, :rank] = x
            grown[rows, sizes[rows]] = np.sqrt(0.01 * w[rows, -1, None, None]) * np.eye(dim)
            x = grown
        w[rows], v[rows] = np.linalg.eigh(frame_sums(x[rows]))
    inv_sqrt = (v * (w[:, None, :] ** -0.5)) @ np.conj(np.swapaxes(v, -1, -2))
    frames = (inv_sqrt @ flat(x)).reshape(len(x), dim, x.shape[1], x.shape[-1])
    return np.moveaxis(frames, 1, -1)


def _frame_elements(frames: np.ndarray) -> np.ndarray:
    """Elements ``[..., dim, dim]`` of frames ``[..., r, dim]``: ``sum_k v_k v_k^dagger``."""
    return np.swapaxes(frames, -1, -2) @ np.conj(frames)

