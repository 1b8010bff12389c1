"""Property sweeps behind ``otlab verify``, one function per suite.

Each suite takes a sample count and a master seed, draws what it samples
from its own substream, checks one family of claims of the single-instance
analysis on arrays, and returns a JSON-ready report.  Its ``violations``
entry counts the failed checks; a failed check is counted, never raised.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import numerics, security
from .seeding import COMPONENTS, substream_rng


# POVMs per block of the prop1 and lemma1 sweeps, and so part of their
# stream definition: each block draws its POVM sizes (and lemma1's ranks),
# then its amplitude rows, then its frames, and is evaluated in one pass.
# A long sweep holds one block's draws and arrays (a few MB), not all of them.
SAMPLE_BLOCK = 512


def _povm_blocks(rng: np.random.Generator, samples: int, pairs: int, triples: int, real: bool):
    """Per block of ``max(1, pairs // triples)`` random qutrit POVMs, their frames and squares.

    Yields frames ``[s, N, r, 3]``, zero past each POVM's 3 to 7 outcomes
    (see :func:`numerics._povm_frames`), and ``triples`` Dirichlet(1, 1, 1)
    rows per POVM, ``[s, triples, 3]``.  ``samples`` and ``triples`` are integers >= 1.
    """
    for name, count in (("samples", samples), ("params_per_povm", triples)):
        if numerics._integer(count, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    block = max(1, pairs // triples)
    for start in range(0, samples, block):
        s = min(block, samples - start)
        sizes = rng.integers(3, 8, size=s)
        # Rank-1 outcomes are the informative extreme; real (lemma1's) POVMs mix in full rank.
        ranks = np.where(rng.random(s) < 0.5, 1, 3) if real else np.ones(s, dtype=int)
        squares = np.concatenate(list(numerics.dirichlet_blocks(rng, 1, s * triples)))
        yield (numerics._povm_frames(rng, 3, sizes, real, ranks),
               squares.reshape(s, triples, 3))


def prop1(samples: int, seed: int) -> dict:
    """Same-measurement information sums stay below one bit.

    Each POVM's outcome probabilities are read off its frames
    (:func:`security._frame_probabilities`); no element is formed.
    """
    rng = substream_rng(seed, COMPONENTS["verify"], 1)
    info = np.concatenate([
        security._label_information(security._frame_probabilities(frames, np.sqrt(squares))[:, 0])
        for frames, squares in _povm_blocks(rng, samples, SAMPLE_BLOCK, 1, real=False)])
    i_y, i_r, i_yxr = info.T
    margins = 1.0 - (i_y[:, None] + np.column_stack([i_r, i_yxr]))
    return {"min_margin": float(margins.min()), "samples": samples,
            "violations": int(np.any(margins < -1e-9, axis=1).sum())}


# Grid over a^2 in [0, 1], with 1/2 on it, that locates the equality locus.
_LOCUS_GRID = np.linspace(0.0, 1.0, 1001)


def _slice_radius(a2):
    """``(p_r - 1/2)^2 + (p_y - 1/2)^2`` on the slice ``b^2 = c^2 = (1 - a^2)/2``."""
    a = np.sqrt(a2)
    b = c = np.sqrt((1.0 - a2) / 2.0)
    return (a * c) ** 2 + (a * b) ** 2


def prop2(samples: int, seed: int) -> dict:
    """Guessing-probability circle constraints, plus the equality locus.

    With ``a^2 + b^2 + c^2 = 1`` the two constraints' left sides,
    ``(ac)^2 + (ab)^2`` and ``(bc)^2 + (ab)^2``, are exactly ``a^2 (1 - a^2)``
    and ``b^2 (1 - b^2)``, so no triple needs sampling: the identity
    ``x (1 - x)`` is evaluated on ``_LOCUS_GRID``, and its maximum, 1/4 at
    ``x = 1/2``, is ``max_lhs``.  A grid point above ``1/4 + 1e-12`` counts
    one violation.  On the slice ``b^2 = c^2`` the first left side meets 1/4
    exactly at ``a^2 = 1/2``: that closed form is reported, and one violation
    is counted if the grid maximum of the slice radius lies more than one
    grid step from it.  ``samples`` is echoed, and nothing is drawn.
    """
    lhs = _LOCUS_GRID * (1.0 - _LOCUS_GRID)
    violations = int(np.count_nonzero(lhs > 0.25 + 1e-12))
    peak = _LOCUS_GRID[np.argmax(_slice_radius(_LOCUS_GRID))]
    violations += int(abs(peak - 0.5) > _LOCUS_GRID[1] - _LOCUS_GRID[0])
    return {"equality_a2": 0.5, "max_lhs": float(lhs.max()), "samples": samples,
            "violations": violations}


def prop3(samples: int, seed: int) -> dict:
    """Binary-entropy tradeoff bounds over random amplitude triples.

    Per block of Dirichlet(1, 1, 1) triples, reduces the margins that
    :func:`security.tradeoff_bound_margins` gives on the rows where a bound
    applies: ``applicable`` counts (sample, anchor) pairs with a bound,
    ``min_margin`` is their smallest margin (null when there is none) and
    ``violations`` counts margins below -1e-9.
    """
    rng = substream_rng(seed, COMPONENTS["verify"], 3)
    if numerics._integer(samples, "samples") < 1:
        raise ValueError("samples must be >= 1")
    applicable, min_margin, violations = 0, np.nan, 0
    for squares in numerics.dirichlet_blocks(rng, 1, samples):
        triple = security._triple_from_squares(*squares.T)
        for rows, margins in security.tradeoff_bound_margins(*triple):
            applicable += rows.size
            min_margin = np.fmin.reduce(margins, axis=None, initial=min_margin)
            violations += int(np.count_nonzero(margins < -1e-9))
    return {"applicable": applicable,
            "min_margin": None if np.isnan(min_margin) else float(min_margin),
            "samples": samples, "violations": violations}


def lemma1(samples: int, seed: int, params_per_povm: int = 10) -> dict:
    """Qubit reduction: exact statistics preservation and the one-bit cap.

    Every (POVM, triple) pair counts one violation if its exact images miss
    the qutrit statistics by more than 1e-10, carry more than one bit about
    the sign state, or are not complete, and one more if its psd images are
    not a bona fide POVM.  The images are checked in the Bloch form
    ``t I + b . sigma`` of :func:`security._lemma1_bloch`, Hermitian by
    construction: an image's probability on the tetrahedron state of Bloch
    vector ``r`` is ``t + b . r``, its least eigenvalue ``t - |b|``, and
    completeness is :func:`security._bloch_is_measurement`.  The qutrit
    statistics are read off the frames (:func:`security._frame_probabilities`).
    """
    rng = substream_rng(seed, COMPONENTS["verify"], 4)
    max_dev, max_mi, violations = 0.0, 0.0, 0
    # Blocks of SAMPLE_BLOCK POVMs at the default 10 triples each: as many pairs at any count.
    for frames, squares in _povm_blocks(rng, samples, SAMPLE_BLOCK * 10, params_per_povm, True):
        amplitudes = np.sqrt(squares)                                          # [s, p, 3]
        elements = numerics._frame_elements(frames)                            # [s, N, 3, 3]
        t, bloch = security._lemma1_bloch(elements, amplitudes, "exact")       # [s, p, n(, 3)]
        # t + b . r on the tetrahedron state of each Bloch vector r: [s, p, 4, n].
        probs2 = np.swapaxes(bloch @ security._TETRA_BLOCH.T, -1, -2) + t[..., None, :]
        probs3 = security._frame_probabilities(frames, amplitudes)            # [s, p, 4, n]
        dev = np.abs(probs3 - probs2).max(axis=(-2, -1))
        joint_mi = numerics.classical_mutual_information(0.25 * probs2)
        max_dev = max(max_dev, float(dev.max()))
        max_mi = max(max_mi, float(joint_mi.max()))
        violations += int(np.sum((dev > 1e-10) | (joint_mi > 1.0 + 1e-9)
                                 | ~security._bloch_is_measurement(t, bloch)))
        # The psd variant must always be a bona fide POVM.
        t, bloch = security._lemma1_bloch(elements, amplitudes, "psd")
        negative = security._bloch_least_eigenvalues(t, bloch) < numerics.EIG_FLOOR
        violations += int(np.sum(negative.any(axis=-1) | ~security._bloch_is_measurement(t, bloch)))
    return {"max_joint_mi": max_mi, "max_statistics_deviation": max_dev,
            "samples": samples, "violations": violations}


def thm3(samples: int, seed: int) -> dict:
    """Guessing-probability inequality extreme points."""
    report = dataclasses.asdict(security.theorem3_report())
    exact = {"lhs_eq17": 2.0, "lhs_eq18": 2.0, "p_b": 0.75, "p_b_prime": 0.75, "p_a": 0.5}
    violations = sum(not abs(report[name] - value) <= 1e-12 for name, value in exact.items())
    return {**report, "samples": samples, "violations": violations}


def _grid_blocks(lo: float, hi: float, n: int):
    """``np.linspace(lo, hi, n)`` bit for bit, ``numerics.DIRICHLET_BLOCK`` points at a time."""
    step = (hi - lo) / (n - 1)
    for start in range(0, n, numerics.DIRICHLET_BLOCK):
        # linspace's own arithmetic, with its last point pinned to the end.
        grid = np.arange(start, min(start + numerics.DIRICHLET_BLOCK, n)) * step + lo
        if start + grid.size == n:
            grid[-1] = hi
        yield grid


def infodelta(samples: int, seed: int) -> dict:
    """Strict small-delta information chain on ``np.linspace(0.001, 0.099, max(2, samples))``."""
    min_margin, violations = np.inf, 0
    for delta in _grid_blocks(0.001, 0.099, max(2, samples)):
        report = security.infodelta_check(delta)
        min_margin = min(min_margin, report.min_margin)
        violations += int(np.count_nonzero(~report.point_ok))
    return {"min_margin": min_margin, "samples": samples, "violations": violations}


def examples(samples: int, seed: int) -> dict:
    """Example measurement identities on parameter grids, checked a block at a time."""
    center = abs(security.example3_value(1 / np.sqrt(2)) - 1.0)
    worst, violations = center, int(center > 1e-10)
    # CheatParams.from_alpha(alpha) measured by example1_povm(alpha): the
    # information about y is cos^2(alpha) and the sum over y and r one bit.
    for alphas in _grid_blocks(0.0, np.pi / 2, max(2, samples)):
        amplitudes = (1.0 / np.sqrt(2.0)) * np.column_stack(
            [np.ones_like(alphas), np.cos(alphas), np.sin(alphas)])
        info = security.sign_state_information(security.example1_elements(alphas), amplitudes)
        split_dev = np.maximum(np.abs(info[:, 0] - np.cos(alphas) ** 2),
                               np.abs(info[:, 0] + info[:, 1] - 1.0))
        worst = max(worst, float(split_dev.max()))
        violations += int(np.count_nonzero(split_dev > 1e-10))
    # Triples (a, b' cos t, b' sin t) measured by example1_povm(t) carry
    # example3_value(a) bits about y and r together.
    n = max(2, samples // 2)
    for a_grid, thetas in zip(_grid_blocks(0.05, 0.95, n), _grid_blocks(0.1, 1.4, n)):
        b_prime = np.sqrt(1 - a_grid ** 2)
        amplitudes = np.column_stack([a_grid, b_prime * np.cos(thetas), b_prime * np.sin(thetas)])
        info = security.sign_state_information(security.example1_elements(thetas), amplitudes)
        value_dev = np.abs(security.example3_value(a_grid) - (info[:, 0] + info[:, 1]))
        worst = max(worst, float(value_dev.max()))
        violations += int(np.count_nonzero(value_dev > 1e-9))
    return {"max_deviation": worst, "samples": samples, "violations": violations}


SUITES = {suite.__name__: suite for suite in (prop1, prop2, prop3, lemma1, thm3, infodelta,
                                               examples)}
