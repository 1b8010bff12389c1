"""Exact state machine for the qutrit one-time-table generation protocol.

One honest run: Alice encodes her input bit ``x`` and a fresh coin ``t`` in
the qutrit state ``(|x> + (-1)^t |2>)/sqrt(2)`` and sends it; Bob applies the
diagonal phase gate keyed by his input ``y`` and a fresh output bit ``r`` and
returns the qutrit; Alice measures in the basis
``{(|x>+|2>)/sqrt2, (|x>-|2>)/sqrt2, |1-x>}`` and outputs 0 exactly when the
outcome matches what she sent.  The resulting four bits ``(x, y, e, f)``
satisfy ``e XOR f = x AND y`` and realize a PR-box style one-time table,
which :func:`and_eval` then consumes to compute a distributed AND of fresh
inputs with one-time-pad-masked messages.

:data:`SENT`, :data:`GATES` and :data:`BASES` hold this encoding as
read-only tables indexed by bits; :func:`alice_prepare`, :func:`bob_gate` and
:func:`alice_basis` check their bits and look up.  The returned qutrit is an
eigenstate of Alice's basis, so the four bits ``(x, y, t, r)`` fix the
outcome, with no draw for the measurement.  :data:`OUTCOMES`, a fourth
read-only table, holds that outcome for each of the 16 combinations; it is
computed from the exact Born law at import, which raises RuntimeError unless
every combination is one-hot on outcome 0 or 1.

Honest runs have one draw order, the private ``_honest_coins``: all of Bob's
output bits ``r``, then all of Alice's coins ``t``, each drawn by
``_fair_bits`` from the bit generator's raw 64-bit words, and checking no
bits.  A run's record is ``e = OUTCOMES[x, y, t, r] XOR t = (x AND y) XOR r``
and ``f = r``, the same for either ``t``: the coin only masks ``x`` in the
sent qutrit.  :func:`run_honest` checks its bit arrays with ``_bits``, draws
both coins and reads ``e`` off :data:`OUTCOMES`; the command line's ``table``
draws ``r`` alone, the head of the same order, and writes records encoded
from :data:`OUTCOMES` once, at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PureState, _frozen, _shown

__all__ = [
    "SENT",
    "GATES",
    "BASES",
    "OUTCOMES",
    "correlated",
    "OneTimeTable",
    "AndEvalResult",
    "alice_prepare",
    "bob_gate",
    "alice_basis",
    "run_honest",
    "and_eval",
]

# An honest outcome is certain: Born weights one-hot on outcome 0 or 1 to this.
_ONE_HOT_TOL = 1e-12


_S = 1.0 / np.sqrt(2.0)
#: ``SENT[x, t]``: amplitudes of the sent state ``(|x> + (-1)^t |2>)/sqrt(2)``.
SENT = _frozen([[[_S, 0, _S], [_S, 0, -_S]], [[0, _S, _S], [0, _S, -_S]]])
#: ``GATES[y, r]``: diagonal of Bob's phase gate ``diag((-1)^r, (-1)^(y+r), 1)``.
GATES = _frozen([[[1, 1, 1], [-1, -1, 1]], [[1, -1, 1], [-1, 1, 1]]])
#: ``BASES[x]``: rows of Alice's analysis basis, ``SENT[x, 0]``, ``SENT[x, 1]``, ``|1-x>``.
BASES = _frozen([[*SENT[0], [0, 1, 0]], [*SENT[1], [1, 0, 0]]])


def _outcome_law(bases, gates, sent) -> np.ndarray:
    """Read-only ``[2, 2, 2, 2]`` outcome of each ``(x, y, t, r)`` under the Born law.

    Raises RuntimeError unless every combination's weights are one-hot on
    outcome 0 or 1, which the honest protocol never allows.
    """
    # weights[x, y, t, r, i] = |<bases[x, i]| gates[y, r] * sent[x, t]>|^2.
    weights = np.abs(np.einsum("xij,yrj,xtj->xytri", bases, gates, sent)) ** 2
    outcomes = np.argmax(weights[..., :2], axis=-1)
    if np.abs(weights - (outcomes[..., None] == np.arange(3))).max() > _ONE_HOT_TOL:
        raise RuntimeError("third or uncertain measurement outcome in an honest run")
    outcomes.setflags(write=False)
    return outcomes


#: ``OUTCOMES[x, y, t, r]``: index of Alice's certain outcome, ``t XOR (x AND y) XOR r``.
OUTCOMES = _outcome_law(BASES, GATES, SENT)


def _bits(value, name: str) -> np.ndarray:
    """``value`` as an int array, checked to hold only 0s and 1s."""
    bits = np.asarray(value)
    ok = (bits == 0) | (bits == 1)
    if not ok.all():
        raise ValueError(f"{name} must be 0 or 1, got {_shown(bits[~ok].tolist()[0], repr)}")
    return bits.astype(np.int64)


def correlated(x, y, e, f):
    """Where ``e XOR f = x AND y`` on bits or bit arrays: the relation a table's check tests."""
    return (e ^ f) == (x & y)


@dataclass(frozen=True)
class OneTimeTable:
    """Correlation records: inputs ``x, y`` and outputs ``e, f``, bits or bit arrays."""

    x: np.ndarray
    y: np.ndarray
    e: np.ndarray
    f: np.ndarray

    @property
    def correlation_ok(self):
        """Where ``e XOR f = x AND y`` holds (everywhere on honest runs)."""
        return correlated(self.x, self.y, self.e, self.f)


@dataclass(frozen=True)
class AndEvalResult:
    alice_out: np.ndarray
    bob_out: np.ndarray
    messages: tuple  # (a_prime, b_prime) as announced


def alice_prepare(x: int, t: int) -> PureState:
    """Sent state ``SENT[x, t]`` for bits ``x`` and ``t``."""
    return PureState(SENT[_bits(x, "x"), _bits(t, "t")])


def bob_gate(y: int, r: int) -> np.ndarray:
    """Phase gate ``diag(GATES[y, r])`` for bits ``y`` and ``r``."""
    return np.diag(GATES[_bits(y, "y"), _bits(r, "r")])


def alice_basis(x: int) -> np.ndarray:
    """Rows ``BASES[x]`` of Alice's analysis basis for bit ``x``, read-only."""
    return BASES[_bits(x, "x")]


def _fair_bits(size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` fair bits as uint8, from ``ceil(size / 64)`` raw words of ``rng``.

    Bit ``i`` is bit ``i % 64`` of word ``i // 64``, counted from the least
    significant: the words are read as little-endian bytes and unpacked.
    Raw words bypass the Generator's buffered 32-bit half: a half word left
    over from an earlier 32-bit draw is neither used nor cleared here.  A
    fresh substream, as the command line uses, has nothing buffered.
    ``size`` 0 draws nothing.
    """
    words = rng.bit_generator.random_raw(-(-size // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little")


def _honest_coins(shape, rng: np.random.Generator) -> tuple:
    """Bob's output bits ``r`` and Alice's coins ``t`` of honest runs of ``shape``, int64.

    The one honest draw order: all of ``r``, then all of ``t``, each from
    ``_fair_bits``; an empty shape draws nothing.  ``r`` comes first, so a
    caller that reads only ``r``, as ``table`` does, draws the head of it.
    """
    size = math.prod(shape)
    r = _fair_bits(size, rng).reshape(shape)
    t = _fair_bits(size, rng).reshape(shape)
    return r.astype(np.int64), t.astype(np.int64)


def run_honest(x, y, rng: np.random.Generator):
    """Honest protocol runs for bit arrays ``x`` and ``y`` (broadcast together).

    Returns ``(table, t, r, outcome)``: a :class:`OneTimeTable` of int arrays
    with ``f = r``, Alice's coins ``t``, Bob's output bits ``r``, and the
    measured analysis-vector index ``outcome = t XOR (x AND y) XOR r``, with
    ``e = outcome XOR t``.  The coins come from ``_honest_coins``, all of
    ``r`` then all of ``t``, and an empty batch draws nothing; each run's
    outcome is read off :data:`OUTCOMES`.
    """
    x, y = np.broadcast_arrays(np.atleast_1d(_bits(x, "x")), np.atleast_1d(_bits(y, "y")))
    r, t = _honest_coins(x.shape, rng)
    outcome = OUTCOMES[x, y, t, r]
    return OneTimeTable(x=x, y=y, e=outcome ^ t, f=r), t, r, outcome


def and_eval(table: OneTimeTable, a, b) -> AndEvalResult:
    """Distributed AND of fresh inputs ``(a, b)``, one per table, broadcast.

    Alice announces ``a' = a XOR x`` and Bob ``b' = b XOR y``; the outputs
    ``(x AND b') XOR e`` and ``(a' AND b) XOR f`` XOR to ``a AND b`` whenever
    the table satisfies its correlation.  Works on any table, honest or not.
    """
    a, b = _bits(a, "a"), _bits(b, "b")
    a_prime = a ^ table.x
    b_prime = b ^ table.y
    alice_out = (table.x & b_prime) ^ table.e
    bob_out = (a_prime & b) ^ table.f
    return AndEvalResult(alice_out=alice_out, bob_out=bob_out, messages=(a_prime, b_prime))
