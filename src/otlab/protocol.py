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

:func:`run_honest` runs a batch on bit arrays.  The returned qutrit is an
eigenstate of Alice's basis, so once ``t`` and ``r`` are drawn the outcome is
fixed: it is read off the exact Born weights, with no draw for the
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import PureState

__all__ = [
    "OneTimeTable",
    "AndEvalResult",
    "alice_prepare",
    "bob_gate",
    "alice_basis",
    "run_honest",
    "and_eval",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# An honest outcome is certain: Born weights one-hot on outcome 0 or 1 to this.
_ONE_HOT_TOL = 1e-12


def _check_bit(value: int, name: str) -> int:
    value = int(value)
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return value


def _bits(value, name: str) -> np.ndarray:
    """``value`` as an int array, checked to hold only 0s and 1s."""
    bits = np.asarray(value)
    ok = (bits == 0) | (bits == 1)
    if not ok.all():
        raise ValueError(f"{name} must be 0 or 1, got {bits[~ok].flat[0].item()!r}")
    return bits.astype(np.int64)


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
        return (self.e ^ self.f) == (self.x & self.y)


@dataclass(frozen=True)
class AndEvalResult:
    alice_out: np.ndarray
    bob_out: np.ndarray
    messages: tuple  # (a_prime, b_prime) as announced


def alice_prepare(x: int, t: int) -> PureState:
    """Sent state ``(|x> + (-1)^t |2>)/sqrt(2)``; amplitudes are machine constants."""
    x, t = _check_bit(x, "x"), _check_bit(t, "t")
    amps = np.zeros(3, dtype=complex)
    amps[x] = _SQRT_HALF
    amps[2] = -_SQRT_HALF if t else _SQRT_HALF
    return PureState(3, amps)


def bob_gate(y: int, r: int) -> np.ndarray:
    """Diagonal phase gate ``diag((-1)^r, (-1)^(y+r), 1)``."""
    y, r = _check_bit(y, "y"), _check_bit(r, "r")
    return np.diag([(-1.0) ** r, (-1.0) ** (y + r), 1.0]).astype(complex)


def alice_basis(x: int) -> np.ndarray:
    """Rows of Alice's three-outcome analysis basis for input ``x``."""
    x = _check_bit(x, "x")
    rows = np.zeros((3, 3), dtype=complex)
    rows[0, x] = rows[1, x] = _SQRT_HALF
    rows[0, 2] = _SQRT_HALF
    rows[1, 2] = -_SQRT_HALF
    rows[2, 1 - x] = 1.0
    return rows


def run_honest(x, y, rng: np.random.Generator):
    """Honest protocol runs for bit arrays ``x`` and ``y`` (broadcast together).

    Returns ``(table, t, r, outcome)``: a :class:`OneTimeTable` of int arrays
    with ``f = r``, Alice's coins ``t``, Bob's output bits ``r``, and the
    measured analysis-vector index ``outcome = t XOR (x AND y) XOR r``, with
    ``e = outcome XOR t``.  The draws are all of ``t``, then all of ``r``.
    Raises RuntimeError if any run's Born weights are not one-hot on
    outcome 0 or 1, which no honest run allows.
    """
    x, y = np.broadcast_arrays(np.atleast_1d(_bits(x, "x")), np.atleast_1d(_bits(y, "y")))
    t = rng.integers(0, 2, size=x.shape)
    r = rng.integers(0, 2, size=x.shape)
    # The four sent states, four gate diagonals and two bases, indexed by their bits.
    sent = np.array([[alice_prepare(i, j).amplitudes for j in (0, 1)] for i in (0, 1)])
    gates = np.array([[np.diag(bob_gate(i, j)) for j in (0, 1)] for i in (0, 1)])
    bases = np.array([alice_basis(i) for i in (0, 1)])
    returned = gates[y, r] * sent[x, t]
    weights = np.abs(np.einsum("...ij,...j->...i", bases[x], returned)) ** 2
    outcome = np.argmax(weights[..., :2], axis=-1)
    if np.abs(weights - (outcome[..., None] == np.arange(3))).max() > _ONE_HOT_TOL:
        raise RuntimeError("third or uncertain measurement outcome in an honest run")
    table = OneTimeTable(x=x, y=y, e=outcome ^ t, f=r)
    return table, t, r, outcome


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
