"""Monte Carlo simulation of the check-and-abort table-generation protocols.

Protocol 2: the parties generate ``m`` one-time tables, Bob samples ``k``
labels uniformly without replacement, Alice reveals her (input, output) pair
for each sampled label, and Bob aborts when more than ``threshold`` checks
violate ``a AND b = e XOR f``.  Protocol 3 runs the same check independently
in both directions (label sets may overlap).  So protocol 2 is protocol 3
with an honest receiver whom Alice never checks, and its runs and exact law
are computed as such.

Each instance is modelled exactly.  A sender is a set of arrays: the prior
and amplitudes of each state she may prepare, its honest input bit, the
bras of her rank-1 measurement elements on the returned qutrit and the law
of her reported pair given each outcome.  A receiver is a set of diagonal
Kraus operators, one per branch, each with his bits ``y, r`` and his guess
of her input.  Alice's check fails only where Bob's does, and only if she
is honest, so two numbers are the whole law of a check: the chances ``p_b``
and ``p_a`` that Bob's and Alice's checks fail.  One amplitude contraction
of a strategy pair's arrays gives them, summed against weights of the
report law and the check that depend only on the strategies' kinds.
Against a computational-basis Bob, an honest Alice's input is guessed right
with probability 3/4 whatever the verdicts.  Instances are i.i.d., so a
trial needs only its sufficient statistics: the number J of labels both
sides check, Bob's failures ``U ~ Bin(J, p_b)`` on them, Alice's ``Bin(U,
q)`` with ``q = p_a / p_b``, and each side's failures on its own labels.
:func:`exact_law` sums this chain; a run draws it as two links, ``(J, F_b)``
over ``h(J) Bin(k_b, p_b)``, then ``F_a`` over the ``(J, F_b)`` cell's row of
the joint table, as histograms or one value per trial (a link of one value
draws nothing).  Trials are exchangeable, so none is ordered: a
:class:`CheckReport` is the run's histogram, its distinct cells with counts.
:func:`simulate_instances` draws whole instances from the pair's exact
joint distribution over all per-instance classical values
(:func:`_instance_table`), the oracle of the verdicts and of the
sufficient-statistic draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from . import protocol
from .numerics import _integer, _real, _shown
from .security import CheatParams, _example_vectors, binary_entropy

__all__ = [
    "CheckConfig",
    "AliceStrategy",
    "BobStrategy",
    "CheckReport",
    "ExactLaw",
    "simulate_instances",
    "exact_law",
    "run_protocol2",
    "run_protocol3",
]


@dataclass(frozen=True)
class CheckConfig:
    """Run geometry: tables generated, labels checked, thresholds, trials.

    Sizes are integers and ``c1`` a real (:func:`numerics._integer`,
    :func:`numerics._real`).  A threshold is a maximum tolerated failure
    count: an integer, of any size, or a float, which in [0, 1) is a
    fraction of the checked labels (``floor(t * k)``).
    """

    m: int
    k_bob: int
    threshold_bob: float = 0
    k_alice: int = 0
    threshold_alice: float = 0
    trials: int = 1
    c1: float = 1.0

    def __post_init__(self):
        for name in ("m", "k_bob", "k_alice", "trials"):   # kept as ints: numpy's would wrap
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("m", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name, k in (("k_bob", self.k_bob), ("k_alice", self.k_alice)):
            if not 0 <= k <= self.m:
                raise ValueError(f"{name}={_shown(k)} outside [0, m={_shown(self.m)}]")
        for name in ("threshold_bob", "threshold_alice"):
            try:   # an integer is compared exactly, whatever its size
                value = _integer(getattr(self, name), name)
            except ValueError:
                value = _real(getattr(self, name), name)
                if value >= 1.0 and not value.is_integer():
                    raise ValueError(f"fractional {name} must lie in [0, 1)") from None
            if value < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        object.__setattr__(self, "c1", _real(self.c1, "c1"))   # a float, as reports print it
        if not self.c1 > 0.0:
            raise ValueError("c1 must be positive and finite")

    def resolved_threshold(self, side: str) -> int:
        """Absolute failure threshold for one side, resolving fractions of k."""
        value = self.threshold_bob if side == "bob" else self.threshold_alice
        k = self.k_bob if side == "bob" else self.k_alice
        if 0.0 < value < 1.0:   # a fraction: no integer lies strictly between
            return int(np.floor(value * k))
        return int(value)


@dataclass(frozen=True)
class AliceStrategy:
    """Sender behavior: preparation, measurement, and check-report policy.

    ``params`` belongs to param and ``mix`` (weights and sender strategies)
    to mix; a field given to a kind that does not use it raises ValueError.
    """

    kind: str                               # honest | learn-y | param | mix
    params: CheatParams | None = None
    mix: tuple = ()                         # ((weight, AliceStrategy), ...)

    def __post_init__(self):
        if self.kind not in ("honest", "learn-y", "param", "mix"):
            raise ValueError(f"unknown Alice strategy {self.kind!r}")
        if self.kind == "param" and self.params is None:
            raise ValueError("param strategy needs an amplitude triple")
        if self.params is not None and self.kind != "param":
            raise ValueError(f"params apply only to param, not {self.kind!r}")
        if self.mix and self.kind != "mix":
            raise ValueError(f"mix components apply only to mix, not {self.kind!r}")
        if self.kind == "mix":
            if not self.mix:
                raise ValueError("mix strategy needs components")
            if not all(isinstance(part, AliceStrategy) for _, part in self.mix):
                raise ValueError("every mix component must be an AliceStrategy")
            weights = [_real(w, "mix weight") for w, _ in self.mix]
            if min(weights) < 0.0:
                raise ValueError(f"mix weights {weights} must be nonnegative")
            total = np.sum(weights)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"mix weights sum to {total}, expected 1")
            object.__setattr__(self, "mix", tuple(zip(weights, (part for _, part in self.mix))))

    @classmethod
    def honest(cls) -> "AliceStrategy":
        return cls(kind="honest")

    @classmethod
    def learn_y(cls) -> "AliceStrategy":
        return cls(kind="learn-y")

    @classmethod
    def param(cls, params: CheatParams) -> "AliceStrategy":
        return cls(kind="param", params=params)

    @classmethod
    def per_instance_mix(cls, components) -> "AliceStrategy":
        return cls(kind="mix", mix=tuple(components))


@dataclass(frozen=True)
class BobStrategy:
    """Receiver behavior: honest gate, input-reading basis measurement, or
    a phase error of fixed ``angle`` on the |2> component (a nonzero angle
    is rejected for the other kinds)."""

    kind: str                               # honest | computational | phase-noise
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in ("honest", "computational", "phase-noise"):
            raise ValueError(f"unknown Bob strategy {self.kind!r}")
        object.__setattr__(self, "angle", _real(self.angle, "angle"))
        if self.angle != 0.0 and self.kind != "phase-noise":
            raise ValueError(f"angle applies only to phase-noise, not {self.kind!r}")

    @classmethod
    def honest(cls) -> "BobStrategy":
        return cls(kind="honest")

    @classmethod
    def computational_basis(cls) -> "BobStrategy":
        return cls(kind="computational")

    @classmethod
    def phase_noise(cls, angle: float) -> "BobStrategy":
        return cls(kind="phase-noise", angle=angle)


# ---------------------------------------------------------------------------
# Exact per-instance distribution
# ---------------------------------------------------------------------------

_FIELDS = ("y", "r", "a_rep", "e_rep", "bob_fail", "alice_fail",
           "x", "e", "honest_alice", "x_guess_correct")


@lru_cache(maxsize=None)
def _sender_law(kind: str) -> tuple:
    """``(honest, weights, x, reports)`` of a ``kind`` sender, whatever her parameter.

    For each of S states she may prepare: its prior ``weights[S]`` and
    honest input bit ``x[S]`` (0 for a cheater), and the law ``reports[S, O,
    2, 2]`` of her reported pair ``(a, e)`` given each outcome of her
    measurement.  ``honest`` says whether she holds real input and output
    bits, against which her check of Bob and his guess of her input are
    scored.  Cached per kind; the arrays are shared, so no caller writes them.
    """
    if kind == "honest":
        x, t = np.divmod(np.arange(4), 2)
        reports = np.zeros((4, 3, 2, 2))
        reports[np.arange(4), 0, x, t] = 1.0      # outcome o < 2 outputs e = o XOR t
        reports[np.arange(4), 1, x, 1 - t] = 1.0
        reports[np.arange(4), 2, x] = 0.5         # impossible under honesty: a coin
        return True, np.full(4, 0.25), x, reports
    # A cheater (learn-y is param at alpha = 0) claims input 0.
    reports = np.zeros((1, 4, 2, 2))
    reports[0, :2, 0] = 0.5                       # outcomes 0/1 reveal y only: a coin
    reports[0, 2, 0, 0] = reports[0, 3, 0, 1] = 1.0  # outcomes 2/3 reveal r
    return False, np.ones(1), np.zeros(1, dtype=int), reports


def _sender(alice: AliceStrategy):
    """Sender arrays ``(honest, weights, sent, x, rows, reports)``.

    :func:`_sender_law`'s arrays with the two that depend on her parameter:
    the amplitudes ``sent[S, 3]`` of each state she may prepare, and her
    measurement of the returned qutrit as the bras ``rows[S, O, 3]`` of its
    rank-1 elements, ``E_so = |v_so><v_so|`` with ``rows[s, o, i] = <v_so|i>``.
    """
    honest, weights, x, reports = _sender_law(alice.kind)
    if alice.kind == "honest":
        return honest, weights, protocol.SENT.reshape(4, 3), x, protocol.BASES[x], reports
    params = CheatParams.learn_y() if alice.kind == "learn-y" else alice.params
    sent = np.array([[params.a, params.b, params.c]])
    # Example 1's measurement at alpha = atan2(c, b).
    rows = _example_vectors(np.arctan2(params.c, params.b))
    return honest, weights, sent, x, rows[None], reports


@lru_cache(maxsize=None)
def _receiver_branches(kind: str) -> tuple:
    """:func:`_receiver`'s arrays for a ``kind`` receiver at angle 0, cached per kind."""
    y, r = np.divmod(np.arange(4), 2)
    gates = protocol.GATES[y, r] / 2.0
    if kind != "computational":
        return gates, y, r, np.full(4, -1)
    # Computational-basis read before the gate, one diagonal per branch:
    # |0> and |1> guess x, while |2> carries no input information and splits
    # into two fair guesses.
    reads = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(0.5)],
                      [0.0, 0.0, np.sqrt(0.5)]])
    diagonals = (gates[:, None] * reads).reshape(16, 3)
    return diagonals, np.repeat(y, 4), np.repeat(r, 4), np.tile([0, 1, 0, 1], 4)


def _receiver(bob: BobStrategy):
    """Receiver arrays ``(diagonals[B, 3], y[B], r[B], xhat[B])``.

    Branch b applies the diagonal Kraus operator ``diag(diagonals[b])`` to
    the qutrit and outputs the bits ``y[b], r[b]``, each pair with
    probability 1/4, and the guess ``xhat[b]`` of Alice's input (-1 for
    none).  Only the diagonals of a phase-noise receiver depend on his angle.
    """
    diagonals, y, r, xhat = _receiver_branches(bob.kind)
    if bob.kind == "phase-noise":  # diag(1, 1, e^{i angle}) after the gate
        diagonals = np.array([1.0, 1.0, np.exp(1j * bob.angle)]) * diagonals
    return diagonals, y, r, xhat


def _born(sent: np.ndarray, rows: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Born weights ``[S, O, B]`` of (state s, outcome o, branch b): ``|amp[s, o, b]|^2``.

    ``amp = sum_i rows[s, o, i] diagonals[b, i] sent[s, i] = <v_so|K_b psi_s>``,
    one contraction of the :func:`_sender` and :func:`_receiver` arrays, so a
    small weight is computed to a few ulps of itself, not of the terms of a
    3x3 sum that cancel.
    """
    amp = (rows * sent[:, None, :]) @ diagonals.T
    return amp.real ** 2 + amp.imag ** 2


@lru_cache(maxsize=32)
def _instance_table(alice: AliceStrategy, bob: BobStrategy):
    """Exact joint distribution of all per-instance classical values.

    The probability of each (state, branch, outcome, report) is
    ``weights[s] |<v_so|K_b psi_s>|^2 reports[s, o, a, e]``, the
    :func:`_sender` arrays times :func:`_born`'s weights, as in
    :func:`_verdicts`; rows at or below 1e-15 are dropped.  A per-instance
    mix is its components' tables laid end to end, each weighted by its mix
    weight.  It is the law behind :func:`simulate_instances` and the oracle
    of :func:`_verdicts`; the cache is bounded.
    """
    if alice.kind == "mix":
        parts = [(weight, _instance_table(sub, bob)) for weight, sub in alice.mix]
        probs = np.concatenate([weight * table[0] for weight, table in parts])
        return probs / probs.sum(), {
            name: np.concatenate([table[1][name] for _, table in parts]) for name in _FIELDS}
    honest, weights, sent, x, rows, reports = _sender(alice)
    diagonals, y, r, xhat = _receiver(bob)
    born = np.swapaxes(_born(sent, rows, diagonals), 1, 2)             # [S, B, O]
    probs = weights[:, None, None, None, None] * born[..., None, None] * reports[:, None]
    keep = probs > 1e-15
    s, b, _, a, e = np.nonzero(keep)
    y, r, x = y[b], r[b], x[s]
    # Alice checks ``x AND y = e XOR r``: an honest sender reports a = x, so her
    # check fails exactly where Bob's does; a cheater, holding no input, never fails.
    bob_fail = ~protocol.correlated(a, y, e, r)
    columns = dict(y=y, r=r, a_rep=a, e_rep=e, bob_fail=bob_fail, alice_fail=honest & bob_fail,
                   x=x, e=honest * e, honest_alice=np.full(len(s), honest),
                   x_guess_correct=honest & (xhat[b] == x))
    probs = probs[keep]
    return probs / probs.sum(), {name: columns[name].astype(np.int8) for name in _FIELDS}


def simulate_instances(alice: AliceStrategy, bob: BobStrategy, n: int,
                       rng: np.random.Generator) -> dict:
    """Draw ``n`` protocol instances; returns per-instance value arrays."""
    probs, columns = _instance_table(alice, bob)
    idx = rng.choice(len(probs), size=n, p=probs)
    return {name: vals[idx] for name, vals in columns.items()}


@lru_cache(maxsize=None)
def _check_weights(alice_kind: str, bob_kind: str) -> np.ndarray:
    """``[3, S * O * B]``: per (state, outcome, branch) of a pair of these
    kinds, the state's prior, the probability of each report the outcome
    allows, and the chance that the report fails Bob's check.

    The report ``(a, e)`` fails the check given the branch's bits ``y, r``
    unless ``a AND y = e XOR r`` (:func:`protocol.correlated`); the chance
    sums the report law over the failing pairs.  Every report an outcome
    allows has the same probability, 1 or 1/2.  None of this depends on the
    sender's amplitudes or the receiver's angle: built once per kind pair.
    """
    _, weights, _, reports = _sender_law(alice_kind)
    _, y, r, _ = _receiver_branches(bob_kind)
    a, e = np.divmod(np.arange(4), 2)
    fails = ~protocol.correlated(a[:, None], y, e[:, None], r)       # [(a, e), B]
    laws = reports.reshape(*reports.shape[:2], 4)                    # [S, O, (a, e)]
    shape = laws.shape[:2] + (len(y),)
    return np.stack([np.broadcast_to(weights[:, None, None], shape),
                     np.broadcast_to(laws.max(axis=-1)[..., None], shape),
                     laws @ fails]).reshape(3, -1)


@lru_cache(maxsize=32)
def _verdicts(alice: AliceStrategy, bob: BobStrategy) -> tuple:
    """``(p_b, p_a)``: the chances that Bob's and Alice's checks of an instance fail.

    :func:`_born`'s weights, with no instance table.  Weighted by the
    state's prior, these cells of (state, outcome, branch) are summed
    against :func:`_check_weights`' failure chances and normalized by their
    total, as :func:`_instance_table` is; a cell whose reports fall at or
    below the table's 1e-15 cut is dropped, as the table drops them.
    Alice's check fails only where Bob's does, and only if she is honest, so
    ``p_a`` is ``p_b`` for an honest sender and 0 for a cheater.  A mix's
    pair is its components' pairs averaged by the mix weights.  Cached per
    strategy pair, as Python floats.
    """
    if alice.kind == "mix":
        weights = np.array([weight for weight, _ in alice.mix])
        parts = np.array([_verdicts(sub, bob) for _, sub in alice.mix])
        p_b, p_a = weights @ parts / weights.sum()
        return float(p_b), float(p_a)
    honest, _, sent, _, rows, _ = _sender(alice)
    prior, share, chance = _check_weights(alice.kind, bob.kind)
    cells = _born(sent, rows, _receiver(bob)[0]).ravel() * prior
    cells *= cells * share > 1e-15
    p_b = float((cells * chance).sum() / cells.sum())
    return p_b, p_b if honest else 0.0


def _thinning_rate(p_b: float, p_a: float) -> float:
    """``q = p_a / p_b``, the chance that Alice's check fails where Bob's does; 0 if his cannot."""
    return p_a / p_b if p_b > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Exact law of a run
# ---------------------------------------------------------------------------

def _from_ratios(ratios: np.ndarray) -> np.ndarray:
    """Laws on consecutive values from their ratios ``pmf(j + 1) / pmf(j)``, normalized.

    One law per row of ``ratios`` (its last axis); a ratio of 0 ends a law's
    support, so a row may be shorter than the array.  The ratios of a
    log-concave law fall with j, so those above 1 lead to its mode, whose
    weight is 1, and the products taken outward from it only shrink: none
    overflows, and each term's relative error grows by a few ulps per ratio,
    whatever the population.  Time and memory are linear in the support.
    """
    w = np.ones(ratios.shape[:-1] + (ratios.shape[-1] + 1,))
    np.cumprod(np.minimum(ratios, 1.0), axis=-1, out=w[..., 1:])
    w[..., :-1] *= np.cumprod(1.0 / np.maximum(ratios[..., ::-1], 1.0), axis=-1)[..., ::-1]
    return w / w.sum(axis=-1, keepdims=True)


def _binomial_pmf(k, p: float, width: int | None = None) -> np.ndarray:
    """``P(Bin(k, p) = j)`` for j = 0..k.

    For an array of counts, one row per count over j = 0..max(k) (or over
    ``width`` values, which changes only how a row's sum rounds), zero past
    each row's own count: all rows in one vectorized pass.
    """
    k = np.asarray(k)
    j = np.arange(k.max() + 1 if width is None else width)
    if not 0.0 < p < 1.0:
        return (j == np.where(p >= 1.0, k, 0)[..., None]).astype(float)
    return _from_ratios(np.maximum(k[..., None] - j[:-1], 0) / (j[:-1] + 1.0) * (p / (1.0 - p)))


def _within(k: int, p: float, t: int, n: int) -> np.ndarray:
    """``P(Bin(k, p) <= t - v)`` for v = 0..n-1, with ``n <= t + 1``."""
    return np.cumsum(_binomial_pmf(k, p)[:t + 1])[np.minimum(t - np.arange(n), k)]


_NONE_SHARED = (np.broadcast_to(np.int64(0), (1,)), np.broadcast_to(1.0, (1,)))   # read-only


@lru_cache(maxsize=8)
def _shared_pmf(m: int, k_a: int, k_b: int) -> tuple:
    """Support and probabilities of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``.

    From the ratios ``pmf(j + 1) / pmf(j) = (k_a - j)(k_b - j) / ((j + 1)(m - k_a
    - k_b + j + 1))``, each factor an exact int64 while ``m`` fits in int64;
    past it, ``m - k_a - k_b + j + 1`` is summed in float.  Cached, read-only.
    """
    if not (k_a and k_b):   # a side that checks no label shares none, whatever m
        return _NONE_SHARED
    low = max(0, k_a + k_b - m)
    shared = low + np.arange(min(k_a, k_b) - low + 1)   # np.arange(low, 2**63) is float64
    j = shared[:-1]
    first = max(m - k_a - k_b + 1, 1)   # m - k_a - k_b + low + 1, at most m
    rest = (first if m <= _INT64_MAX else float(first)) + np.arange(len(j))
    weights = _from_ratios((k_a - j) / (j + 1.0) * ((k_b - j) / rest))
    shared.flags.writeable = weights.flags.writeable = False
    return shared, weights


@dataclass(frozen=True)
class ExactLaw:
    """Exact law of one trial of a check run.

    ``fail_bob``/``fail_alice`` are the per-check failure probabilities of
    Bob's and Alice's checks.  A side's failure count is ``Bin(k, p)`` whatever
    the overlap of the label sets, so its abort probability is a binomial tail.
    ``pass_probability`` (neither side aborts) and ``tables_delivered``
    (expected, zero on abort) are sums over J, the labels both sides check.
    """

    fail_bob: float
    fail_alice: float
    abort_bob: float
    abort_alice: float
    pass_probability: float
    tables_delivered: float


def exact_law(config: CheckConfig, alice: AliceStrategy,
              bob: BobStrategy | None = None) -> ExactLaw:
    """Exact law of :func:`run_protocol3`, or of :func:`run_protocol2` without ``bob``.

    Protocol 2 is protocol 3 with an honest receiver who is never checked.
    Per J shared labels, it sums the chain over passing counts only:
    ``Bin(J, p_b)`` times the chance that Bob's own labels fail at most ``t_b
    - u``, then the ``[u, s]`` thinning ``Bin(u, q)``, then the chance that
    Alice's own fail at most ``t_a - s``.  It never builds the runs' two
    links of :func:`_joint_table`, so it is their independent oracle.
    """
    if bob is None:
        config, bob = replace(config, k_alice=0, threshold_alice=0), BobStrategy.honest()
    p_b, p_a = _verdicts(alice, bob)
    m, k_b, k_a = config.m, config.k_bob, config.k_alice
    t_b = min(config.resolved_threshold("bob"), k_b)
    t_a = min(config.resolved_threshold("alice"), k_a)
    shared, weights = _shared_pmf(m, k_a, k_b)
    top = min(int(shared.max()), t_b)   # Bob passes only with u <= t_b, Alice with s <= t_a
    q = _thinning_rate(p_b, p_a)
    # Only the columns s <= t_a are read: built 128 rows at a time, each at the full width.
    thinning = np.empty((top + 1, min(top, t_a) + 1))
    for start in range(0, top + 1, 128):
        block = thinning[start:start + 128]
        block[:] = _binomial_pmf(start + np.arange(len(block)), q, top + 1)[:, :block.shape[1]]
    passed = np.zeros(len(shared))
    for i in np.flatnonzero(weights):   # a J of probability 0 adds nothing
        j = int(shared[i])
        u = min(j, t_b) + 1
        bob_passes = _binomial_pmf(j, p_b)[:u] * _within(k_b - j, p_b, t_b, u)
        alice_passes = _within(k_a - j, p_a, t_a, thinning.shape[1])
        passed[i] = min(1.0, bob_passes @ thinning[:u] @ alice_passes)
    # Means over J's law, so that passing at every J sums to exactly 1; in floats past int64.
    total = weights.sum()
    pass_probability = (weights * passed).sum() / total
    delivered = (((m - k_b - k_a) + shared.astype(float)) * weights * passed).sum() / total
    return ExactLaw(
        fail_bob=p_b, fail_alice=p_a,
        abort_bob=min(1.0, float(_binomial_pmf(k_b, p_b)[t_b + 1:].sum())),
        abort_alice=min(1.0, float(_binomial_pmf(k_a, p_a)[t_a + 1:].sum())),
        pass_probability=float(pass_probability), tables_delivered=float(delivered))


# ---------------------------------------------------------------------------
# Check protocols
# ---------------------------------------------------------------------------

def _wilson_interval(phat: float, n: int) -> tuple:
    """95% Wilson interval of a rate ``phat`` observed in ``n`` trials."""
    z = 1.96
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of a Monte Carlo run of one side's checking.

    The trials of a run are exchangeable, so the report is the run's
    histogram as it was drawn: its cells, each with the side's failure count
    (``drawn_failures``) and the number of delivered (unchecked,
    non-aborted) tables (``drawn_delivered``), and the number of trials in
    each (``counts``), with its side's geometry; no two cells read alike
    (:func:`_merged`).  :meth:`summary`, ``trials``, ``abort_probability``
    and ``mean_failures`` read the counts, and :meth:`to_dict` writes each
    cell once, with its count: a cell aborts with more failures than
    ``threshold``, and its failure-rate estimate ``est_epsilon`` and leak
    bound ``leak_bound_bits`` follow from its failure count.  Protocol 3's
    two reports share their cells, so cell i of each holds the same trials.
    The order-equivalence bracket ``[c_a, c_b]`` around the estimator
    constant is recorded, as class constants, rather than hidden.
    """

    protocol_id: int
    side: str
    m: int
    k: int
    threshold: int
    drawn_failures: np.ndarray
    drawn_delivered: np.ndarray
    counts: np.ndarray
    c1: float = 1.0
    extras: dict = field(default_factory=dict)
    c_mid: ClassVar[float] = 1.0
    c_a: ClassVar[float] = 0.5
    c_b: ClassVar[float] = 2.0

    @cached_property
    def trials(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def abort_probability(self) -> float:
        return int(self.counts @ (self.drawn_failures > self.threshold)) / self.trials

    @property
    def abort_ci(self) -> tuple:
        """95% Wilson interval of the abort rate."""
        return _wilson_interval(self.abort_probability, self.trials)

    @property
    def mean_failures(self) -> float:
        # The exact integer sum over the cells, divided once: the float64 sum
        # of the failures while it stays below 2**53, and no int64 wrap past 2**63.
        failures, counts = self.drawn_failures, self.counts
        if int(failures.max()) * self.trials > _INT64_MAX:
            failures, counts = failures.astype(object), counts.astype(object)
        return int(failures @ counts) / self.trials

    def summary(self) -> dict:
        """Aggregate of all trials: abort rate with its interval, extras, mean failures."""
        return {
            "abort_ci": [float(bound) for bound in self.abort_ci],
            "abort_probability": self.abort_probability,
            "extras": {key: float(val) for key, val in self.extras.items()},
            "mean_failures": self.mean_failures,
        }

    def to_dict(self) -> dict:
        failures = self.drawn_failures
        if self.k == 0:   # no estimate without checks
            eps = leak = [None] * len(failures)
        else:   # c_mid * (failures + 1) / k clipped to [0, 1], and h(min(c1 * eps, 1/2)) bits
            eps = np.clip(self.c_mid * (failures + 1.0) / self.k, 0.0, 1.0)
            leak = binary_entropy(np.minimum(self.c1 * eps, 0.5)).tolist()
            eps = eps.tolist()
        cells = [
            {"aborted": f > self.threshold, "est_epsilon": e, "failures": f,
             "leak_bound_bits": bits, "tables_delivered": d, "trials": n}
            for f, e, bits, d, n in zip(failures.tolist(), eps, leak,
                                        self.drawn_delivered.tolist(), self.counts.tolist())
        ]
        return {
            **self.summary(),
            "cells": cells,
            "constants": {"c1": self.c1, "c_a": self.c_a, "c_b": self.c_b,
                          "c_mid": self.c_mid},
            "k": self.k,
            "m": self.m,
            "protocol": self.protocol_id,
            "side": self.side,
            "threshold": self.threshold,
            "trials": self.trials,
        }


def _iid(rng, support: np.ndarray, pmf: np.ndarray, trials: int) -> tuple:
    """``trials`` i.i.d. draws of ``pmf`` over ``support``, as their multinomial histogram:
    the values drawn and the trials at each, in support order (trials' order carries nothing)."""
    if len(pmf) == 1:   # one value: nothing is drawn
        return support, np.array([trials], dtype=np.int64)
    counts = rng.multinomial(trials, pmf / pmf.sum())
    occupied = np.flatnonzero(counts)
    return support[occupied], counts[occupied]


def _merged(columns, counts=None) -> tuple:
    """Rows of int64 ``columns`` as cells: each distinct row once, sorted, with its trials.

    A row holds one trial, or ``counts[i]``; a scalar column is one value for every
    row, returned as it is.  Sorted by flat index: a few times faster than a lexsort."""
    keys = [column for column in columns if np.ndim(column)]
    try:   # each row's index in the grid of the columns' ranges
        flat = np.ravel_multi_index(keys, [int(key.max()) + 1 for key in keys])
    except ValueError:   # a grid past int64: each row's rank among the distinct rows
        flat = np.unique(np.stack(keys), axis=1, return_inverse=True)[1].ravel()
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    new = np.ones(len(flat), dtype=bool)   # each row that starts a cell, in sorted order
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = (np.diff(starts, append=len(flat)) if counts is None
              else np.add.reduceat(counts[order], starts))
    rows = iter([key[order[starts]] for key in keys])
    return (*(next(rows) if np.ndim(column) else column for column in columns), counts)


def _binomials(rng, n, p: float, trials: int):
    """``trials`` independent ``Bin(n, p)`` draws, one per trial (and count, for an array ``n``).

    A link of one value (``p`` 0 or 1, or every count 0) draws nothing: it is
    returned, a scalar for a scalar ``n``, and past int64 raises as a draw would."""
    if 0.0 < p < 1.0 and np.any(n):
        return rng.binomial(n, p, trials)
    return np.int64(n * int(p >= 1.0))


_NUMPY_HYPERGEOMETRIC_MAX = 10**9   # numpy's sampler takes populations below it


def _shared_trials(rng, m: int, k_a: int, k_b: int, trials: int):
    """``trials`` draws of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``, one per trial: a support
    that fits in the trials, or populations numpy's sampler cannot take, by :func:`_iid`, expanded
    (one value drawn by nothing, as a Python int); else numpy's sampler, with no law built."""
    if (min(k_a, k_b) - max(0, k_a + k_b - m) >= trials
            and max(k_a, m - k_a) < _NUMPY_HYPERGEOMETRIC_MAX):
        return rng.hypergeometric(k_a, m - k_a, k_b, size=trials)
    support, law = _shared_pmf(m, k_a, k_b)
    return int(support[0]) if len(support) == 1 else np.repeat(*_iid(rng, support, law, trials))


_INT64_MAX = 2**63 - 1


def _big_binomial(rng, n: int, p: float) -> int:
    """``Bin(n, p)`` for a Python int ``n``, drawn in int64-sized pieces.

    A count that fits in int64 is one draw; a larger one is the sum of
    draws of at most ``2**63 - 1`` each.
    """
    total = 0
    while n > 0:
        piece = min(n, _INT64_MAX)
        total += int(rng.binomial(piece, p))
        n -= piece
    return total


def _shifts(pmf: np.ndarray, shifts: int, size: int) -> np.ndarray:
    """``out[..., s, j] = pmf[..., j - s]`` for s < ``shifts`` and j < ``size``, 0 off ``pmf``.

    Right-multiplying a law of s by it convolves that law with ``pmf``.  A
    view of one copy of the rows, each after ``shifts - 1`` zeros and padded
    with zeros to ``size``: its window s starts s places before ``pmf``.
    """
    padded = np.zeros(pmf.shape[:-1] + (shifts - 1 + size,))
    padded[..., shifts - 1:shifts - 1 + pmf.shape[-1]] = pmf
    step = padded.strides[-1]
    return np.ndarray(pmf.shape[:-1] + (shifts, size), padded.dtype, padded, (shifts - 1) * step,
                      padded.strides[:-1] + (-step, step))


def _joint_table(p_b: float, p_a: float, shared: np.ndarray, weights: np.ndarray,
                 k_b: int, k_a: int) -> np.ndarray:
    """Exact law ``[G, k_b + 1, k_a + 1]`` of a protocol-3 trial's ``(J, F_b, F_a)``.

    ``shared`` and ``weights`` are J's support and law, or any part of them,
    ``p_b`` and ``p_a`` those of :func:`_verdicts`.  Given J, Bob's failures on
    the shared labels are ``U ~ Bin(J, p_b)`` and on his own ``Bin(k_b - J,
    p_b)``; Alice's are ``Bin(U, q)`` plus ``Bin(k_a - J, p_a)`` on hers.  Per
    J, the table is ``h(J)`` times the matrix chain over u and Alice's shared
    failures s: Bob's own law shifted by u, ``Bin(J, p_b)``, ``Bin(u, q)``, and
    Alice's own law shifted by s.  Each set of binomial rows is one vectorized
    call, and the thinning, the identity when ``q = 1`` (an honest Alice), is
    skipped there.  Alice's own-label rows are Bob's when ``(k_a, p_a) = (k_b,
    p_b)``, unless the overlap is forced (``k_a + k_b > m``): her own call's
    rows are then narrower, and a row's normalizing sum may round otherwise.
    """
    g, top = len(shared), int(shared.max())
    rows = _binomial_pmf(np.concatenate([k_b - shared, shared]), p_b)
    own = rows[:g]
    bob = _shifts(own, top + 1, k_b + 1) * rows[g:, :top + 1, None]            # [G, u, F_b]
    if (k_a, p_a) != (k_b, p_b) or own.shape[1] != k_a - shared[0] + 1:
        own = _binomial_pmf(k_a - shared, p_a)
    # In C order: a strided operand sends the product off BLAS, whose sums may round otherwise.
    alice = np.ascontiguousarray(_shifts(own, top + 1, k_a + 1))              # [G, s, F_a]
    q = _thinning_rate(p_b, p_a)
    chain = np.swapaxes(bob, 1, 2)
    if q == 1.0:   # ``x @ I`` is ``x`` in C order: every term it adds is an exact zero
        chain = np.ascontiguousarray(chain)
    else:
        chain = chain @ _binomial_pmf(np.arange(top + 1), q)                  # [u, s] thinning
    return weights[:, None, None] * (chain @ alice)


# Largest chain, in cells per trial (J's values times each side's), drawn as
# histograms: the faster below 10 to 12 cells per trial at k = k_alice = 20, 40
# and 80, m = 10 k, on a 2-core x86 host.  It picks the branch, and the stream.
_TABLE_CELLS_PER_TRIAL = 4


# Against a computational-basis Bob, an honest Alice's input is guessed
# right with probability 3/4 in every verdict cell: |0> and |1> read it, and
# |2> splits into two fair guesses.  The paper's 3/4; no other pair reads it.
_INPUT_GUESS_RATE = 0.75


def _check_run(protocol_id: int, config: CheckConfig, k_a: int, t_a: int,
               alice: AliceStrategy, bob: BobStrategy, rng: np.random.Generator):
    """One run of :func:`run_protocol3` with Alice checking ``k_a`` labels at threshold ``t_a``:
    Bob's report alone for protocol 2, whose receiver is never checked, else both reports."""
    m, k_b, trials = config.m, config.k_bob, config.trials
    t_b = config.resolved_threshold("bob")
    p_b, p_a = _verdicts(alice, bob)
    # Values of J and of each side's failures: one, drawn by nothing, if k or p(1 - p) is 0.
    values_j = min(k_a, k_b) - max(0, k_a + k_b - m) + 1
    values_b = k_b + 1 if k_b and 0.0 < p_b < 1.0 else 1
    values_a = k_a + 1 if k_a and 0.0 < p_a < 1.0 else 1
    if values_j * values_b * values_a <= _TABLE_CELLS_PER_TRIAL * trials:   # the one rule
        support, weights = _shared_pmf(m, k_a, k_b)
        # Link 1, (J, F_b): h(J) Bin(k_b, p_b), as Bob's verdicts ignore Alice's labels.
        law = _binomial_pmf(k_b, p_b) if values_b > 1 else weights
        if values_j > 1 and values_b > 1:   # a link of one value stays out of the cells
            law = np.outer(weights, law).ravel()
        j, counts = _iid(rng, np.arange(len(law)), law, trials)
        j, failures_b = np.divmod(j, values_b)
        if p_b >= 1.0:   # a link of one value is k or 0 (past int64 raising, as a draw would)
            failures_b += k_b
        failures_a = np.int64(k_a * int(p_a >= 1.0))
        if values_a > 1:
            # Link 2, F_a in each occupied (J, F_b) cell: its row of the table for J
            # up to the largest drawn, normalized; Alice's own Bin(k_a, p_a) if J = 0.
            top = j[-1] + 1
            rows = (_joint_table(p_b, p_a, support[:top], weights[:top], k_b, k_a)[j, failures_b]
                    if support[top - 1] else _binomial_pmf(k_a, p_a))
            counts = counts if len(counts) > 1 else counts[0]   # one row: a faster scalar
            counts = rng.multinomial(counts, rows / rows.sum(axis=-1, keepdims=True)).ravel()
            cell = np.flatnonzero(counts)
            row, failures_a = np.divmod(cell, k_a + 1)
            j, failures_b, counts = j[row], failures_b[row], counts[cell]
        shared = support[j] if values_j > 1 else support[0]
    else:   # the same links, one value per trial
        shared = _shared_trials(rng, m, k_a, k_b, trials)
        u = _binomials(rng, shared, p_b, trials)
        failures_b = u + _binomials(rng, k_b - shared, p_b, trials)
        failures_a = _binomials(rng, u, _thinning_rate(p_b, p_a), trials)
        failures_a = failures_a + _binomials(rng, k_a - shared, p_a, trials)
        counts = None
    passed = (failures_b <= t_b) & (failures_a <= t_a)
    # An aborted trial delivers nothing, so its J is never read: zeroed, trials and
    # cells that read alike merge (histogram cells only where J has two values).
    if counts is None or (values_j > 1 and not passed.all()):
        columns = np.where(passed, shared, 0), failures_b, failures_a
        shared, failures_b, failures_a, counts = _merged(columns, counts)
        passed = (failures_b <= t_b) & (failures_a <= t_a)
    # The m - k_b - k_a + J tables no side checks: in Python ints when m passes int64.
    unchecked = (m - k_b - k_a) + (shared.astype(object) if m > _INT64_MAX else shared)
    extras = {}
    if bob.kind == "computational" and alice.kind == "honest":
        guessed = _big_binomial(rng, trials * m, _INPUT_GUESS_RATE)
        extras["x_guess_rate"] = guessed / (trials * m)
    # Per cell; no table is delivered when either side aborts; an object array past int64.
    delivered = passed * np.asarray(unchecked)
    # A side of one value holds it in the memory of one element.
    failures_b, failures_a = (
        f if n > 1 else np.ndarray(counts.shape, np.int64, np.ravel(f), strides=(0,))
        for f, n in ((failures_b, values_b), (failures_a, values_a)))
    bob_report = CheckReport(protocol_id, "bob", m, k_b, t_b, failures_b, delivered, counts,
                             config.c1, dict(extras))
    if protocol_id == 2:
        return bob_report
    return bob_report, CheckReport(3, "alice", m, k_a, t_a, failures_a, delivered, counts,
                                   config.c1, dict(extras))


def run_protocol2(config: CheckConfig, alice: AliceStrategy,
                  rng: np.random.Generator) -> CheckReport:
    """Bob checks Alice: generate m tables, sample k_bob labels, count failures.

    A check of label j fails when Alice's reported pair ``(a_j, e_j)``
    violates ``a_j AND b_j = e_j XOR f_j`` against Bob's true values; Bob
    aborts a trial when failures exceed his threshold.  The report derives
    the failure-rate estimate and leak bound for the delivered tables.

    This is :func:`run_protocol3` with an honest receiver whom Alice never
    checks (``k_alice`` and ``threshold_alice`` ignored): the same draws from
    ``rng``, and its Bob report.
    """
    return _check_run(2, config, 0, 0, alice, BobStrategy.honest(), rng)


def run_protocol3(config: CheckConfig, alice: AliceStrategy, bob: BobStrategy,
                  rng: np.random.Generator):
    """Both parties check: returns ``(bob_report, alice_report)``.

    Per trial one table batch is shared; Bob samples ``k_bob`` labels and
    checks Alice's reports, Alice independently samples ``k_alice`` labels
    (overlap allowed) and checks Bob's reported ``(b_j, f_j)``.  Each side
    aborts on its own threshold; delivered tables are those never checked,
    zero when either side aborts.  Against a cheating Alice her own check is
    vacuous (she has no honest values) and never aborts.

    A trial draws its sufficient statistics from the caller's Generator
    ``rng`` as the module docstring's two links, ``(J, F_b)`` with ``J ~
    Hypergeometric(k_alice, m - k_alice, k_bob)``, then ``F_a``: as
    histograms up to ``_TABLE_CELLS_PER_TRIAL`` cells per trial, else one
    value per trial.  A side that checks nothing never aborts: with
    ``k_alice = 0`` and an honest ``bob`` this is :func:`run_protocol2`, draw
    for draw.  Against a computational-basis Bob each input guess is right
    with probability 3/4 whatever the verdicts: the total over all ``trials
    * m`` instances is one binomial, drawn last.
    """
    return _check_run(3, config, config.k_alice, config.resolved_threshold("alice"),
                      alice, bob, rng)

