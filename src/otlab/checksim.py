"""Monte Carlo simulation of the check-and-abort table-generation protocols.

Protocol 2: the parties generate ``m`` one-time tables, Bob samples ``k``
labels uniformly without replacement, Alice reveals her (input, output) pair
for each sampled label, and Bob aborts when more than ``threshold`` checks
violate ``a AND b = e XOR f``.  Protocol 3 runs the same check independently
in both directions (label sets may overlap).  So protocol 2 is protocol 3
with an honest receiver whom Alice never checks, and its runs and exact law
are computed as such.

Each instance is modelled exactly.  A sender is a set of arrays: the prior
and amplitudes of each state she may prepare, its honest input bit, her
measurement elements on the returned qutrit and the law of her reported pair
given each outcome.  A receiver is a set of Kraus operators, one per branch,
each with his bits ``y, r`` and his guess of her input.  One Born-rule
contraction of the two gives a strategy pair's exact joint distribution over
all per-instance classical values (hidden bits, fabricated reports, check
verdicts), built once per pair.  Instances are i.i.d., so a trial needs
only its sufficient statistics, drawn from that exact table: the number J of
labels both sides check and each side's failure count, a single binomial
count when one side checks nothing.  Alice's check fails only where Bob's
does, so her failures on the shared labels are a thinning of his there:
protocol 3 draws ``(J, F_b, F_a)`` as two multinomial histograms of their
exact joint law where that table is small next to the trials, and else as
a chain of binomials, one per trial.  A histogram leaves its trials grouped
by value, which no summary of a run can see: a run's last draw is a seed for
its trial order, and its :class:`CheckReport` permutes the trials only when
a per-trial value is read, so no run shuffles.  The same table gives each
run's exact law (:func:`exact_law`), and :func:`simulate_instances`, which
draws whole instances from it, is the instance-level oracle of the
sufficient-statistic draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from . import protocol
from .security import CheatParams, binary_entropy, example1_elements

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
    "suggested_check_count",
]


_FLOAT = (float, np.floating)
_REAL = (int, np.integer) + _FLOAT   # np.bool_ is neither


@dataclass(frozen=True)
class CheckConfig:
    """Run geometry: tables generated, labels checked, thresholds, trials.

    ``m``, ``k_bob``, ``k_alice`` and ``trials`` are integers (Python or
    numpy, not bool); thresholds and ``c1`` are real numbers (integers or
    floats, Python or numpy, not bool).  Thresholds are maximum tolerated
    failure counts.  An integer is an absolute count; a float in [0, 1) is
    interpreted as a fraction of the checked labels (``floor(t * k)``).
    """

    m: int
    k_bob: int
    threshold_bob: float = 0
    k_alice: int = 0
    threshold_alice: float = 0
    trials: int = 1
    c1: float = 1.0

    def __post_init__(self):
        for name in ("m", "k_bob", "k_alice", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for name in ("k_bob", "k_alice"):
            k = getattr(self, name)
            if not (0 <= k <= self.m):
                raise ValueError(f"{name}={k} outside [0, m={self.m}]")
        for name in ("threshold_bob", "threshold_alice", "c1"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _REAL):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        for name in ("threshold_bob", "threshold_alice"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:   # NaN fails too; any int passes
                raise ValueError(f"{name} must be finite and nonnegative")
            if isinstance(value, _FLOAT) and not value.is_integer() and value >= 1.0:
                raise ValueError(f"fractional {name} must lie in [0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        try:
            finite = 0.0 < float(self.c1) < np.inf
        except OverflowError:   # an integer past the float range
            finite = False
        if not finite:
            raise ValueError("c1 must be positive and finite")

    def resolved_threshold(self, side: str) -> int:
        """Absolute failure threshold for one side, resolving fractions of k."""
        value = self.threshold_bob if side == "bob" else self.threshold_alice
        k = self.k_bob if side == "bob" else self.k_alice
        if isinstance(value, _FLOAT) and 0.0 < value < 1.0:
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
            weights = np.array([w for w, _ in self.mix], dtype=float)
            if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
                raise ValueError(f"mix weights {weights.tolist()} must be finite and nonnegative")
            total = weights.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"mix weights sum to {total}, expected 1")

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
        return cls(kind="mix", mix=tuple((float(w), s) for w, s in components))


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
        if not np.isfinite(self.angle):
            raise ValueError("angle must be finite")
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
        return cls(kind="phase-noise", angle=float(angle))


# ---------------------------------------------------------------------------
# Exact per-instance distribution
# ---------------------------------------------------------------------------

_FIELDS = ("y", "r", "a_rep", "e_rep", "bob_fail", "alice_fail",
           "x", "e", "honest_alice", "x_guess_correct")


def _sender(alice: AliceStrategy):
    """Sender arrays ``(honest, weights, sent, x, elements, reports)``.

    For each of S prepared states: its prior ``weights[S]``, amplitudes
    ``sent[S, 3]`` and honest input bit ``x[S]`` (0 for a cheater); Alice's
    measurement ``elements[S, O, 3, 3]`` of the returned qutrit; and the law
    ``reports[S, O, 2, 2]`` of her reported pair ``(a, e)`` given its outcome.
    ``honest`` says whether she holds real input and output bits, against
    which her check of Bob and his guess of her input are scored.
    """
    if alice.kind == "honest":
        x, t = np.divmod(np.arange(4), 2)
        sent, rows = protocol.SENT.reshape(4, 3), protocol.BASES[x]
        reports = np.zeros((4, 3, 2, 2))
        reports[np.arange(4), 0, x, t] = 1.0      # outcome o < 2 outputs e = o XOR t
        reports[np.arange(4), 1, x, 1 - t] = 1.0
        reports[np.arange(4), 2, x] = 0.5         # impossible under honesty: a coin
        elements = rows.conj()[..., :, None] * rows[..., None, :]
        return True, np.full(4, 0.25), sent, x, elements, reports
    params = CheatParams.learn_y() if alice.kind == "learn-y" else alice.params
    sent = np.array([[params.a, params.b, params.c]])
    if alice.kind == "learn-y":
        # Outcomes |+>, |-> of the cheat state's basis read y; |2> reads a coin.
        rows = np.vstack([sent, sent * [1.0, -1.0, 1.0], [0.0, 0.0, 1.0]])
        reports = np.zeros((3, 2, 2))
        reports[:, 0] = 0.5                       # claim input 0, report a coin
        elements = rows[:, :, None] * rows[:, None, :]
    else:
        elements = example1_elements(float(np.arctan2(params.c, params.b)))
        reports = np.zeros((4, 2, 2))
        reports[:2, 0] = 0.5                      # outcomes 0/1 reveal y only: a coin
        reports[2, 0, 0] = reports[3, 0, 1] = 1.0  # outcomes 2/3 reveal r
    return False, np.ones(1), sent, np.zeros(1, dtype=int), elements[None], reports[None]


def _receiver(bob: BobStrategy):
    """Receiver arrays ``(kraus[B, 3, 3], y[B], r[B], xhat[B])``.

    Branch b applies ``kraus[b]`` to the qutrit and outputs the bits
    ``y[b], r[b]``, each pair with probability 1/4, and the guess ``xhat[b]``
    of Alice's input (-1 for none).
    """
    y, r = np.divmod(np.arange(4), 2)
    gates = np.zeros((4, 3, 3), dtype=complex)
    gates[:, [0, 1, 2], [0, 1, 2]] = protocol.GATES[y, r] / 2.0
    if bob.kind == "honest":
        return gates, y, r, np.full(4, -1)
    if bob.kind == "phase-noise":  # diag(1, 1, e^{i angle}) after the gate
        noise = np.array([1.0, 1.0, np.exp(1j * bob.angle)])
        return noise[:, None] * gates, y, r, np.full(4, -1)
    # Computational-basis read before the gate, one diagonal per branch:
    # |0> and |1> guess x, while |2> carries no input information and splits
    # into two fair guesses.
    reads = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(0.5)],
                      [0.0, 0.0, np.sqrt(0.5)]])
    kraus = (gates[:, None] * reads[:, None, :]).reshape(16, 3, 3)
    return kraus, np.repeat(y, 4), np.repeat(r, 4), np.tile([0, 1, 0, 1], 4)


@lru_cache(maxsize=32)
def _instance_table(alice: AliceStrategy, bob: BobStrategy):
    """Exact joint distribution of all per-instance classical values.

    The probability of each (state, branch, outcome, report) is
    ``weights[s] <K_b psi_s| E_so |K_b psi_s> reports[s, o, a, e]``, from the
    :func:`_sender` and :func:`_receiver` arrays; rows at or below 1e-15 are
    dropped.  A per-instance mix is its components' tables laid end to end,
    each weighted by its mix weight.  The cache is bounded: seeded ``param`` and
    ``phase-noise`` runs each bring a new key.
    """
    if alice.kind == "mix":
        parts = [(weight, _instance_table(sub, bob)) for weight, sub in alice.mix]
        probs = np.concatenate([weight * table[0] for weight, table in parts])
        return probs / probs.sum(), {
            name: np.concatenate([table[1][name] for _, table in parts]) for name in _FIELDS}
    honest, weights, sent, x, elements, reports = _sender(alice)
    kraus, y, r, xhat = _receiver(bob)
    returned = np.einsum("bij,sj->sbi", kraus, sent)
    born = np.einsum("sbi,soij,sbj->sbo", returned.conj(), elements, returned).real
    probs = weights[:, None, None, None, None] * born[..., None, None] * reports[:, None]
    keep = probs > 1e-15
    s, b, _, a, e = np.nonzero(keep)
    y, r, x = y[b], r[b], x[s]
    # Alice checks ``x AND y = e XOR r``: an honest sender reports a = x, so her
    # check fails exactly where Bob's does; a cheater, holding no input, never fails.
    bob_fail = (a & y) != (e ^ r)
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


@lru_cache(maxsize=32)
def _verdicts(alice: AliceStrategy, bob: BobStrategy):
    """Exact law of one instance's two check verdicts, from its table.

    Returns ``(fail, guess)``, both read-only ``[2, 2]`` arrays indexed
    ``[bob_fail, alice_fail]``: ``fail`` holds each verdict pair's probability
    and ``guess`` that probability jointly with a correct guess of Alice's
    input.  Alice's check fails only where Bob's does (:func:`_instance_table`):
    ``fail[0, 1]`` is 0, and so is ``fail[1, 0]`` against an honest Alice.
    Cached per strategy pair, bounded like the table.
    """
    probs, columns = _instance_table(alice, bob)
    cell = 2 * columns["bob_fail"] + columns["alice_fail"]
    fail = np.bincount(cell, weights=probs, minlength=4)
    guess = np.bincount(cell, weights=probs * columns["x_guess_correct"], minlength=4)
    fail, guess = fail.reshape(2, 2), guess.reshape(2, 2)
    fail.flags.writeable = guess.flags.writeable = False
    return fail, guess


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


def _binomial_pmf(k, p: float) -> np.ndarray:
    """``P(Bin(k, p) = j)`` for j = 0..k.

    For an array of counts, one row per count over j = 0..max(k), zero past
    each row's own count: all rows in one vectorized pass.
    """
    k = np.asarray(k)
    j = np.arange(k.max() + 1)
    if not 0.0 < p < 1.0:
        return (j == np.where(p >= 1.0, k, 0)[..., None]).astype(float)
    return _from_ratios(np.maximum(k[..., None] - j[:-1], 0) / (j[:-1] + 1.0) * (p / (1.0 - p)))


def _binomial_cdf(k: int, p: float, counts: np.ndarray) -> np.ndarray:
    """``P(Bin(k, p) <= c)`` for each nonnegative ``c`` in ``counts``."""
    return np.cumsum(_binomial_pmf(k, p))[np.minimum(counts, k)]


def _shared_pmf(m: int, k_a: int, k_b: int) -> tuple:
    """Support and probabilities of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``.

    From the ratios ``pmf(j + 1) / pmf(j) = (k_a - j)(k_b - j) / ((j + 1)(m - k_a
    - k_b + j + 1))``, each factor an exact int64.
    """
    low = max(0, k_a + k_b - m)
    shared = low + np.arange(min(k_a, k_b) - low + 1)   # np.arange(low, 2**63) is float64
    j = shared[:-1]
    return shared, _from_ratios((k_a - j) / (j + 1.0) * ((k_b - j) / ((m - k_a - k_b + 1) + j)))


@dataclass(frozen=True)
class ExactLaw:
    """Exact law of one trial of a check run.

    ``fail_bob``/``fail_alice`` are the per-check failure probabilities of
    Bob's and Alice's checks.  A side's failure count is ``Bin(k, p)``
    whatever the overlap of the label sets, so its abort probability is a
    binomial tail.  ``pass_probability`` (neither side aborts) and
    ``tables_delivered`` (expected, zero on abort) are sums over the
    hypergeometric number of labels both sides check.
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
    Given J shared labels, their (Bob, Alice) failure counts are built up one
    label at a time over the joint verdicts, kept only where both pass, and
    each side's own ``k - J`` labels enter through a binomial distribution
    function.
    """
    if bob is None:
        config, bob = replace(config, k_alice=0, threshold_alice=0), BobStrategy.honest()
    fail, _ = _verdicts(alice, bob)
    m, k_b, k_a = config.m, config.k_bob, config.k_alice
    t_b = min(config.resolved_threshold("bob"), k_b)
    t_a = min(config.resolved_threshold("alice"), k_a)
    p_b, p_a = float(fail[1].sum()), float(fail[:, 1].sum())
    passing = np.zeros((t_b + 1, t_a + 1))
    passing[0, 0] = 1.0
    labels = 0
    shared, weights = _shared_pmf(m, k_a, k_b)
    passed = np.empty(len(shared))
    for i, j in enumerate(shared):
        while labels < j:
            step = fail[0, 0] * passing
            step[1:] += fail[1, 0] * passing[:-1]
            step[:, 1:] += fail[0, 1] * passing[:, :-1]
            step[1:, 1:] += fail[1, 1] * passing[:-1, :-1]
            passing, labels = step, labels + 1
        own_b = _binomial_cdf(k_b - j, p_b, t_b - np.arange(t_b + 1))
        own_a = _binomial_cdf(k_a - j, p_a, t_a - np.arange(t_a + 1))
        passed[i] = min(1.0, own_b @ passing @ own_a)
    # Means over J's law, so that a pass probability of 1 at every J sums to exactly 1.
    total = weights.sum()
    pass_probability = (weights * passed).sum() / total
    delivered = (((m - k_b - k_a) + shared) * weights * passed).sum() / total
    return ExactLaw(
        fail_bob=p_b, fail_alice=p_a,
        abort_bob=min(1.0, float(_binomial_pmf(k_b, p_b)[t_b + 1:].sum())),
        abort_alice=min(1.0, float(_binomial_pmf(k_a, p_a)[t_a + 1:].sum())),
        pass_probability=float(pass_probability), tables_delivered=float(delivered))


# ---------------------------------------------------------------------------
# Check protocols
# ---------------------------------------------------------------------------

def _trial_permutation(seed: int, trials: int) -> np.ndarray:
    """A uniformly random order of ``trials`` trials, from a 64-bit ``seed``."""
    return np.random.default_rng(seed).permutation(trials)


class _TrialOrder:
    """A run's trial order: its permutation is computed when first read, then kept.

    Protocol 3's two reports share one, so trial i is the same trial on both
    sides.
    """

    def __init__(self, seed: int, trials: int):
        self.seed, self.trials = seed, trials

    @cached_property
    def permutation(self) -> np.ndarray:
        return _trial_permutation(self.seed, self.trials)


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

    Keeps only what the run drew, per trial the failure count and the number
    of delivered (unchecked, non-aborted) tables, in the order they were
    drawn (``drawn_failures``, ``drawn_delivered``), with its side's geometry
    and the run's trial ``order``.  A run may draw its i.i.d. trials grouped
    by value, so the per-trial values (``failures``, ``tables_delivered``,
    ``aborted``, ``est_epsilon``, ``leak_bound_bits`` and :meth:`to_dict`'s
    records) are read through that uniformly random order; ``order=None``
    reads them as drawn.  :meth:`summary` reads the drawn arrays: its counts
    and integer sums do not depend on the order, so a run that is only
    summarized computes no permutation.  Everything else is derived from the
    failure counts when read: the trial count, the abort flags (more
    failures than ``threshold``), the abort rate with its Wilson interval,
    the failure-rate estimate ``est_epsilon`` and the leak bound
    ``leak_bound_bits``.  The order-equivalence bracket ``[c_a, c_b]``
    around the estimator constant is recorded, as class constants, rather
    than hidden.
    """

    protocol_id: int
    side: str
    m: int
    k: int
    threshold: int
    drawn_failures: np.ndarray
    drawn_delivered: np.ndarray
    c1: float = 1.0
    extras: dict = field(default_factory=dict)
    order: _TrialOrder | None = None
    c_mid: ClassVar[float] = 1.0
    c_a: ClassVar[float] = 0.5
    c_b: ClassVar[float] = 2.0

    def _in_trial_order(self, drawn: np.ndarray) -> np.ndarray:
        return drawn if self.order is None else drawn[self.order.permutation]

    @property
    def failures(self) -> np.ndarray:
        """Per-trial failure count, in trial order."""
        return self._in_trial_order(self.drawn_failures)

    @property
    def tables_delivered(self) -> np.ndarray:
        """Per-trial delivered tables, in trial order."""
        return self._in_trial_order(self.drawn_delivered)

    @property
    def trials(self) -> int:
        return len(self.drawn_failures)

    @property
    def aborted(self) -> np.ndarray:
        """Per-trial abort flag: more failures than ``threshold``."""
        return self.failures > self.threshold

    @property
    def abort_probability(self) -> float:
        return np.count_nonzero(self.drawn_failures > self.threshold) / self.trials

    @property
    def abort_ci(self) -> tuple:
        """95% Wilson interval of the abort rate."""
        return _wilson_interval(self.abort_probability, self.trials)

    @property
    def est_epsilon(self) -> np.ndarray:
        """Per-trial ``c_mid * (failures + 1) / k`` clipped to [0, 1]; NaN when ``k = 0``."""
        if self.k == 0:
            return np.full(self.failures.shape, np.nan)
        return np.clip(self.c_mid * (self.failures + 1.0) / self.k, 0.0, 1.0)

    @property
    def leak_bound_bits(self) -> np.ndarray:
        """Per-trial leak bound ``h(min(c1 * eps, 1/2))`` in bits; NaN when ``k = 0``."""
        eps = self.est_epsilon
        return eps if self.k == 0 else binary_entropy(np.minimum(self.c1 * eps, 0.5))

    @property
    def mean_failures(self) -> float:
        # Summed in float64, as ndarray.mean sums: an int64 sum would wrap
        # once trials * k reaches 2**63.
        return float(self.drawn_failures.sum(dtype=np.float64)) / self.trials

    def summary(self) -> dict:
        """Aggregate of all trials: abort rate with its interval, extras, mean failures."""
        phat = self.abort_probability
        return {
            "abort_ci": [float(bound) for bound in _wilson_interval(phat, self.trials)],
            "abort_probability": phat,
            "extras": {key: float(val) for key, val in self.extras.items()},
            "mean_failures": self.mean_failures,
        }

    def to_dict(self) -> dict:
        def _num(value):
            return None if np.isnan(value) else float(value)

        records = [
            {"aborted": bool(aborted), "est_epsilon": _num(eps), "failures": int(failures),
             "leak_bound_bits": _num(leak), "tables_delivered": int(delivered)}
            for aborted, eps, failures, leak, delivered in zip(
                self.aborted, self.est_epsilon, self.failures, self.leak_bound_bits,
                self.tables_delivered)
        ]
        return {
            **self.summary(),
            "constants": {"c1": self.c1, "c_a": self.c_a, "c_b": self.c_b,
                          "c_mid": self.c_mid},
            "k": self.k,
            "m": self.m,
            "protocol": self.protocol_id,
            "records": records,
            "side": self.side,
            "threshold": self.threshold,
            "trials": len(records),
        }


def _iid(rng, support: np.ndarray, pmf: np.ndarray, trials: int) -> np.ndarray:
    """``trials`` i.i.d. draws of ``pmf`` over ``support``, grouped by value.

    Drawn as their multinomial histogram, expanded in support order: the
    same law as one draw per trial up to the order of the trials, which the
    run's :class:`CheckReport` draws when it is read, for one binomial draw
    per support value.
    """
    return np.repeat(support, rng.multinomial(trials, pmf / pmf.sum()))


def _binomials(rng, n, p: float, trials: int) -> np.ndarray:
    """``trials`` independent ``Bin(n, p)`` draws, ``n`` one count or one per trial.

    Nothing is drawn when ``p`` is 0 or 1 or every ``n`` is 0; a count of
    ``n`` failures past int64 raises OverflowError, as a draw would.  One count
    whose support, ``n + 1`` values, fits in the trials is drawn by
    :func:`_iid`; counts that vary per trial, or a support larger than the
    trials, are drawn one per trial.
    """
    scalar = np.ndim(n) == 0
    if not (0.0 < p < 1.0 and (n != 0 if scalar else np.any(n))):
        return np.full(trials, n * int(p >= 1.0), dtype=np.int64)
    if scalar and n < trials:
        return _iid(rng, np.arange(n + 1), _binomial_pmf(n, p), trials)
    return rng.binomial(n, p, trials)


# numpy's hypergeometric sampler needs both populations below this.
_NUMPY_HYPERGEOMETRIC_MAX = 10**9


def _shared_labels(rng, m: int, k_a: int, k_b: int, trials: int) -> np.ndarray:
    """``trials`` draws of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``.

    By :func:`_iid` when J's support fits in the trials (a J fixed by a side
    that checks every label draws nothing), or when numpy's per-trial sampler
    cannot take the populations; else one draw per trial.
    """
    support = min(k_a, k_b) - max(0, k_a + k_b - m) + 1
    if support <= trials or max(k_a, m - k_a) >= _NUMPY_HYPERGEOMETRIC_MAX:
        return _iid(rng, *_shared_pmf(m, k_a, k_b), trials)
    return rng.hypergeometric(k_a, m - k_a, k_b, size=trials)


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

    Right-multiplying a law of s by it convolves that law with ``pmf``.
    """
    padded = np.zeros(pmf.shape[:-1] + (size + 1,))
    padded[..., :pmf.shape[-1]] = pmf
    index = np.arange(size) - np.arange(shifts)[:, None]
    return padded[..., np.where(index < 0, size, index)]


def _joint_table(fail: np.ndarray, shared: np.ndarray, weights: np.ndarray,
                 k_b: int, k_a: int) -> np.ndarray:
    """Exact law ``[G, k_b + 1, k_a + 1]`` of a protocol-3 trial's ``(J, F_b, F_a)``.

    ``shared`` and ``weights`` are J's support and law, ``fail`` the verdict
    law of :func:`_verdicts`, whose ``fail[0, 1]`` is 0 by construction:
    Alice's check fails only where Bob's does.
    Given J, Bob's failures on the shared labels are ``U ~ Bin(J, p_b)`` and on
    his own ``Bin(k_b - J, p_b)``; Alice's are ``Bin(U, q)``, with ``q =
    fail[1, 1] / p_b``, plus ``Bin(k_a - J, p_a)`` on hers.  Per J, the table
    is ``h(J)`` times the matrix chain over u and Alice's shared failures s:
    Bob's own law shifted by u, ``Bin(J, p_b)``, ``Bin(u, q)``, and Alice's
    own law shifted by s.  Each set of binomial rows is one vectorized call.
    """
    p_b, p_a, g, top = float(fail[1].sum()), float(fail[1, 1]), len(shared), int(shared.max())
    rows = _binomial_pmf(np.concatenate([k_b - shared, shared]), p_b)
    bob = _shifts(rows[:g], top + 1, k_b + 1) * rows[g:, :top + 1, None]    # [G, u, F_b]
    alice = _shifts(_binomial_pmf(k_a - shared, p_a), top + 1, k_a + 1)      # [G, s, F_a]
    thinning = _binomial_pmf(np.arange(top + 1), p_a / p_b)                  # [u, s]
    return weights[:, None, None] * (np.swapaxes(bob, 1, 2) @ thinning @ alice)


# Largest joint table, in cells per trial, that run_protocol3 draws from.  The
# table costs a few float arrays of its size and a binomial per occupied cell
# and F_a value; the per-trial path, three binomial draws per trial.  Timed on
# a 2-core x86 host at k = k_alice = 20, 40 and 80, the table was the faster
# below 5 to 7 cells per trial (m = 200, k = 20, 4000 trials: 2.3 cells, 0.57
# of the per-trial time), so 4 keeps it faster with memory a few times the
# per-trial arrays'.
_TABLE_CELLS_PER_TRIAL = 4


def _joint_draw(rng, fail: np.ndarray, m: int, k_b: int, k_a: int, trials: int) -> tuple:
    """``trials`` i.i.d. draws of ``(J, F_b, F_a)`` from :func:`_joint_table`, grouped by value.

    Two multinomial histograms: of ``(J, F_b)``, whose law is ``h(J) Bin(k_b,
    p_b)`` since Bob's verdicts do not depend on which labels Alice checks,
    then of ``F_a`` in each occupied ``(J, F_b)`` cell, all cells in one
    batched draw.  The cells are expanded in table order, each trial's three
    values side by side; the trial order is the report's (:class:`CheckReport`).
    """
    shared, weights = _shared_pmf(m, k_a, k_b)
    table = _joint_table(fail, shared, weights, k_b, k_a).reshape(-1, k_a + 1)
    first = table.sum(axis=1)
    counts = rng.multinomial(trials, first / first.sum())
    occupied = np.flatnonzero(counts)
    cells = rng.multinomial(counts[occupied], table[occupied] / first[occupied, None])
    draws = np.repeat(np.arange(cells.size), cells.ravel())
    cell, failures_a = np.divmod(draws, k_a + 1)
    j, failures_b = np.divmod(occupied[cell], k_b + 1)
    return shared[j], failures_b, failures_a


def _check_run(protocol_id: int, config: CheckConfig, k_a: int, t_a: int,
               alice: AliceStrategy, bob: BobStrategy, rng: np.random.Generator):
    """One run of :func:`run_protocol3` with Alice checking ``k_a`` labels at threshold ``t_a``.

    Returns Bob's report alone for protocol 2, whose receiver is never
    checked, and ``(bob_report, alice_report)`` for protocol 3.
    """
    m, k_b, trials = config.m, config.k_bob, config.trials
    t_b = config.resolved_threshold("bob")
    fail, guess = _verdicts(alice, bob)
    p_b, p_a = fail[1].sum(), fail[1, 1]
    if k_a == 0 or k_b == 0:
        # A side that checks no label shares none, draws nothing and never
        # aborts; the count of labels checked stays a scalar, exact past int64.
        k, p, t = (k_b, p_b, t_b) if k_b else (k_a, p_a, t_a)
        failures, none = _binomials(rng, k, p, trials), np.zeros(trials, dtype=np.int64)
        failures_b, failures_a = (failures, none) if k_b else (none, failures)
        passed, checked = failures <= t, k
    else:
        support = min(k_a, k_b) - max(0, k_a + k_b - m) + 1
        if p_b > 0.0 and support * (k_b + 1) * (k_a + 1) <= _TABLE_CELLS_PER_TRIAL * trials:
            shared, failures_b, failures_a = _joint_draw(rng, fail, m, k_b, k_a, trials)
        else:
            shared = _shared_labels(rng, m, k_a, k_b, trials)
            u = _binomials(rng, shared, p_b, trials)
            failures_b = u + _binomials(rng, k_b - shared, p_b, trials)
            failures_a = _binomials(rng, u, p_a / p_b if p_b > 0.0 else 0.0, trials)
            failures_a += _binomials(rng, k_a - shared, p_a, trials)
        passed = (failures_b <= t_b) & (failures_a <= t_a)
        checked = (k_b - shared) + k_a   # at most m, where k_b + k_a can pass int64
    extras = {}
    if bob.kind == "computational" and alice.kind == "honest":
        # ``guess`` is 3/4 of ``fail`` in every cell: one binomial, after the verdicts.
        guessed = _big_binomial(rng, trials * m, float(guess.sum() / fail.sum()))
        extras["x_guess_rate"] = guessed / (trials * m)
    order = _TrialOrder(rng.bit_generator.random_raw(), trials)
    # No table is delivered when either side aborts; an object array past int64.
    delivered = passed * np.asarray(m - checked)
    bob_report = CheckReport(protocol_id, "bob", m, k_b, t_b, failures_b, delivered, config.c1,
                             dict(extras), order)
    if protocol_id == 2:
        return bob_report
    return bob_report, CheckReport(3, "alice", m, k_a, t_a, failures_a, delivered, config.c1,
                                   dict(extras), order)


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

    Instances are i.i.d., so a trial draws its sufficient statistics only,
    from the caller's Generator ``rng``: the number J of labels both sides
    check, ``J ~ Hypergeometric(k_alice, m - k_alice, k_bob)``, and each
    side's failure count.  Alice's check fails only where Bob's does
    (:func:`_verdicts`), so of the J shared labels Bob fails ``U ~ Bin(J,
    p_b)`` and Alice ``Bin(U, q)``, with ``q = fail[1, 1] / p_b`` (1 against
    an honest Alice).  When a side checks no label, none is shared, only the
    other side's count is drawn (:func:`_binomials`) and the side that checks
    nothing never aborts: with ``k_alice = 0`` and an honest ``bob`` this is
    :func:`run_protocol2`, draw for draw.  When both check, Bob's check can
    fail and the exact table of ``(J, F_b, F_a)`` has at most
    ``_TABLE_CELLS_PER_TRIAL`` cells per trial, it is drawn as two multinomial
    histograms (:func:`_joint_draw`).  Otherwise the chain is drawn link by
    link, per trial: J, U, ``F_b = U + Bin(k_bob - J, p_b)`` and ``F_a =
    Bin(U, q) + Bin(k_alice - J, p_a)``.  Against a computational-basis Bob
    each instance's input guess is right with probability 3/4 whatever its
    verdicts, so the total over all ``trials * m`` instances is one binomial
    of that exact marginal.  The run's last draw is the seed of the trial
    order that its two reports share.
    """
    return _check_run(3, config, config.k_alice, config.resolved_threshold("alice"),
                      alice, bob, rng)


def suggested_check_count(tables_needed: int) -> int:
    """The default number of checks for ``tables_needed`` tables: ``ceil(tables_needed ** 1.1)``."""
    if tables_needed < 1:
        raise ValueError("tables_needed must be >= 1")
    return int(np.ceil(tables_needed ** 1.1))

