"""Monte Carlo simulation of the check-and-abort table-generation protocols.

Protocol 2: the parties generate ``m`` one-time tables, Bob samples ``k``
labels uniformly without replacement, Alice reveals her (input, output) pair
for each sampled label, and Bob aborts when more than ``threshold`` checks
violate ``a AND b = e XOR f``.  Protocol 3 runs the same check independently
in both directions (label sets may overlap).

Each instance is modelled exactly.  A sender is a set of arrays: the prior
and amplitudes of each state she may prepare, its honest input bit, her
measurement elements on the returned qutrit and the law of her reported pair
given each outcome.  A receiver is a set of Kraus operators, one per branch,
each with his bits ``y, r`` and his guess of her input.  One Born-rule
contraction of the two gives a strategy pair's exact joint distribution over
all per-instance classical values (hidden bits, fabricated reports, check
verdicts), built once per pair.  Instances are i.i.d., so a trial needs
only its sufficient statistics, drawn from that exact table: one binomial
failure count per side, plus, in protocol 3, the number of labels both
sides check and those labels' joint verdicts.  The same table
gives each run's exact law (:func:`exact_law`), and
:func:`simulate_instances`, which draws whole instances from it, is the
instance-level oracle of the sufficient-statistic draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
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
    "detection_curve",
    "suggested_check_count",
]


@dataclass(frozen=True)
class CheckConfig:
    """Run geometry: tables generated, labels checked, thresholds, trials.

    ``m``, ``k_bob``, ``k_alice`` and ``trials`` are integers (Python or
    numpy, not bool).  Thresholds are maximum tolerated failure counts.  An
    integer is an absolute count; a float in [0, 1) is interpreted as a
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
        for name in ("threshold_bob", "threshold_alice"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:   # NaN fails too; any int passes
                raise ValueError(f"{name} must be finite and nonnegative")
            if isinstance(value, float) and not value.is_integer() and value >= 1.0:
                raise ValueError(f"fractional {name} must lie in [0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (np.isfinite(self.c1) and self.c1 > 0):
            raise ValueError("c1 must be positive and finite")

    def resolved_threshold(self, side: str) -> int:
        """Absolute failure threshold for one side, resolving fractions of k."""
        value = self.threshold_bob if side == "bob" else self.threshold_alice
        k = self.k_bob if side == "bob" else self.k_alice
        if isinstance(value, float) and 0.0 < value < 1.0:
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
    columns = dict(y=y, r=r, a_rep=a, e_rep=e, bob_fail=(a & y) != (e ^ r),
                   alice_fail=honest & ((x & y) != (e ^ r)), x=x, e=honest * e,
                   honest_alice=np.full(len(s), honest), x_guess_correct=honest & (xhat[b] == x))
    probs = probs[keep]
    return probs / probs.sum(), {name: columns[name].astype(np.int8) for name in _FIELDS}


def simulate_instances(alice: AliceStrategy, bob: BobStrategy, n: int,
                       rng: np.random.Generator) -> dict:
    """Draw ``n`` protocol instances; returns per-instance value arrays."""
    probs, columns = _instance_table(alice, bob)
    idx = rng.choice(len(probs), size=n, p=probs)
    return {name: vals[idx] for name, vals in columns.items()}


def _verdicts(alice: AliceStrategy, bob: BobStrategy):
    """Exact law of one instance's two check verdicts, from its table.

    Returns ``(fail, guess)``, both ``[2, 2]`` and indexed ``[bob_fail,
    alice_fail]``: ``fail`` holds each verdict pair's probability and
    ``guess`` that probability jointly with a correct guess of Alice's input.
    """
    probs, columns = _instance_table(alice, bob)
    cell = 2 * columns["bob_fail"] + columns["alice_fail"]
    fail = np.bincount(cell, weights=probs, minlength=4)
    guess = np.bincount(cell, weights=probs * columns["x_guess_correct"], minlength=4)
    return fail.reshape(2, 2), guess.reshape(2, 2)


# ---------------------------------------------------------------------------
# Exact law of a run
# ---------------------------------------------------------------------------

def _from_ratios(ratios: np.ndarray) -> np.ndarray:
    """A law on consecutive values from its ratios ``pmf(j + 1) / pmf(j)``, normalized.

    The ratios of a log-concave law fall with j, so the products taken outward
    from its mode, whose weight is 1, only shrink: none overflows, and each
    term's relative error grows by a few ulps per ratio, whatever the
    population.  Time and memory are linear in the support.
    """
    mode = np.count_nonzero(ratios > 1.0)
    w = np.concatenate((np.cumprod(1.0 / ratios[mode - 1::-1])[::-1] if mode else [],
                        [1.0], np.cumprod(ratios[mode:])))
    return w / w.sum()


def _binomial_pmf(k: int, p: float) -> np.ndarray:
    """``P(Bin(k, p) = j)`` for j = 0..k."""
    if not 0.0 < p < 1.0:
        return (np.arange(k + 1) == (k if p >= 1.0 else 0)).astype(float)
    j = np.arange(k)
    return _from_ratios((k - j) / (j + 1.0) * (p / (1.0 - p)))


def _binomial_cdf(k: int, p: float, counts: np.ndarray) -> np.ndarray:
    """``P(Bin(k, p) <= c)`` for each nonnegative ``c`` in ``counts``."""
    return np.cumsum(_binomial_pmf(k, p))[np.minimum(counts, k)]


def _shared_pmf(m: int, k_a: int, k_b: int) -> tuple:
    """Support and probabilities of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``.

    From the ratios ``pmf(j + 1) / pmf(j) = (k_a - j)(k_b - j) / ((j + 1)(m - k_a
    - k_b + j + 1))``, each factor an exact int64.
    """
    shared = np.arange(max(0, k_a + k_b - m), min(k_a, k_b) + 1)
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

@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of a Monte Carlo run of one side's checking.

    Keeps only what the run drew, per trial the failure count and the number
    of delivered (unchecked, non-aborted) tables, with its side's geometry.
    Everything else is derived from the failure counts when read: the trial
    count, the abort flags (more failures than ``threshold``), the abort rate
    with its Wilson interval, the failure-rate estimate ``est_epsilon`` and
    the leak bound ``leak_bound_bits``.  The order-equivalence bracket
    ``[c_a, c_b]`` around the estimator constant is recorded, as class
    constants, rather than hidden.
    """

    protocol_id: int
    side: str
    m: int
    k: int
    threshold: int
    failures: np.ndarray
    tables_delivered: np.ndarray
    c1: float = 1.0
    extras: dict = field(default_factory=dict)
    c_mid: ClassVar[float] = 1.0
    c_a: ClassVar[float] = 0.5
    c_b: ClassVar[float] = 2.0

    @property
    def trials(self) -> int:
        return len(self.failures)

    @property
    def aborted(self) -> np.ndarray:
        """Per-trial abort flag: more failures than ``threshold``."""
        return self.failures > self.threshold

    @property
    def abort_probability(self) -> float:
        return np.count_nonzero(self.aborted) / self.trials

    @property
    def abort_ci(self) -> tuple:
        """95% Wilson interval of the abort rate."""
        n, z, phat = self.trials, 1.96, self.abort_probability
        denom = 1.0 + z * z / n
        center = (phat + z * z / (2 * n)) / denom
        half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
        return (max(0.0, center - half), min(1.0, center + half))

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
        return float(self.failures.mean())

    def summary(self) -> dict:
        """Aggregate of all trials: abort rate with its interval, extras, mean failures."""
        return {
            "abort_ci": [float(bound) for bound in self.abort_ci],
            "abort_probability": self.abort_probability,
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
    """``trials`` i.i.d. draws of ``pmf`` over ``support``.

    Drawn as their multinomial histogram, expanded and shuffled into a
    uniformly random order: the same law as one draw per trial, for one
    binomial draw per support value and one shuffle.
    """
    draws = np.repeat(support, rng.multinomial(trials, pmf / pmf.sum()))
    rng.shuffle(draws)
    return draws


def _binomials(rng, n, p: float, trials: int) -> np.ndarray:
    """``trials`` independent ``Bin(n, p)`` draws, ``n`` one count or one per trial.

    Nothing is drawn when ``p`` is 0 or 1 or every ``n`` is 0.  One count
    whose support, ``n + 1`` values, fits in the trials is drawn by
    :func:`_iid`; counts that vary per trial, or a support larger than the
    trials, are drawn one per trial.
    """
    if not (0.0 < p < 1.0 and np.any(n)):
        return np.broadcast_to(np.asarray(n) * int(p >= 1.0), trials).astype(np.int64)
    if np.ndim(n) == 0 and n < trials:
        return _iid(rng, np.arange(n + 1), _binomial_pmf(n, p), trials)
    return rng.binomial(n, p, trials)


# numpy's hypergeometric sampler needs both populations below this.
_NUMPY_HYPERGEOMETRIC_MAX = 10**9


def _shared_labels(rng, m: int, k_a: int, k_b: int, trials: int) -> np.ndarray:
    """``trials`` draws of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``, with ``0 < k_a, k_b < m``.

    By :func:`_iid` when J's support fits in the trials, or when numpy's
    per-trial sampler cannot take the populations; else one draw per trial.
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


def _split(rng, n: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Multinomial counts ``[len(n), len(cells)]`` of ``n`` draws over ``cells``.

    Drawn as conditional binomials over the nonzero cells; the last of them
    takes the remainder, so a single nonzero cell, or ``n`` all zero, draws
    nothing.
    """
    counts = np.zeros((len(n), len(cells)), dtype=np.int64)
    live = np.flatnonzero(cells) if n.any() else np.flatnonzero(cells)[-1:]
    left, mass = n, float(cells.sum())
    for c in live[:-1]:
        counts[:, c] = _binomials(rng, left, min(1.0, cells[c] / mass), len(left))
        left = left - counts[:, c]
        mass -= cells[c]
    counts[:, live[-1]] = left
    return counts


def run_protocol2(config: CheckConfig, alice: AliceStrategy,
                  rng: np.random.Generator) -> CheckReport:
    """Bob checks Alice: generate m tables, sample k_bob labels, count failures.

    A check of label j fails when Alice's reported pair ``(a_j, e_j)``
    violates ``a_j AND b_j = e_j XOR f_j`` against Bob's true values; Bob
    aborts a trial when failures exceed his threshold.  The report derives
    the failure-rate estimate and leak bound for the delivered tables.

    Instances are i.i.d., so a trial's failure count is drawn directly as
    ``Bin(k_bob, p)``, with ``p`` the exact per-check failure probability,
    from the caller's Generator ``rng``; all trials' counts at once, by
    :func:`_binomials`.
    """
    fail, _ = _verdicts(alice, BobStrategy.honest())
    failures = _binomials(rng, config.k_bob, fail[1].sum(), config.trials)
    threshold = config.resolved_threshold("bob")
    delivered = np.full(config.trials, config.m - config.k_bob)   # object past int64
    delivered[failures > threshold] = 0
    return CheckReport(2, "bob", config.m, config.k_bob, threshold, failures, delivered,
                       config.c1)


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
    from the caller's Generator ``rng``: the number of labels both sides check,
    ``J ~ Hypergeometric(k_alice, m - k_alice, k_bob)``; the joint verdicts
    of those J labels, which can fail both checks together; and one binomial
    failure count for each side's own ``k - J`` labels.  J, and the own
    counts when the overlap is fixed, have one law in every trial and are
    drawn as shuffled histograms (:func:`_iid`) where their support allows;
    the verdicts and the own counts given a random J, one per trial.  Against a
    computational-basis Bob each instance's input guess is right with
    probability 3/4 whatever its verdicts, so the total over all ``trials * m``
    instances is one binomial of that exact marginal, the run's last draw.
    """
    m, k_b, k_a, trials = config.m, config.k_bob, config.k_alice, config.trials
    fail, guess = _verdicts(alice, bob)
    if 0 < k_a < m and 0 < k_b < m:
        shared = _shared_labels(rng, m, k_a, k_b, trials)
        overlap = shared
    else:  # a side checks no label or every label: the overlap is fixed
        overlap = k_a * k_b // m
        shared = np.full(trials, overlap)
    cells = _split(rng, shared, fail.ravel())   # columns: verdicts 00, 01, 10, 11
    # A fixed overlap gives each side one scalar count of own labels.
    own_b = _binomials(rng, k_b - overlap, fail[1].sum(), trials)
    own_a = _binomials(rng, k_a - overlap, fail[:, 1].sum(), trials)
    checked = (k_b - shared) + k_a   # at most m, where k_b + k_a can pass int64
    extras = {}
    if bob.kind == "computational" and alice.kind == "honest":
        # Each instance's guess is right with probability 3/4 whatever its
        # verdicts (``guess`` is 3/4 of ``fail`` in every cell), so the
        # total over all trials is one binomial, drawn last.
        guessed = _big_binomial(rng, trials * m, float(guess.sum() / fail.sum()))
        extras["x_guess_rate"] = guessed / (trials * m)
    failures_b, failures_a = cells[:, 2] + cells[:, 3] + own_b, cells[:, 1] + cells[:, 3] + own_a
    t_b, t_a = config.resolved_threshold("bob"), config.resolved_threshold("alice")
    # No table is delivered when either side aborts.
    delivered = np.where((failures_b > t_b) | (failures_a > t_a), 0, m - checked)
    return (CheckReport(3, "bob", m, k_b, t_b, failures_b, delivered, config.c1, dict(extras)),
            CheckReport(3, "alice", m, k_a, t_a, failures_a, delivered, config.c1, dict(extras)))


def detection_curve(strategy, k_values, threshold: int) -> list:
    """Exact abort probability versus number of checks for one cheating strategy.

    For an :class:`AliceStrategy` the Bob-checks protocol with ``m = k``
    (every table checked); for a :class:`BobStrategy` the Alice side of the
    two-way protocol.  Each point is ``1 - exact_law(...).pass_probability``;
    honest strategies give exactly 0.
    """
    curve = []
    for k in k_values:
        k = int(k)
        if isinstance(strategy, AliceStrategy):
            law = exact_law(CheckConfig(m=k, k_bob=k, threshold_bob=threshold), strategy)
        else:
            config = CheckConfig(m=k, k_bob=0, k_alice=k, threshold_alice=threshold)
            law = exact_law(config, AliceStrategy.honest(), strategy)
        curve.append((k, 1.0 - law.pass_probability))
    return curve


def suggested_check_count(tables_needed: int) -> int:
    """The default number of checks for ``tables_needed`` tables: ``ceil(tables_needed ** 1.1)``."""
    if tables_needed < 1:
        raise ValueError("tables_needed must be >= 1")
    return int(np.ceil(tables_needed ** 1.1))

