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
:func:`simulate_instances` draws whole instances as an independent oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache

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
    "run_with_restarts",
    "suggested_check_count",
    "epsilon_estimate",
    "leak_bound",
    "EPS_C_MID",
    "EPS_C_A",
    "EPS_C_B",
]

# Estimator constant for est_epsilon = C_MID * (failures + 1) / k, with the
# order-equivalence bracket [C_A, C_B] surfaced in every report.
EPS_C_MID = 1.0
EPS_C_A = 0.5
EPS_C_B = 2.0


@dataclass(frozen=True)
class CheckConfig:
    """Run geometry: tables generated, labels checked, thresholds, trials.

    Thresholds are maximum tolerated failure counts.  An integer is an
    absolute count; a float in [0, 1) is interpreted as a fraction of the
    checked labels (``floor(t * k)``).
    """

    m: int
    k_bob: int
    threshold_bob: float = 0
    k_alice: int = 0
    threshold_alice: float = 0
    trials: int = 1
    seed: int = 0
    c1: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for name in ("k_bob", "k_alice"):
            k = getattr(self, name)
            if not (0 <= k <= self.m):
                raise ValueError(f"{name}={k} outside [0, m={self.m}]")
        for name in ("threshold_bob", "threshold_alice"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
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


def _bit_pairs(value) -> bool:
    """Whether ``value`` is two pairs of integer 0/1 bits."""
    try:
        return len(value) == 2 and all(
            len(pair) == 2 and all(operator.index(bit) in (0, 1) for bit in pair)
            for pair in value)
    except TypeError:
        return False


@dataclass(frozen=True)
class AliceStrategy:
    """Sender behavior: preparation, measurement, and check-report policy.

    ``report_map`` (learn-y only) optionally replaces the default coin report
    with a deterministic map from her binary measurement outcome ``o`` to the
    reported pair ``(a, e) = report_map[o]``; used to exhaust the
    deterministic report policies in tests.  ``params`` belongs to param and
    ``mix`` (weights and sender strategies) to mix; a field given to a kind
    that does not use it raises ValueError.
    """

    kind: str                               # honest | learn-y | param | mix
    params: CheatParams | None = None
    report_map: tuple | None = None
    mix: tuple = ()                         # ((weight, AliceStrategy), ...)

    def __post_init__(self):
        if self.kind not in ("honest", "learn-y", "param", "mix"):
            raise ValueError(f"unknown Alice strategy {self.kind!r}")
        if self.kind == "param" and self.params is None:
            raise ValueError("param strategy needs an amplitude triple")
        if self.params is not None and self.kind != "param":
            raise ValueError(f"params apply only to param, not {self.kind!r}")
        if self.report_map is not None and self.kind != "learn-y":
            raise ValueError(f"report_map applies only to learn-y, not {self.kind!r}")
        if self.mix and self.kind != "mix":
            raise ValueError(f"mix components apply only to mix, not {self.kind!r}")
        if self.report_map is not None:
            if not _bit_pairs(self.report_map):
                raise ValueError(f"report_map {self.report_map!r} is not two pairs of 0/1 bits")
            # Tuples of ints, so that the strategy stays hashable and indexes arrays.
            object.__setattr__(self, "report_map",
                               tuple(tuple(int(bit) for bit in pair) for pair in self.report_map))
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
    def learn_y(cls, report_map: tuple | None = None) -> "AliceStrategy":
        return cls(kind="learn-y", report_map=report_map)

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
        sent = np.array([protocol.alice_prepare(i, j).amplitudes for i, j in zip(x, t)])
        rows = np.array([protocol.alice_basis(i) for i in x])
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
        observed = np.zeros((2, 2, 2))            # [observed bit, a, e]
        if alice.report_map is None:
            observed[:, 0] = 0.5                  # claim input 0, report a coin
        else:
            for bit, (a, e) in enumerate(alice.report_map):
                observed[bit, a, e] = 1.0
        reports = np.stack([observed[0], observed[1], observed.mean(axis=0)])
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
    gates = np.array([protocol.bob_gate(i, j) for i, j in zip(y, r)]) / 2.0
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

def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _binomial_pmf(k: int, p: float) -> np.ndarray:
    """``P(Bin(k, p) = j)`` for j = 0..k."""
    j = np.arange(k + 1)
    if not 0.0 < p < 1.0:
        return (j == (k if p >= 1.0 else 0)).astype(float)
    lf = _log_factorials(k)
    return np.exp(lf[k] - lf[j] - lf[k - j] + j * np.log(p) + (k - j) * np.log1p(-p))


def _binomial_cdf(k: int, p: float, counts: np.ndarray) -> np.ndarray:
    """``P(Bin(k, p) <= c)`` for each nonnegative ``c`` in ``counts``."""
    return np.cumsum(_binomial_pmf(k, p))[np.minimum(counts, k)]


def _shared_pmf(m: int, k_a: int, k_b: int) -> tuple:
    """Support and probabilities of ``J ~ Hypergeometric(k_a, m - k_a, k_b)``."""
    j = np.arange(max(0, k_a + k_b - m), min(k_a, k_b) + 1)
    lf = _log_factorials(m)
    log_p = (lf[k_a] - lf[j] - lf[k_a - j] + lf[m - k_a] - lf[k_b - j]
             - lf[m - k_a - k_b + j] - lf[m] + lf[k_b] + lf[m - k_b])
    return j, np.exp(log_p)


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
    labels = pass_probability = delivered = 0.0
    for j, weight in zip(*_shared_pmf(m, k_a, k_b)):
        while labels < j:
            step = fail[0, 0] * passing
            step[1:] += fail[1, 0] * passing[:-1]
            step[:, 1:] += fail[0, 1] * passing[:, :-1]
            step[1:, 1:] += fail[1, 1] * passing[:-1, :-1]
            passing, labels = step, labels + 1
        own_b = _binomial_cdf(k_b - j, p_b, t_b - np.arange(t_b + 1))
        own_a = _binomial_cdf(k_a - j, p_a, t_a - np.arange(t_a + 1))
        passed = float(weight * (own_b @ passing @ own_a))
        pass_probability += passed
        delivered += (m - k_b - k_a + j) * passed
    return ExactLaw(
        fail_bob=p_b, fail_alice=p_a,
        abort_bob=float(_binomial_pmf(k_b, p_b)[t_b + 1:].sum()),
        abort_alice=float(_binomial_pmf(k_a, p_a)[t_a + 1:].sum()),
        pass_probability=pass_probability, tables_delivered=float(delivered))


# ---------------------------------------------------------------------------
# Check protocols
# ---------------------------------------------------------------------------

def _wilson_ci(successes: int, n: int, z: float = 1.96) -> tuple:
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Outcome of a Monte Carlo run of one side's checking.

    Per-trial arrays carry the failure count, abort flag, failure-rate
    estimate ``c_mid * (failures + 1) / k`` clipped to [0, 1], the leak bound
    ``h(min(c1 * eps, 1/2))`` in bits, and the number of delivered
    (unchecked, non-aborted) tables.  ``est_epsilon``/``leak_bound_bits`` are
    NaN when ``k = 0``.  The order-equivalence bracket ``[c_a, c_b]`` around
    the estimator constant is recorded rather than hidden.
    """

    protocol_id: int
    side: str
    m: int
    k: int
    threshold: int
    trials: int
    failures: np.ndarray
    aborted: np.ndarray
    est_epsilon: np.ndarray
    leak_bound_bits: np.ndarray
    tables_delivered: np.ndarray
    abort_probability: float
    abort_ci: tuple
    c_mid: float = EPS_C_MID
    c_a: float = EPS_C_A
    c_b: float = EPS_C_B
    c1: float = 1.0
    extras: dict = field(default_factory=dict)

    @property
    def mean_failures(self) -> float:
        return float(self.failures.mean())

    def to_dict(self, max_records: int | None = None) -> dict:
        count = self.trials if max_records is None else min(self.trials, max_records)

        def _num(value):
            return None if np.isnan(value) else float(value)

        records = [
            {"aborted": bool(self.aborted[i]),
             "est_epsilon": _num(self.est_epsilon[i]),
             "failures": int(self.failures[i]),
             "leak_bound_bits": _num(self.leak_bound_bits[i]),
             "tables_delivered": int(self.tables_delivered[i])}
            for i in range(count)
        ]
        return {
            "abort_ci": [float(self.abort_ci[0]), float(self.abort_ci[1])],
            "abort_probability": float(self.abort_probability),
            "constants": {"c1": self.c1, "c_a": self.c_a, "c_b": self.c_b,
                          "c_mid": self.c_mid},
            "extras": {key: float(val) for key, val in self.extras.items()},
            "k": self.k,
            "m": self.m,
            "mean_failures": self.mean_failures,
            "protocol": self.protocol_id,
            "records": records,
            "side": self.side,
            "threshold": self.threshold,
            "trials": self.trials,
        }


def _finalize_report(protocol_id, side, config, k, threshold, failures,
                     delivered, extras) -> CheckReport:
    failures = np.asarray(failures)
    aborted = failures > threshold
    top = int(failures.max(initial=0)) + 1
    if k >= 1 and top <= failures.size:
        # Evaluate once per count up to the largest seen, at no more cost
        # than one evaluation per trial.
        eps_table = _epsilon(np.arange(top), k)
        eps = eps_table[failures]
        leak = _leak(eps_table, config.c1)[failures]
    elif k >= 1:
        eps = _epsilon(failures, k)
        leak = _leak(eps, config.c1)
    else:
        eps = np.full(failures.shape, np.nan)
        leak = np.full(failures.shape, np.nan)
    delivered = np.where(aborted, 0, delivered)
    return CheckReport(
        protocol_id=protocol_id, side=side, m=config.m, k=k, threshold=threshold,
        trials=config.trials, failures=failures, aborted=aborted, est_epsilon=eps,
        leak_bound_bits=leak, tables_delivered=delivered,
        abort_probability=float(aborted.mean()),
        abort_ci=_wilson_ci(int(aborted.sum()), len(aborted)),
        c1=config.c1, extras=extras)


def _binomial(rng, n, p, size=None):
    """``Bin(n, p)`` draws; nothing is drawn when ``p`` is 0 or 1."""
    if 0.0 < p < 1.0:
        return rng.binomial(n, p, size)
    return np.broadcast_to(np.asarray(n) * int(p >= 1.0),
                           np.shape(n) if size is None else size).astype(np.int64)


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
        counts[:, c] = _binomial(rng, left, min(1.0, cells[c] / mass))
        left = left - counts[:, c]
        mass -= cells[c]
    counts[:, live[-1]] = left
    return counts


def run_protocol2(config: CheckConfig, alice: AliceStrategy,
                  rng: np.random.Generator | None = None) -> CheckReport:
    """Bob checks Alice: generate m tables, sample k_bob labels, count failures.

    A check of label j fails when Alice's reported pair ``(a_j, e_j)``
    violates ``a_j AND b_j = e_j XOR f_j`` against Bob's true values; Bob
    aborts a trial when failures exceed his threshold.  The report carries
    the failure-rate estimate and leak bound for the delivered tables.

    Instances are i.i.d., so a trial's failure count is drawn directly as
    ``Bin(k_bob, p)``, with ``p`` the exact per-check failure probability.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    fail, _ = _verdicts(alice, BobStrategy.honest())
    failures = _binomial(rng, config.k_bob, fail[1].sum(), size=config.trials)
    delivered = np.full(config.trials, config.m - config.k_bob)
    return _finalize_report(2, "bob", config, config.k_bob, config.resolved_threshold("bob"),
                            failures, delivered, {})


def run_protocol3(config: CheckConfig, alice: AliceStrategy, bob: BobStrategy,
                  rng: np.random.Generator | None = None):
    """Both parties check: returns ``(bob_report, alice_report)``.

    Per trial one table batch is shared; Bob samples ``k_bob`` labels and
    checks Alice's reports, Alice independently samples ``k_alice`` labels
    (overlap allowed) and checks Bob's reported ``(b_j, f_j)``.  Each side
    aborts on its own threshold; delivered tables are those never checked,
    zero when either side aborts.  Against a cheating Alice her own check is
    vacuous (she has no honest values) and never aborts.

    Instances are i.i.d., so a trial draws its sufficient statistics only:
    the number of labels both sides check,
    ``J ~ Hypergeometric(k_alice, m - k_alice, k_bob)``; the joint verdicts
    of those J labels, which can fail both checks together; and one binomial
    failure count for each side's own ``k - J`` labels.  Against a
    computational-basis Bob the input-guess total is drawn as one binomial
    per group of instances sharing a verdict, unchecked instances included.
    """
    rng = np.random.default_rng(config.seed) if rng is None else rng
    m, k_b, k_a, trials = config.m, config.k_bob, config.k_alice, config.trials
    fail, guess = _verdicts(alice, bob)
    if 0 < k_a < m and 0 < k_b < m:
        shared = rng.hypergeometric(k_a, m - k_a, k_b, size=trials)
    else:  # a side checks no label or every label: the overlap is fixed
        shared = np.full(trials, k_a * k_b // m)
    cells = _split(rng, shared, fail.ravel())   # columns: verdicts 00, 01, 10, 11
    own_b = _binomial(rng, k_b - shared, fail[1].sum())
    own_a = _binomial(rng, k_a - shared, fail[:, 1].sum())
    checked = k_b + k_a - shared
    extras = {}
    if bob.kind == "computational" and alice.kind == "honest":
        # Given what is known of an instance's verdicts (both for a shared
        # label, one for a side's own, none unchecked), its guess is a coin
        # of the conditional probability: one binomial per group.
        bob_fails, alice_fails = np.divmod(np.arange(4), 2)
        groups = [(cells[:, c].sum(), np.arange(4) == c) for c in range(4)]
        groups += [(own_b.sum(), bob_fails == 1),
                   ((k_b - shared - own_b).sum(), bob_fails == 0),
                   (own_a.sum(), alice_fails == 1),
                   ((k_a - shared - own_a).sum(), alice_fails == 0),
                   (trials * m - checked.sum(), bob_fails >= 0)]
        cell_p, guess_p = fail.ravel(), guess.ravel()
        guessed = sum(int(_binomial(rng, int(n), guess_p[mask].sum() / cell_p[mask].sum()))
                      for n, mask in groups if n)
        extras["x_guess_rate"] = guessed / (trials * m)
    delivered = m - checked
    bob_report = _finalize_report(3, "bob", config, k_b, config.resolved_threshold("bob"),
                                  cells[:, 2] + cells[:, 3] + own_b, delivered, dict(extras))
    alice_report = _finalize_report(3, "alice", config, k_a,
                                    config.resolved_threshold("alice"),
                                    cells[:, 1] + cells[:, 3] + own_a, delivered, dict(extras))
    # Zero the deliveries whenever the opposite side aborted as well.
    either = bob_report.aborted | alice_report.aborted
    for report in (bob_report, alice_report):
        np.copyto(report.tables_delivered, np.where(either, 0, report.tables_delivered))
    return bob_report, alice_report


def run_with_restarts(config: CheckConfig, alice: AliceStrategy, restarts: int,
                      rng: np.random.Generator | None = None) -> dict:
    """Model a budget of protocol restarts after aborted runs.

    Restarted runs use fresh randomness and the receiver's hidden bits are
    independent across them, so a cheater cannot correlate attempts; the
    overall probability of slipping past the checks grows at most additively
    with the budget.  Runs ``restarts`` independent one-sided check protocols
    per trial and returns the measured any-attempt pass probability next to
    the additive bound ``restarts * single_run_pass`` and the exact
    ``1 - (1 - p_pass)^restarts``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(config.seed) if rng is None else rng
    passed_any = np.zeros(config.trials, dtype=bool)
    single_pass_total = 0.0
    for _ in range(restarts):
        report = run_protocol2(config, alice, rng)
        passed = ~report.aborted
        single_pass_total += float(passed.mean())
        passed_any |= passed
    single = single_pass_total / restarts
    exact_single = exact_law(config, alice).pass_probability
    return {
        "additive_pass_bound": min(1.0, restarts * single),
        "exact_overall_pass_probability": 1.0 - (1.0 - exact_single) ** restarts,
        "exact_single_run_pass_probability": exact_single,
        "overall_pass_probability": float(passed_any.mean()),
        "restarts": restarts,
        "single_run_pass_probability": single,
        "trials": config.trials,
    }


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
    """Default number of checks for a target count of delivered tables.

    The per-table leak bound shrinks like h(1/k), so k must grow strictly
    faster than the table budget; k = ceil(L^1.1) keeps the expected number
    of unsafe delivered tables below one while the overhead ratio stays
    sublinear.  Callers wanting a different security level pass their own k.
    """
    if tables_needed < 1:
        raise ValueError("tables_needed must be >= 1")
    return int(np.ceil(tables_needed ** 1.1))


def _epsilon(failures, k):
    """Failure-rate estimate ``c_mid * (failures + 1) / k`` clipped to [0, 1]."""
    return np.clip(EPS_C_MID * (np.asarray(failures) + 1.0) / k, 0.0, 1.0)


def _leak(est_epsilon, c1):
    """Per-table information cap ``h(min(c1 * eps, 1/2))`` in bits."""
    return binary_entropy(np.minimum(c1 * est_epsilon, 0.5))


def epsilon_estimate(failures: int, k: int) -> float:
    """Failure-rate estimate ``(failures + 1) / k`` clipped to [0, 1]."""
    if k < 1:
        raise ValueError("estimate undefined for k < 1")
    if failures < 0:
        raise ValueError("failures must be nonnegative")
    return float(_epsilon(failures, k))


def leak_bound(est_epsilon: float, c1: float = 1.0) -> float:
    """Per-table information cap ``h(min(c1 * eps, 1/2))`` in bits."""
    if not (0.0 <= est_epsilon <= 1.0):
        raise ValueError(f"est_epsilon {est_epsilon} outside [0, 1]")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    return float(_leak(est_epsilon, c1))
