"""otlab: simulator and numerical security lab for qutrit one-time-table protocols.

The package is organized as six modules:

- :mod:`otlab.numerics`  -- dense small-dimension operator algebra and
  information-theoretic primitives (trace distance, Holevo quantity, mutual
  information, random POVM draws).
- :mod:`otlab.protocol`  -- the exact two-qutrit-communication protocol that
  produces one-time tables, plus the classical AND evaluation that consumes
  them.
- :mod:`otlab.security`  -- single-instance adversary analysis: closed-form
  guessing probabilities and Holevo triples, tradeoff bounds, the qubit
  reduction of qutrit measurements, example measurements, accessible
  information search, and the Haar-sampled tradeoff curve.
- :mod:`otlab.checksim`  -- Monte Carlo simulation of the check-and-abort
  protocols against a library of adversary strategies.
- :mod:`otlab.verify`    -- the property-sweep suites behind ``otlab verify``.
- :mod:`otlab.cli`       -- seeded, reproducible command line front end
  emitting CSV/JSON; not imported with the package, so that
  ``python -m otlab.cli`` runs it once (``from otlab import cli``).
"""

__version__ = "0.23.0"

from . import checksim, numerics, protocol, security, verify  # noqa: F401
