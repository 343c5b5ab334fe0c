"""Stackelberg analysis of an adversarial accept/estimate aggregation game.

A data collector reads one value from n nodes, of which n-1 are controlled
by an adversary, accepts when the report spread is within a threshold, and
estimates by the midrange. This package computes the acceptance/error
trade-off curve, the equilibrium threshold, and the adversary's optimal
atomic noise distribution, and verifies all of it against brute-force
oracles and Monte Carlo simulation.
"""

from .envelope import Chord, Envelope, build_envelope
from .errors import ConfigError, DomainError, NumericalError
from .kernel import KernelContext
from .noise_model import (HonestNoiseModel, from_spec, tabulated, tabulated_from_csv,
                          triangular, truncated_normal, uniform, validate)
from .simulator import (GameConfig, IidStrategy, ReplicatedStrategy, SimulationResult,
                        dominance_check, run_monte_carlo, run_scenario_suite)
from .strategy import (AdversaryUtility, AtomicAdversary, DCUtility,
                       EquilibriumReport, UtilitySpec, best_alpha_set,
                       build_adversary, solve_equilibrium)
from .tradeoff import build_oracle_table, c_alpha, oracle_c2, oracle_c2_witness, zero_limit

__version__ = "0.1.0"
