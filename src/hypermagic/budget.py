"""Simulation budgets with environment overrides.

Phase tables cost 2^n bits; the sim budget gates them and the rank route.
The spectrum budget picks no route (`ensembles.state_counts` picks it from
the graph alone).  It sets the method label of `exact`, rank-class above
it for graphs whose edges have at most three vertices, and bounds the 4^n
entries of the `full_spectrum` table and of the `--dump-spectrum` file.
Unions of complete layers take the Krawtchouk route of `symmetric`, which
builds no phase table, so neither budget applies to them.
The defaults keep casual calls from accidentally requesting terabytes or
days; each can be raised per call or via environment variables.
"""

from __future__ import annotations

import os

DEFAULT_SIM_BUDGET = 26  # phase tables, 2^n-bit
DEFAULT_SPECTRUM_BUDGET = 12  # rank-class label above it for c <= 3; 4^n words of a full table
DEFAULT_THEORY_BUDGET = 64  # composition-sum evaluations, about C(n+6, 6)/4 grid cells

ENV_SIM = "HYPERMAGIC_SIM_BUDGET"
ENV_SPECTRUM = "HYPERMAGIC_SPECTRUM_BUDGET"
ENV_THEORY = "HYPERMAGIC_THEORY_BUDGET"


class BudgetError(RuntimeError):
    """Raised when a request exceeds the configured simulation budget."""


def _resolve(override: int | None, env: str, default: int) -> int:
    """The override, else the integer in the environment variable, else the default."""
    if override is not None:
        return override
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from exc


def sim_budget(override: int | None = None) -> int:
    return _resolve(override, ENV_SIM, DEFAULT_SIM_BUDGET)


def spectrum_budget(override: int | None = None) -> int:
    return _resolve(override, ENV_SPECTRUM, DEFAULT_SPECTRUM_BUDGET)


def theory_budget(override: int | None = None) -> int:
    return _resolve(override, ENV_THEORY, DEFAULT_THEORY_BUDGET)


def check(n: int, budget: int, what: str) -> None:
    if n > budget:
        raise BudgetError(
            f"{what} at n={n} exceeds the budget of {budget} qubits; "
            f"raise it via the budget argument or the environment override"
        )
