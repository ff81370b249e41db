"""PL-moments, stabilizer Renyi entropies, and the structural bounds.

Moments are kept as exact rationals whenever 2*alpha is an integer so that
golden-value comparisons are equality tests; entropies are floats derived
from exact moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hypergraph import DegreeProfile, Hypergraph, degree_profile
from .spectrum import PauliSpectrum, moment_from_magnitudes, sparse_counts, star_trace_sum

METHOD_DIRECT = "direct-spectrum"
METHOD_STAR = "star-trace"
METHOD_RANK = "rank-class"


@dataclass(frozen=True)
class MagicReport:
    alpha: Fraction
    pl_moment: Fraction | float
    sre: float
    method: str


def log2_of(value) -> float:
    """log2 of a Fraction/int/float; big integers stay accurate."""
    if isinstance(value, Fraction):
        return math.log2(value.numerator) - math.log2(value.denominator)
    return math.log2(value)


def pl_moment(spectrum: PauliSpectrum, alpha) -> Fraction | float:
    """2^-n sum over Paulis of the squared component to the power alpha."""
    return moment_from_magnitudes(sparse_counts(spectrum.magnitude_histogram()), spectrum.n, alpha)


def sre_from_moment(moment, alpha, method: str) -> MagicReport:
    alpha = Fraction(alpha)
    if alpha == 1:
        raise ValueError("alpha = 1 is not defined for this entropy family")
    val = log2_of(moment) / (1 - float(alpha)) + 0.0  # normalize -0.0
    return MagicReport(alpha=alpha, pl_moment=moment, sre=val, method=method)


def sre(spectrum: PauliSpectrum, alpha) -> MagicReport:
    """Entropy from a materialized spectrum (Renyi of the component distribution)."""
    alpha = Fraction(alpha)
    return sre_from_moment(pl_moment(spectrum, alpha), alpha, METHOD_DIRECT)


def sre_star(g: Hypergraph, alpha, budget: int | None = None) -> MagicReport:
    """Entropy via the star-graph trace sum, no 4^n table materialized."""
    alpha = Fraction(alpha)
    total = star_trace_sum(g, alpha, budget)
    denom_exp = g.n * (1 + 2 * alpha)
    if isinstance(total, int) and denom_exp.denominator == 1:
        moment: Fraction | float = Fraction(total, 2 ** int(denom_exp))
    else:
        moment = float(total) / 2.0 ** float(denom_exp)
    return sre_from_moment(moment, alpha, METHOD_STAR)


def degree_bound(g: Hypergraph, alpha, profile: DegreeProfile | None = None) -> float:
    """Upper bound on the entropy from g's average degree (from `profile` if given), alpha >= 2."""
    alpha = Fraction(alpha)
    if alpha < 2:
        raise ValueError("the degree bound holds for alpha >= 2")
    avg = (profile or degree_profile(g)).average
    inner = 1.0 + 2.0 ** (-(2 * float(alpha) - 1) * float(avg))
    return g.n / (float(alpha) - 1.0) * (1.0 - math.log2(inner))


def trivial_bound(n: int, alpha) -> float:
    """The direct cap n / (alpha - 1) for alpha > 1."""
    alpha = float(alpha)
    if alpha <= 1:
        raise ValueError("trivial bound needs alpha > 1")
    return n / (alpha - 1)


def robustness_lower_bound(spectrum: PauliSpectrum) -> float:
    """Certified lower bound on log2 of the robustness of magic: M_{1/2} / 2."""
    report = sre(spectrum, Fraction(1, 2))
    return 0.5 * report.sre
