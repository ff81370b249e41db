"""Magic of quantum hypergraph states.

Exact Pauli spectra and stabilizer Renyi entropies of hypergraph states at
small scale, closed forms and ensemble statistics at large scale, with
every analytic route cross-validated against an independent brute-force
path.
"""

__version__ = "0.1.0"

from .budget import BudgetError
from .hypergraph import (
    DegreeProfile,
    Hypergraph,
    build,
    c_complete,
    degree_profile,
    empty,
    from_masks,
    from_text,
)
from .phasestate import PhaseState, from_hypergraph
from .spectrum import PauliSpectrum, full_spectrum
from .magic import MagicReport, degree_bound, pl_moment, sre
from .ensembles import (
    EnsembleSpec,
    MomentEstimate,
    avg_m2_p,
    bound_general,
    exact_average,
    monte_carlo_moment,
    sample,
    solve_edge_budget,
)

__all__ = [
    "__version__",
    "BudgetError",
    "Hypergraph",
    "DegreeProfile",
    "PhaseState",
    "PauliSpectrum",
    "MagicReport",
    "EnsembleSpec",
    "MomentEstimate",
    "build",
    "from_masks",
    "from_text",
    "c_complete",
    "empty",
    "degree_profile",
    "from_hypergraph",
    "full_spectrum",
    "pl_moment",
    "sre",
    "degree_bound",
    "sample",
    "monte_carlo_moment",
    "exact_average",
    "bound_general",
    "avg_m2_p",
    "solve_edge_budget",
]
