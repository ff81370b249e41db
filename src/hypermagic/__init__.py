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
    PauliIndex,
    build,
    c_complete,
    degree_profile,
    empty,
    from_masks,
    from_text,
    induced_full,
    to_text,
)
from .phasestate import (
    PhaseState,
    StabilizerWord,
    apply_cz,
    apply_stabilizer,
    from_hypergraph,
    phase_trace,
    stabilizer_word,
)
from .spectrum import (
    PauliSpectrum,
    component_direct,
    full_spectrum,
    rank_moment,
)
from .magic import (
    MagicReport,
    degree_bound,
    pl_moment,
    robustness_lower_bound,
    sre,
)
from .ensembles import (
    EnsembleSpec,
    MomentEstimate,
    avg_m2_p,
    bound_e3_alpha,
    bound_general,
    closed_m2_uniform,
    concentration_check,
    counting_N,
    counting_N_tau,
    exact_average,
    monte_carlo_moment,
    sample,
    solve_edge_budget,
    variance_bound,
)
from .symmetric import (
    SymmetryClass,
    closed_3complete,
    closed_ncomplete,
    reduced_spectrum,
)

__all__ = [
    "__version__",
    "BudgetError",
    "Hypergraph",
    "DegreeProfile",
    "PauliIndex",
    "PhaseState",
    "StabilizerWord",
    "PauliSpectrum",
    "MagicReport",
    "EnsembleSpec",
    "MomentEstimate",
    "SymmetryClass",
    "build",
    "from_masks",
    "from_text",
    "to_text",
    "c_complete",
    "empty",
    "degree_profile",
    "induced_full",
    "from_hypergraph",
    "apply_cz",
    "apply_stabilizer",
    "stabilizer_word",
    "phase_trace",
    "component_direct",
    "full_spectrum",
    "rank_moment",
    "pl_moment",
    "sre",
    "degree_bound",
    "robustness_lower_bound",
    "sample",
    "monte_carlo_moment",
    "exact_average",
    "closed_m2_uniform",
    "bound_general",
    "bound_e3_alpha",
    "counting_N",
    "counting_N_tau",
    "variance_bound",
    "concentration_check",
    "avg_m2_p",
    "solve_edge_budget",
    "closed_3complete",
    "closed_ncomplete",
    "reduced_spectrum",
]
