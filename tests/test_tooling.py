"""Names that tooling and users import must resolve.

`perfbench/tracer.py` wraps each name in `LAYERS` by looking it up at
install time, so a renamed or deleted function would only fail once a
traced benchmark run starts.  The package's `__all__` names production
entry points only; the oracles stay importable from their own modules.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_traced_layer_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "bitops.gf2_rank_fast" in tracer.LAYERS
    for layer in tracer.LAYERS:
        mod_name, fn_name = layer.split(".")
        fn = getattr(importlib.import_module(f"hypermagic.{mod_name}"), fn_name, None)
        assert callable(fn), f"{layer} names no function of the package"


# oracle -> the module that keeps it
ORACLES = {
    "star_trace_sum": "spectrum",
    "sre_star": "magic",
    "component_induced": "spectrum",
    "induced_star": "hypergraph",
}


# the names that `exact`, `ensemble`, `sweep` and the README quick start reach,
# plus the types they return
PUBLIC = {
    "__version__", "BudgetError", "Hypergraph", "DegreeProfile", "PhaseState",
    "PauliSpectrum", "MagicReport", "EnsembleSpec", "MomentEstimate",
    "build", "from_masks", "from_text", "c_complete", "empty", "degree_profile",
    "from_hypergraph", "full_spectrum", "pl_moment", "sre", "degree_bound",
    "sample", "monte_carlo_moment", "exact_average", "bound_general", "avg_m2_p",
    "solve_edge_budget",
}


def test_public_names_resolve_and_exclude_oracles():
    import hypermagic

    assert len(hypermagic.__all__) == len(PUBLIC)
    assert set(hypermagic.__all__) == PUBLIC
    for name in hypermagic.__all__:
        assert hasattr(hypermagic, name), f"{name} is in __all__ but not in the package"
    assert not set(hypermagic.__all__) & {*ORACLES, "CompositionVector"}
    for name, mod_name in ORACLES.items():
        assert callable(getattr(importlib.import_module(f"hypermagic.{mod_name}"), name))


def test_import_loads_no_process_pool():
    # a one-worker run never starts a pool, so importing the package must not load one
    probe = ("import sys, hypermagic, hypermagic.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
