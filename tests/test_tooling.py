"""Names that tooling and users import must resolve.

`perfbench/tracer.py` wraps each name in `LAYERS` by looking it up at
install time, and the benchmark's correctness oracles and self-tests read
package names too, so a renamed or deleted function would only fail once a
benchmark run starts.  The package's `__all__` names production entry
points only; the oracles live in `hypermagic.verify` and the tests'
`conftest`, except those the benchmark reads, which stay in their modules.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_package_function():
    tracer = load_perfbench("tracer")
    assert "bitops.gf2_rank_fast" in tracer.LAYERS
    for layer in tracer.LAYERS:
        mod_name, fn_name = layer.split(".")
        fn = getattr(importlib.import_module(f"hypermagic.{mod_name}"), fn_name, None)
        assert callable(fn), f"{layer} names no function of the package"


def package_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every package name a file reads.

    Counts `from hypermagic.<module> import <name>`, `<module>.<name>` where
    `from hypermagic import <module>` bound the module, and `<alias>.<module>`
    and `<alias>.<module>.<name>` where the alias holds `import_program()`;
    a name of the package itself has the module "".
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}
    packages: set[str] = set()
    names: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hypermagic":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypermagic."):
            names.update((node.module.split(".", 1)[1], a.name) for a in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) == "import_program":
                packages.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            names.add((modules[base.id], node.attr))
        elif isinstance(base, ast.Name) and base.id in packages:
            names.add(("", node.attr))
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id in packages):
            names.add((base.attr, node.attr))
    return names


def test_every_name_the_benchmark_reads_resolves():
    importlib.import_module("hypermagic.cli")  # as perfbench's import_program() does
    for source in ("oracles.py", "selftest.py"):
        names = package_names(PERFBENCH / source)
        assert names, f"perfbench/{source} reads no package name; the parser missed them"
        for mod_name, name in sorted(names):
            path = ".".join(filter(None, ("hypermagic", mod_name)))
            module = importlib.import_module(path)
            assert hasattr(module, name), f"perfbench/{source} reads {path}.{name}"


# oracle -> the module that keeps it: `hypermagic.verify` for those a verify
# suite runs, the tests' `conftest` for those only tests run, and their own
# module for those the benchmark reads
ORACLES = {
    "star_trace_sum": "hypermagic.spectrum",
    "cross_masks": "hypermagic.hypergraph",
    "PauliIndex": "hypermagic.verify",
    "induced_full": "hypermagic.verify",
    "_one_edges_full": "hypermagic.verify",
    "trace_of_state": "hypermagic.verify",
    "StabilizerWord": "hypermagic.verify",
    "stabilizer_word": "hypermagic.verify",
    "_xor_permute_table": "hypermagic.verify",
    "apply_stabilizer": "hypermagic.verify",
    "component_direct": "hypermagic.verify",
    "component_induced": "hypermagic.verify",
    "COUNTING_STATE_BITS": "hypermagic.verify",
    "_valid_tvectors": "hypermagic.verify",
    "_counting_gate": "hypermagic.verify",
    "signature_histogram": "hypermagic.verify",
    "counting_N": "hypermagic.verify",
    "counting_N_tau": "hypermagic.verify",
    "moment_from_counting": "hypermagic.verify",
    "induced_star": "conftest",
    "odd_triples_bruteforce": "conftest",
    "_PAIR_ODD": "conftest",
    "_avg_m2_half_exact": "conftest",
}

# wrappers and helpers deleted outright
DELETED = {"sre_star", "METHOD_STAR", "phase_trace", "bits_to_table"}

PRODUCTION = ("bitops", "hypergraph", "phasestate", "spectrum", "magic", "ensembles", "symmetric")


def test_moved_oracles_resolve_only_from_their_new_home():
    for name, home in ORACLES.items():
        assert hasattr(importlib.import_module(home), name), f"{home} lost {name}"
    gone = DELETED | {name for name, home in ORACLES.items() if home not in
                      {f"hypermagic.{m}" for m in PRODUCTION}}
    for mod_name in PRODUCTION:
        module = importlib.import_module(f"hypermagic.{mod_name}")
        left = sorted(name for name in gone if hasattr(module, name))
        assert not left, f"hypermagic.{mod_name} still has {left}"


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
    assert not set(hypermagic.__all__) & {*ORACLES, *DELETED, "CompositionVector"}


def test_import_loads_no_process_pool():
    # a one-worker run never starts a pool, so importing the package must not load one
    probe = ("import sys, hypermagic, hypermagic.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_first_theory_block_passes_the_benchmark_oracles(capsys, monkeypatch):
    # a float drift in the composition sum that the benchmark would count as
    # a wrong output fails here first: the seed-11 block, through `cli.main`
    from hypermagic import cli

    for name in [k for k in os.environ if k.startswith("HYPERMAGIC_")]:
        monkeypatch.delenv(name)
    workloads, oracles = load_perfbench("workloads"), load_perfbench("oracles")
    (block,) = workloads.generate("theory", 11, 1)
    assert len(block) == 20 and {r.kind for r in block} == {"eval", "solve"}
    for req in block:
        assert cli.main(req.argv) == 0, req.argv
        stdout = capsys.readouterr().out
        assert oracles.check(req, stdout) is None, (req.argv, oracles.check(req, stdout))


def test_first_ensemble_block_passes_the_benchmark_oracles(capsys, monkeypatch):
    # a rank-kernel error that the benchmark would count as a wrong output
    # fails here first: the seed-11 block through `cli.main`, the rank class
    # checked by the oracles' own elimination, which pivots on the highest bit
    from hypermagic import cli

    for name in [k for k in os.environ if k.startswith("HYPERMAGIC_")]:
        monkeypatch.delenv(name)
    workloads, oracles = load_perfbench("workloads"), load_perfbench("oracles")
    (block,) = workloads.generate("ensemble-mc", 11, 1)
    classes = [r.cls for r in block]
    assert {c: classes.count(c) for c in classes} == {"rank": 15, "star": 3, "enum": 2}
    for req in block:
        assert cli.main(req.argv) == 0, req.argv
        stdout = capsys.readouterr().out
        assert oracles.check(req, stdout) is None, (req.argv, oracles.check(req, stdout))


def test_first_exact_block_passes_the_benchmark_oracles(capsys, monkeypatch, tmp_path):
    # a wrong moment on the Walsh, rank or Krawtchouk route that the
    # benchmark would count as a wrong output fails here first: the seed-11
    # block through `cli.main`, its graph files written as `run.py` writes them
    from hypermagic import cli

    for name in [k for k in os.environ if k.startswith("HYPERMAGIC_")]:
        monkeypatch.delenv(name)
    workloads, oracles = load_perfbench("workloads"), load_perfbench("oracles")
    (block,) = workloads.generate("exact-states", 11, 1)
    classes = [r.cls for r in block]
    assert {c: classes.count(c) for c in classes} == {"small": 24, "medium": 14, "large": 2}
    for i, req in enumerate(block):
        if req.graph is not None:
            path = tmp_path / f"g{i:05d}.hg"
            path.write_text(req.graph, encoding="utf-8")
            req.argv = [*req.argv, "--graph", str(path)]
        assert cli.main(req.argv) == 0, req.argv
        stdout = capsys.readouterr().out
        assert oracles.check(req, stdout) is None, (req.argv, oracles.check(req, stdout))
