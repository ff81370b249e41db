"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload generator is deterministic for a seed and keeps
its mix fixed across seeds, that the oracles' own routes agree with the
program's at small n, that a result corrupted on purpose is counted as a
failure (so the oracles are not vacuous), that the tracer's counts and self
times pass their self-checks, and that run.py emits exactly the metrics
BENCHMARK.json names.
"""

from __future__ import annotations

import csv
import io
import json
import unittest
from collections import Counter
from fractions import Fraction

import run
import tracer
import workloads

hm = run.import_program()

import oracles  # noqa: E402  (needs the program on sys.path)
from hypermagic import ensembles, spectrum  # noqa: E402

# the result column each kind's oracle relies on most
KEY_COLUMN = {"exact": "pl_moment_exact", "mc": "value", "enum": "value",
              "eval": "value", "solve": "sre_lower_bound"}


def tiny_requests() -> list[workloads.Request]:
    return [
        workloads._exact_graph("small", 4, [0b0011, 0b0111, 0b1110, 0b1111]),
        workloads._exact_graph("medium", 6, [0b000111, 0b011100, 0b110001, 0b101010]),
        workloads._exact_graph("medium", 6, [0b001111, 0b111100, 0b100111]),
        workloads._exact_builtin("medium", "3complete", 5),
        workloads._exact_builtin("large", "ncomplete", 6),
        workloads._mc("rank", 3, 0.5, 6, 3, 11),
        workloads._mc("star", 4, 0.5, 6, 2, 12),
        workloads._enum(0.5),
        workloads._enum(0.25),
        workloads._eval(10, 1001 / 4096),
        workloads._eval(14, 3001 / 4096),
        workloads._solve(8, 0.4),
    ]


def corrupt(kind: str, stdout: str) -> str:
    """Move the key result of an output by a little, keeping its format."""
    lines = stdout.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    rows = oracles.parse_rows(stdout)
    col = KEY_COLUMN[kind]
    if kind == "exact":
        rows[0][col] = str(Fraction(rows[0][col]) + Fraction(1, 2**80))
    else:
        rows[0][col] = repr(float(rows[0][col]) * (1 + 1e-8))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return "\n".join(head) + "\n" + buf.getvalue()


def execute(requests, workdir):
    """Write the graph files and run each request once."""
    workdir.mkdir(parents=True, exist_ok=True)
    for i, req in enumerate(requests):
        if req.graph is not None:
            path = workdir / f"t{i}.hg"
            path.write_text(req.graph, encoding="utf-8")
            req.argv = [*req.argv, "--graph", str(path)]
    return [(req, *run.run_request(hm.cli, req.argv)) for req in requests]


class Generators(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.WORKLOADS:
            a = workloads.generate(name, 7, 2)
            b = workloads.generate(name, 7, 2)
            c = workloads.generate(name, 8, 2)
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_mix_is_fixed_across_seeds(self):
        for name in workloads.WORKLOADS:
            mixes = {
                tuple(sorted(Counter((r.cls, r.meta.get("n")) for r in block).items()))
                for seed in (1, 2, 3)
                for block in workloads.generate(name, seed, 2)
            }
            self.assertEqual(len(mixes), 1, name)


class Oracles(unittest.TestCase):
    def test_own_routes_match_the_program(self):
        spec = ensembles.EnsembleSpec(3, 0.5, 7, 5)
        graphs = [ensembles.sample(spec, i) for i in range(3)]
        for alpha in (2, Fraction(1, 2)):
            self.assertEqual(oracles.batched_rank_moments(graphs, alpha),
                             [spectrum.rank_moment(g, alpha) for g in graphs])
        spec = ensembles.EnsembleSpec(4, 0.5, 6, 5)
        for i in range(3):
            g = ensembles.sample(spec, i)
            self.assertEqual(oracles.walsh_m2(g), ensembles.state_moment(g, 2))
        for n, p in ((5, Fraction(1, 3)), (6, Fraction(3, 4)), (7, 1001 / 4096)):
            self.assertEqual(oracles.exact_avg_m2(n, p), ensembles.avg_m2_p(n, p, method="exact"))

    def test_corrupted_results_count_as_failures(self):
        workdir = run.OUT / "work" / "selftest"
        try:
            outcomes = execute(tiny_requests(), workdir)
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
        _, failures = run.score(outcomes, run.Checker())
        self.assertEqual(failures, [])
        bad = [(req, rc, secs, corrupt(req.kind, out), err) for req, rc, secs, out, err in outcomes]
        _, failures = run.score(bad, run.Checker())
        self.assertEqual(sorted(f["index"] for f in failures), list(range(len(outcomes))))
        broken = workloads._exact_builtin("small", "nope", 3)
        rc, secs, out, err = run.run_request(hm.cli, broken.argv)
        _, failures = run.score([(broken, rc, secs, out, err)], run.Checker())
        self.assertEqual(len(failures), 1)
        self.assertIn("exit code 2", failures[0]["why"])


class Tracing(unittest.TestCase):
    def test_counts_repeat_match_closed_values_and_self_times_add_up(self):
        block = [r for r in tiny_requests() if r.kind != "solve"]
        block.append(workloads._solve(8, 0.35))
        workdir = run.OUT / "work" / "selftest-trace"
        try:
            execute(block, workdir)  # writes graph files, fills argv
            passes = [run._traced_pass(hm, block) for _ in range(2)]
        finally:
            run.shutil.rmtree(workdir, ignore_errors=True)
        (t1, out1, _, c1), (t2, out2, _, c2) = passes
        self.assertEqual([o[2] for o in out1], [o[2] for o in out2])
        checks = run.self_checks(block, t1, run._counts(t1, c1), run._counts(t2, c2))
        self.assertEqual(checks, [])
        stats = t1.stats()
        self.assertGreater(stats["spectrum.full_spectrum.rows"], 0)
        self.assertGreater(stats["spectrum.rank_histogram.rows"], 0)
        self.assertGreater(stats["spectrum.star_trace_sum.rows"], 0)
        self.assertGreater(stats["ensembles.solve_edge_budget.evals_per_solve"], 0)
        # uninstall restored every binding
        self.assertIs(hm.spectrum.fwht, hm.bitops.fwht)
        self.assertFalse(hasattr(hm.bitops.fwht, "__wrapped__"))

    def test_a_missed_binding_breaks_a_closed_value(self):
        block = [workloads._exact_graph("small", 4, [0b0111, 0b1111])]
        workdir = run.OUT / "work" / "selftest-miss"
        original = hm.spectrum.fwht
        try:
            execute(block, workdir)
            t = tracer.Tracer()
            t.install()
            hm.spectrum.fwht = original  # as if the wrapper had missed this binding
            try:
                run.run_request(hm.cli, block[0].argv)
            finally:
                t.uninstall()
        finally:
            hm.spectrum.fwht = original
            run.shutil.rmtree(workdir, ignore_errors=True)
        counts = run._counts(t, hm.bitops.superset_table.cache_info())
        checks = run.self_checks(block, t, counts, counts)
        self.assertTrue(any(c.startswith("bitops.fwht.calls") for c in checks), checks)


class Contract(unittest.TestCase):
    def test_emitted_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run._per_layer_spec())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
