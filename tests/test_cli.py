"""Command-line behaviour: values, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hypermagic import bitops, cli, ensembles, hypergraph, phasestate, spectrum, symmetric
from hypermagic.cli import main, parse_builtin
from hypermagic.hypergraph import build, c_complete, from_masks, to_text
from hypermagic.symmetric import closed_ncomplete


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Wrap module.name, and every package module's import of it, so that
    every call adds one to the returned counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "hypermagic":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def with_z_edge(tmp_path, g) -> list[str]:
    """--graph argv for g plus the single-vertex edge {1}.

    That edge is a Z gate, so every |W| and every moment is unchanged, and
    g is no longer a union of complete layers: the request takes the route
    of a general graph, not the Krawtchouk route of a symmetric one.
    """
    path = tmp_path / "z_edge.hg"
    path.write_text(to_text(from_masks(g.n, [*g.edges, 1])))
    return ["--graph", str(path)]


def uniform3_n13():
    """A fixed pseudo-random 3-uniform graph on 13 vertices (114 edges)."""
    n = 13
    masks = [sum(1 << v for v in c) for c in combinations(range(n), 3)
             if (7 * c[0] + 11 * c[1] + 13 * c[2]) % 5 < 2]
    return from_masks(n, masks)


GOLDEN_HEADER = "# hypermagic 0.1.0\n# command: exact\n# seed: 20240517\n"
GOLDEN_COLUMNS = "alpha,pl_moment,pl_moment_exact,sre,method,degree_bound\n"
# stdout of `exact --alpha 2,1/2,1/3,3`, recorded before the Walsh kernel
# replaced the per-alpha full spectrum; {graph} stands for the graph file path
GOLDEN_EXACT = {
    "ccz": (
        "# flags: alpha=2,1/2,1/3,3 edges=1 graph=ccz n=3\n"
        "2,0.34375,11/32,1.5405683813627027,direct-spectrum,2.9328965609146365\n"
        "1/2,1.875,15/8,1.8137811912170374,direct-spectrum,\n"
        "1/3,2.3298618373160283,,1.830366606656887,direct-spectrum,\n"
        "3,0.1796875,23/128,1.2382190219714935,direct-spectrum,1.4978877084107873\n"
    ),
    "3complete:9": (
        "# flags: alpha=2,1/2,1/3,3 edges=84 graph=3complete:9 n=9\n"
        "2,0.12841796875,263/2048,2.961081010707698,direct-spectrum,8.999999226078094\n"
        "1/2,8.998046875,4607/512,6.339223765208423,direct-spectrum,\n"
        "1/3,21.41568940661169,,6.630894323420147,direct-spectrum,\n"
        "3,0.03308868408203125,4337/131072,2.4587591360684486,direct-spectrum,4.499999999994095\n"
    ),
    "ncomplete:10": (
        "# flags: alpha=2,1/2,1/3,3 edges=1 graph=ncomplete:10 n=10\n"
        "2,0.9844816030235961,8456632577/8589934592,0.022563848104987017,direct-spectrum,"
        "9.999999892510843\n"
        "1/2,2.9902420043945312,391937/131072,3.1605244968811093,direct-spectrum,\n"
        "1/3,13.659424605160142,,5.657737210734332,direct-spectrum,\n"
        "3,0.9768128590587857,274948376754241/281474976710656,0.016922951182419155,"
        "direct-spectrum,4.999999999999795\n"
    ),
    "uniform3:13": (
        "# flags: alpha=2,1/2,1/3,3 edges=114 graph={graph} n=13\n"
        "2,0.0009150505065917969,1919/2097152,10.09386100380462,rank-class,12.999999999727079\n"
        "1/2,44.0245361328125,360649/8192,10.920471795960758,rank-class,\n"
        "1/3,160.1700236343224,,10.985190536237608,rank-class,\n"
        "3,0.00012324520503170788,4234673/34359738368,6.493090430617325,rank-class,6.5\n"
    ),
}

# stdout of `exact --alpha 2,1/2,1/3,3` for 3complete:10 plus the Z edge {1},
# recorded when c <= 3 graphs within the spectrum budget took the Walsh kernel
GOLDEN_EXACT_SMALL_C3 = (
    "# flags: alpha=2,1/2,1/3,3 edges=121 graph={graph} n=10\n"
    "2,0.12841796875,263/2048,2.961081010707698,direct-spectrum,9.999999892510843\n"
    "1/2,8.998046875,4607/512,6.339223765208423,direct-spectrum,\n"
    "1/3,21.41568940661169,,6.630894323420147,direct-spectrum,\n"
    "3,0.03308868408203125,4337/131072,2.4587591360684486,direct-spectrum,4.999999999999795\n"
)

# stdout of `exact --builtin ncomplete:8 --alpha 2,1/2,3` with the spectrum
# budget at 4, recorded when c >= 4 states above the budget took the star
# route (label star-trace, now direct-spectrum)
GOLDEN_NCOMPLETE8_ROWS = (
    "2,0.9391956627368927,31514177/33554432,0.09050234887809339,{method},7.999994496556485\n"
    "1/2,2.9610595703125,24257/8192,3.13222702961583,{method},\n"
    "3,0.9101889061421389,62547705361/68719476736,0.06788104639745285,{method},"
    "3.999999999832048\n"
)

GOLDEN_ENSEMBLE_HEADER = "# hypermagic 0.1.0\n# command: ensemble\n# seed: 20240517\n"
GOLDEN_ENSEMBLE_COLUMNS = "c,p,n,alpha,method,value,stderr,samples,bound_upper,sre_lower_bound\n"
# stdout of `ensemble ... --alpha 2,1/2`, recorded when samples took the
# per-mask rank loop (c = 3) and the star trace sum (c = 4)
GOLDEN_ENSEMBLE = {
    ("-c", "3", "-n", "12", "--samples", "8"): (
        "# flags: alpha=2,1/2 c=3 exact=False jobs=1 n=12 p=0.5 samples=8 theory=False\n"
        "3,0.5,12,2,monte-carlo,0.0016911029815673828,1.3110854229800719e-05,8,0.5,"
        "9.207819767745193\n"
        "3,0.5,12,1/2,monte-carlo,29.4921875,0.06219455468116582,8,,\n"
    ),
    ("-c", "4", "-n", "10", "--samples", "2"): (
        "# flags: alpha=2,1/2 c=4 exact=False jobs=1 n=10 p=0.5 samples=2 theory=False\n"
        "4,0.5,10,2,monte-carlo,0.006850600242614746,7.510185241699218e-06,2,4.0,"
        "7.189553883580902\n"
        "4,0.5,10,1/2,monte-carlo,17.86029052734375,0.0015869140624999998,2,,\n"
    ),
}
# stdout of `ensemble -c 3 -p 0.25 -n 5 --exact --alpha 2,1/2,3`, recorded
# when the enumeration ranked one graph per call
GOLDEN_ENUM = (
    "# flags: alpha=2,1/2,3 c=3 exact=True jobs=1 n=5 p=0.25 samples=None theory=False\n"
    "3,0.25,5,2,exact-enumeration,0.30135250091552734,,,64.0,1.7304760571616775\n"
    "3,0.25,5,1/2,exact-enumeration,2.3547472953796387,,,,\n"
    "3,0.25,5,3,exact-enumeration,0.1692012920975685,,,1073741824.0,1.2815937546579033\n"
)


class TestBuiltins:
    def test_aliases(self):
        assert parse_builtin("ccz") == build(3, [(1, 2, 3)])
        assert parse_builtin("triangle") == build(3, [(1, 2), (2, 3), (1, 3)])
        assert parse_builtin("empty:4").edges == ()
        assert parse_builtin("3complete:5") == c_complete(5, 3)
        assert parse_builtin("ncomplete:4") == c_complete(4, 4)

    def test_unknown_builtin_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--builtin", "nope", "--alpha", "2")
        assert code == 2
        assert "unknown builtin" in err


class TestExact:
    def test_ccz_alpha2(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--builtin", "ccz", "--alpha", "2")
        assert code == 0
        row = data_rows(out)[1]
        fields = row.split(",")
        assert fields[2] == "11/32"
        assert math.isclose(float(fields[3]), math.log2(32 / 11), rel_tol=1e-12)

    def test_empty_graph_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--builtin", "empty:5", "--alpha", "0.5,2,3")
        assert code == 0
        for row in data_rows(out)[1:]:
            assert float(row.split(",")[3]) == 0.0

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "fig1.hg"
        path.write_text(to_text(build(6, [(1, 2, 3), (3, 5, 6), (1, 4), (5,)])))
        code, out, _ = run_cli(capsys, "exact", "--graph", str(path), "--alpha", "2")
        assert code == 0
        fields = data_rows(out)[1].split(",")
        sre_val, bound = float(fields[3]), float(fields[5])
        assert 0.0 < sre_val <= bound

    def test_bad_graph_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3\n1 9\n")
        code, _, err = run_cli(capsys, "exact", "--graph", str(path), "--alpha", "2")
        assert code == 2
        assert "parse" in err

    def test_budget_exceeded_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "exact", *with_z_edge(tmp_path, c_complete(30, 30)),
                               "--alpha", "2")
        assert code == 4
        assert "budget" in err.lower()

    def test_missing_graph_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "exact", "--alpha", "2")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--builtin", "ccz", "--alpha", "2,1/3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["pl_moment_exact"] == "11/32"
        assert payload["rows"][1]["pl_moment_exact"] is None  # an empty CSV cell

    def test_spectrum_dump(self, capsys, tmp_path):
        dump = tmp_path / "ccz_spectrum.csv"
        code, _, _ = run_cli(
            capsys, "exact", "--builtin", "ccz", "--alpha", "2",
            "--dump-spectrum", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == f"# denominator 4^n = {4**3}"
        assert len(lines) == 2 + 64

    def test_spectrum_dump_above_budget_writes_no_file(self, capsys, tmp_path):
        dump = tmp_path / "big.csv"
        code, out, err = run_cli(capsys, "exact", "--builtin", "ncomplete:13", "--alpha", "2",
                                 "--dump-spectrum", str(dump))
        assert (code, out) == (4, "")
        assert "full Pauli spectrum at n=13 exceeds the budget of 12 qubits" in err
        assert not dump.exists()

    @pytest.mark.parametrize("graph", ["ncomplete", "four-edge"])
    def test_spectrum_dump_beyond_kernel_exit_4_before_any_table(self, capsys, monkeypatch,
                                                                 tmp_path, graph):
        # within the raised spectrum budget, past the Walsh kernel: refused
        # before the phase table is built or the dump file is opened
        dump = tmp_path / "old.csv"
        dump.write_text("kept\n")
        tables = count_calls(monkeypatch, phasestate, "from_hypergraph")
        source = (["--builtin", "ncomplete:25"] if graph == "ncomplete"
                  else with_z_edge(tmp_path, from_masks(25, [0b1111 << 7, 0b111])))
        code, out, err = run_cli(capsys, "exact", *source, "--budget", "30", "--alpha", "2",
                                 "--dump-spectrum", str(dump))
        assert (code, out) == (4, "")
        assert err == ("budget exceeded: Walsh spectrum at n=25 refused: the float32 Walsh "
                       "kernel is exact only up to n=24\n")
        assert dump.read_text() == "kept\n"
        assert tables[0] == 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_EXACT))
    def test_golden_stdout(self, capsys, tmp_path, name):
        if name == "uniform3:13":
            path = tmp_path / "uniform3_13.hg"
            path.write_text(to_text(uniform3_n13()))
            source = ["--graph", str(path)]
        else:
            path = None
            source = ["--builtin", name]
        code, out, _ = run_cli(capsys, "exact", *source, "--alpha", "2,1/2,1/3,3")
        assert code == 0
        flags, rows = GOLDEN_EXACT[name].split("\n", 1)
        expected = GOLDEN_HEADER + flags.format(graph=path) + "\n" + GOLDEN_COLUMNS + rows
        assert out == expected

    def test_direct_route_runs_walsh_kernel_once(self, capsys, monkeypatch, tmp_path):
        walsh = count_calls(monkeypatch, spectrum, "walsh_half_blocks")
        full = count_calls(monkeypatch, spectrum, "full_spectrum")
        fwht = count_calls(monkeypatch, spectrum, "fwht")
        code, out, _ = run_cli(capsys, "exact", *with_z_edge(tmp_path, c_complete(10, 4)),
                               "--alpha", "2,1/2,3")
        assert code == 0
        assert [r.split(",")[4] for r in data_rows(out)[1:]] == ["direct-spectrum"] * 3
        assert (walsh[0], full[0], fwht[0]) == (1, 0, 0)

    def test_golden_stdout_small_c3_graph(self, capsys, tmp_path):
        source = with_z_edge(tmp_path, c_complete(10, 3))
        code, out, _ = run_cli(capsys, "exact", *source, "--alpha", "2,1/2,1/3,3")
        assert code == 0
        flags, rows = GOLDEN_EXACT_SMALL_C3.split("\n", 1)
        assert out == GOLDEN_HEADER + flags.format(graph=source[1]) + "\n" + GOLDEN_COLUMNS + rows

    @pytest.mark.parametrize("graph, kernel", [
        (from_masks(10, [*c_complete(10, 3).edges, 1]), "rank_histogram"),
        (from_masks(8, [*c_complete(8, 3).edges, 0b1111]), "walsh_half_blocks"),
        (c_complete(10, 3), "reduced_traces"),
    ], ids=["rank", "walsh", "krawtchouk"])
    def test_exact_and_state_moment_run_the_same_one_kernel(self, capsys, monkeypatch, tmp_path,
                                                           graph, kernel):
        path = tmp_path / "graph.hg"
        path.write_text(to_text(graph))
        calls = {name: count_calls(monkeypatch, module, name) for module, name in
                 ((spectrum, "rank_histogram"), (spectrum, "walsh_half_blocks"),
                  (symmetric, "reduced_traces"))}
        code, out, _ = run_cli(capsys, "exact", "--graph", str(path), "--alpha", "2")
        assert code == 0
        by_exact = {name: c[0] for name, c in calls.items()}
        moment = ensembles.state_moment(graph, 2)
        by_state_moment = {name: c[0] - by_exact[name] for name, c in calls.items()}
        want = {name: int(name == kernel) for name in calls}
        assert (by_exact, by_state_moment) == (want, want)
        assert data_rows(out)[1].split(",")[2] == str(moment)

    def test_one_degree_profile_per_request(self, capsys, monkeypatch):
        profiles = count_calls(monkeypatch, hypergraph, "degree_profile")
        code, out, _ = run_cli(capsys, "exact", "--builtin", "3complete:12", "--alpha", "2,3,4")
        assert code == 0
        assert all(r.split(",")[5] for r in data_rows(out)[1:])
        assert profiles[0] == 1

    def test_one_layer_check_per_symmetric_request(self, capsys, monkeypatch):
        checks = count_calls(monkeypatch, symmetric, "complete_layer_sizes")
        code, _, _ = run_cli(capsys, "exact", "--builtin", "3complete:12", "--alpha", "2,1/2")
        assert code == 0
        assert checks[0] == 1

    def test_rank_route_builds_one_histogram(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "uniform3_13.hg"
        path.write_text(to_text(uniform3_n13()))
        ranks = count_calls(monkeypatch, spectrum, "rank_histogram")
        walsh = count_calls(monkeypatch, spectrum, "walsh_half_blocks")
        code, out, _ = run_cli(capsys, "exact", "--graph", str(path), "--alpha", "2,1/2,3")
        assert code == 0
        assert [r.split(",")[4] for r in data_rows(out)[1:]] == ["rank-class"] * 3
        assert (ranks[0], walsh[0]) == (1, 0)

    @pytest.mark.parametrize("name, method", [("3complete:12", "direct-spectrum"),
                                              ("3complete:13", "rank-class")])
    def test_symmetric_route_builds_no_phase_table(self, capsys, monkeypatch, name, method):
        krawtchouk = count_calls(monkeypatch, symmetric, "reduced_traces")
        walsh = count_calls(monkeypatch, spectrum, "walsh_half_blocks")
        ranks = count_calls(monkeypatch, spectrum, "rank_histogram")
        tables = count_calls(monkeypatch, phasestate, "from_hypergraph")
        code, out, _ = run_cli(capsys, "exact", "--builtin", name, "--alpha", "2,1/2,3")
        assert code == 0
        # the label of the route the state took before, so the output is unchanged
        assert [r.split(",")[4] for r in data_rows(out)[1:]] == [method] * 3
        assert (krawtchouk[0], walsh[0], ranks[0], tables[0]) == (1, 0, 0, 0)

    def test_symmetric_route_past_the_kernel_and_its_limit(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--builtin", "ncomplete:30", "--alpha", "2,1/2")
        assert code == 0
        exact = [r.split(",")[2] for r in data_rows(out)[1:]]
        assert exact == [str(closed_ncomplete(30, 2)), str(closed_ncomplete(30, Fraction(1, 2)))]
        code, out, err = run_cli(capsys, "exact", "--builtin", "ncomplete:63", "--alpha", "2")
        assert (code, out) == (4, "")
        assert "exact only up to n=62" in err

    def test_spectrum_dump_builds_one_table(self, capsys, monkeypatch, tmp_path):
        dump = tmp_path / "spectrum.csv"
        walsh = count_calls(monkeypatch, spectrum, "walsh_half_blocks")
        full = count_calls(monkeypatch, spectrum, "full_spectrum")
        code, out, _ = run_cli(capsys, "exact", "--builtin", "ccz", "--alpha", "2,1/2,1/3,3",
                               "--dump-spectrum", str(dump))
        assert code == 0
        assert walsh[0] == 1
        assert full[0] == 0  # streamed: no 4^n table
        assert data_rows(out)[1:] == GOLDEN_EXACT["ccz"].splitlines()[1:]

    def test_large_edges_above_budget_run_walsh_kernel_once(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("HYPERMAGIC_SPECTRUM_BUDGET", "4")
        walsh = count_calls(monkeypatch, spectrum, "walsh_half_blocks")
        star = count_calls(monkeypatch, spectrum, "star_trace_sum")
        code, out, _ = run_cli(capsys, "exact", *with_z_edge(tmp_path, c_complete(8, 8)),
                               "--alpha", "2,1/2,3")
        assert code == 0
        rows = "\n".join(data_rows(out)[1:]) + "\n"
        assert rows == GOLDEN_NCOMPLETE8_ROWS.format(method="direct-spectrum")
        assert (walsh[0], star[0]) == (1, 0)

    def test_large_edges_beyond_kernel_exit_4_before_any_table(self, capsys, monkeypatch,
                                                                tmp_path):
        tables = count_calls(monkeypatch, phasestate, "from_hypergraph")
        star = count_calls(monkeypatch, spectrum, "star_trace_sum")
        code, _, err = run_cli(capsys, "exact", *with_z_edge(tmp_path, c_complete(25, 25)),
                               "--alpha", "2")
        assert code == 4
        assert "exact only up to n=24" in err
        assert (tables[0], star[0]) == (0, 0)

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMAGIC_JOBS", "2")
        code, out, _ = run_cli(
            capsys, "ensemble", "-c", "3", "-p", "0.5", "-n", "6",
            "--samples", "8", "--alpha", "2", "--seed", "3",
        )
        assert code == 0
        assert "jobs=2" in out

    def test_jobs_env_read_on_every_call(self, capsys, monkeypatch):
        argv = ("ensemble", "-c", "3", "-n", "4", "--exact", "--alpha", "2")
        monkeypatch.delenv("HYPERMAGIC_JOBS", raising=False)
        code, first, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("HYPERMAGIC_JOBS", "3")
        code2, second, _ = run_cli(capsys, *argv)
        assert (code, code2) == (0, 0)
        assert " jobs=1 " in first and " jobs=3 " in second
        assert data_rows(first) == data_rows(second)

    def test_bad_jobs_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMAGIC_JOBS", "abc")
        code, out, err = run_cli(capsys, "exact", "--builtin", "ccz")
        assert code == 2
        assert err == "error: HYPERMAGIC_JOBS must be an integer, got 'abc'\n"
        assert out == ""
        # an explicit --jobs does not read the variable
        code, out, _ = run_cli(capsys, "exact", "--builtin", "ccz", "--jobs", "1")
        assert code == 0 and "11/32" in out

    @pytest.mark.parametrize("env, flag, got", [
        ("0", (), "got 0"), ("-4", (), "got -4"),
        ("2", ("--jobs", "0"), "got 0"), ("2", ("--jobs", "-3"), "got -3"),
    ], ids=["env-0", "env-negative", "flag-0", "flag-negative"])
    @pytest.mark.parametrize("argv", [("exact", "--builtin", "ccz"),
                                      ("ensemble", "-n", "4", "--exact"),
                                      ("sweep", "--gamma", "0.5"),
                                      ("verify", "bounds")], ids=lambda a: a[0])
    def test_jobs_below_one_is_usage_error(self, capsys, monkeypatch, env, flag, got, argv):
        monkeypatch.setenv("HYPERMAGIC_JOBS", env)
        code, out, stderr = run_cli(capsys, *argv, *flag)
        assert (code, out) == (2, "")
        assert stderr == f"error: --jobs and HYPERMAGIC_JOBS must be at least 1, {got}\n"

    def test_bad_budget_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERMAGIC_SPECTRUM_BUDGET", "1.5")
        code, out, err = run_cli(capsys, "exact", "--builtin", "ccz")
        assert code == 2
        assert err == "error: HYPERMAGIC_SPECTRUM_BUDGET must be an integer, got '1.5'\n"
        assert out == ""

    def test_huge_alpha_exits_4_before_the_power_sum(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "exact", "--builtin", "ccz", "--alpha", "100000")
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == ""
        assert "600003-bit denominator" in err and f"{spectrum.EXACT_MOMENT_MAX_BITS} bits" in err
        # n (2 alpha + 1) = 62 * 201 = 12,462 bits: under the bound, printed in full
        code, out, _ = run_cli(capsys, "exact", "--builtin", "ncomplete:62", "--alpha", "100")
        assert code == 0
        _, row = data_rows(out)
        assert Fraction(row.split(",")[2]) == ensembles.state_moment(c_complete(62, 62), 100)

    def test_budget_env_override(self, capsys, monkeypatch, tmp_path):
        source = with_z_edge(tmp_path, c_complete(4, 4))
        monkeypatch.setenv("HYPERMAGIC_SIM_BUDGET", "2")
        code, _, err = run_cli(capsys, "exact", *source, "--alpha", "2")
        assert code == 4 and "budget" in err.lower()
        monkeypatch.setenv("HYPERMAGIC_SIM_BUDGET", "26")
        code, _, _ = run_cli(capsys, "exact", *source, "--alpha", "2")
        assert code == 0


class TestEnsembleCmd:
    def test_exact_n4(self, capsys):
        code, out, _ = run_cli(
            capsys, "ensemble", "-c", "3", "-p", "0.5", "-n", "4", "--exact", "--alpha", "2"
        )
        assert code == 0
        assert float(data_rows(out)[1].split(",")[5]) == 0.384765625

    def test_theory_matches_closed_form_n30(self, capsys):
        from hypermagic.ensembles import closed_m2_uniform

        code, out, _ = run_cli(
            capsys, "ensemble", "-c", "3", "-p", "0.5", "-n", "30", "--theory", "--alpha", "2"
        )
        assert code == 0
        value = float(data_rows(out)[1].split(",")[5])
        assert math.isclose(value, float(closed_m2_uniform(30)), rel_tol=1e-12)

    def test_theory_runs_one_evaluation(self, capsys, monkeypatch):
        evals = count_calls(monkeypatch, ensembles, "_avg_m2_log")
        code, out, _ = run_cli(capsys, "ensemble", "-c", "3", "-p", repr(1001 / 4096), "-n", "16",
                               "--theory", "--alpha", "2")
        assert code == 0
        assert data_rows(out)[1].split(",")[4] == "theory"
        assert evals[0] == 1

    def test_monte_carlo_json_schema(self, capsys):
        argv = ["ensemble", "-c", "3", "-p", "0.5", "-n", "6", "--samples", "16",
                "--alpha", "2,1/2", "--seed", "7"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["provenance"] == {"version": "0.1.0", "command": "ensemble", "seed": 7}
        # the same rows as the CSV output, one per alpha, keyed by its columns
        code, out, _ = run_cli(capsys, *argv)
        columns, *lines = data_rows(out)
        assert [list(row) for row in payload["rows"]] == [columns.split(",")] * 2
        for row, line in zip(payload["rows"], lines, strict=True):
            assert ",".join("" if v is None else str(v) for v in row.values()) == line
        assert [row["samples"] for row in payload["rows"]] == [16, 16]

    @pytest.mark.parametrize("argv", sorted(GOLDEN_ENSEMBLE), ids=lambda a: f"c{a[1]}-n{a[3]}")
    def test_samples_golden_stdout_without_per_mask_routes(self, capsys, monkeypatch, argv):
        ranks = count_calls(monkeypatch, bitops, "gf2_rank_fast")
        star = count_calls(monkeypatch, spectrum, "star_trace_sum")
        code, out, _ = run_cli(capsys, "ensemble", *argv, "--alpha", "2,1/2")
        assert code == 0
        flags, rows = GOLDEN_ENSEMBLE[argv].split("\n", 1)
        assert out == GOLDEN_ENSEMBLE_HEADER + flags + "\n" + GOLDEN_ENSEMBLE_COLUMNS + rows
        assert (ranks[0], star[0]) == (0, 0)

    def test_exact_golden_stdout_without_per_graph_ranks(self, capsys, monkeypatch):
        per_graph = count_calls(monkeypatch, spectrum, "rank_histogram")
        code, out, _ = run_cli(capsys, "ensemble", "-c", "3", "-p", "0.25", "-n", "5", "--exact",
                               "--alpha", "2,1/2,3")
        assert code == 0
        flags, rows = GOLDEN_ENUM.split("\n", 1)
        assert out == GOLDEN_ENSEMBLE_HEADER + flags + "\n" + GOLDEN_ENSEMBLE_COLUMNS + rows
        assert per_graph[0] == 0

    @pytest.mark.parametrize("argv", [
        ("-c", "2", "--exact", "--alpha", "2"),
        ("-c", "2", "--exact", "--alpha", "1/2"),
        ("-c", "1", "--exact", "--alpha", "1/2"),
        ("-c", "2", "--theory", "--alpha", "2"),
        ("-c", "2", "--samples", "4", "--alpha", "2"),
        ("-c", "6", "--samples", "4", "--alpha", "1/2"),
    ], ids=lambda a: "-".join(a[:3]).lstrip("-") + "-" + a[-1].replace("/", "_"))
    def test_edge_size_outside_3_to_n_is_one_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "ensemble", "-n", "5", *argv)
        assert (code, out) == (2, "")
        c = argv[1]
        assert err == f"error: need 3 <= c <= n, got c={c}, n=5\n"

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "ensemble", "-n", "4", "--exact", "--theory", "--alpha", "2"
        )
        assert code == 2

    def test_zero_samples_is_refused_as_too_few(self, capsys):
        # --samples 0 counts as a mode: the error names the sample count
        code, out, err = run_cli(capsys, "ensemble", "-n", "4", "--samples", "0", "--alpha", "2")
        assert (code, out) == (2, "")
        assert err == "error: need at least two samples for a standard error\n"
        code, out, err = run_cli(capsys, "ensemble", "-n", "4", "--samples", "0", "--exact")
        assert (code, out) == (2, "")
        assert err == "error: choose exactly one of --samples, --exact, --theory\n"

    def test_invalid_probability(self, capsys):
        code, _, _ = run_cli(
            capsys, "ensemble", "-n", "4", "-p", "1.5", "--exact", "--alpha", "2"
        )
        assert code == 2


class TestSweep:
    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "0.5", "--n-range", "")
        assert code == 0
        rows = data_rows(out)
        assert rows == ["n,gamma,p,expected_edges,sre_lower_bound,status,method"]

    def test_small_reachable_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "0.5", "--n-range", "8:12:4")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert all(r[5] == "ok" for r in rows)
        ps = [float(r[2]) for r in rows]
        assert ps[1] < ps[0]  # needed probability falls with n at fixed gamma

    def test_one_evaluation_per_solver_step(self, capsys, monkeypatch):
        evals = count_calls(monkeypatch, ensembles, "_avg_m2_log")
        points = []
        neg_log2_avg = ensembles._neg_log2_avg

        def recorded(n, p):
            points.append(p)
            return neg_log2_avg(n, p)

        monkeypatch.setattr(ensembles, "_neg_log2_avg", recorded)
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "0.45", "--n-range", "9")
        assert code == 0
        assert data_rows(out)[1].split(",")[5] == "ok"
        # the p = 1/2 cap is exact; every solver step inside (0, 1/2) is one evaluation
        steps = [p for p in points if 0.0 < p < 0.5]
        assert points.count(0.5) == 1 and len(steps) == len(points) - 1
        assert evals[0] == len(steps) > 0

    def test_gamma_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "0.3,0.5", "--n-range", "10")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        by_gamma = {float(r[1]): float(r[3]) for r in rows}
        assert by_gamma[0.3] < by_gamma[0.5]

    def test_unreachable_rows_reported(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gamma", "0.999", "--n-range", "50:100:50")
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert all(r[5] == "unreachable" for r in rows)
        assert "undefined" in out  # slope comment survives

    def test_bad_gamma(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--gamma", "1.5", "--n-range", "8")
        assert code == 2


class TestVerifyCmd:
    def test_counting_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counting")
        assert code == 0
        assert "PASS counting N(3,2,3)" in out
        assert "FAIL" not in out

    def test_symmetric_suite_checks_the_krawtchouk_route(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "verify", "symmetric")
        assert code == 0
        assert "PASS 3-complete Krawtchouk route n=3..40" in out
        assert "PASS n-complete Krawtchouk route n=2..40" in out
        # the counts of a stabilizer state, whose moment is 1 at every alpha
        monkeypatch.setattr(symmetric, "reduced_magnitudes", lambda g, layers=None: {2**g.n: 2**g.n})
        code, out, _ = run_cli(capsys, "verify", "symmetric")
        assert code == 3
        assert "FAIL 3-complete Krawtchouk route" in out and "FAIL n-complete Krawtchouk" in out

    @pytest.mark.parametrize("flag,message", [("--n", "need 3 <= c <= n, got c=3, n=0"),
                                              ("--samples", "need at least one sample")])
    def test_concentration_zero_override_is_refused(self, capsys, flag, message):
        # a zero override reaches the check; it does not fall back to the default
        code, out, err = run_cli(capsys, "verify", "concentration", flag, "0")
        assert code == 2
        assert message in err
        assert out == ""

    def test_symmetric_suite_counts_each_state_once(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, symmetric, "reduced_magnitudes")
        code, _, _ = run_cli(capsys, "verify", "symmetric")
        assert code == 0
        assert calls[0] == (40 - 3 + 1) + (40 - 2 + 1)  # 3-complete and n-complete states

    def test_concentration_negative_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "concentration", "--n", "-3")
        assert code == 2
        assert "need 3 <= c <= n, got c=3, n=-3" in err
        assert out == ""

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        from hypermagic import verify as verify_mod

        def broken():
            return [verify_mod.CheckResult("forced", False, "synthetic failure")]

        monkeypatch.setitem(verify_mod.SUITES, "prop1", broken)
        code, out, _ = run_cli(capsys, "verify", "prop1")
        assert code == 3
        assert "FAIL forced" in out

    @pytest.mark.parametrize("flag", ["--output", "--format", "--budget"])
    def test_flags_it_does_not_read_are_refused(self, capsys, tmp_path, flag):
        target = tmp_path / "verdicts.txt"
        value = {"--output": str(target), "--format": "json", "--budget": "8"}[flag]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "counting", flag, value])
        assert exc.value.code == 2
        assert not target.exists()
        assert capsys.readouterr().out == ""


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["ensemble", "-c", "3", "-p", "0.5", "-n", "6", "--samples", "24",
                "--alpha", "2", "--seed", "11"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2), "--jobs", "2"]) == 0
        capsys.readouterr()
        a, b = out1.read_bytes(), out2.read_bytes()
        # jobs flag differs in the header; data rows must be identical
        assert a.splitlines()[4:] == b.splitlines()[4:]
        assert main(argv + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


SRC = Path(__file__).resolve().parent.parent / "src"


class TestParserReuse:
    """One parser serves every `main` call of a process."""

    def test_built_once_over_many_calls(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["exact", "--builtin", "ccz"], ["sweep", "--gamma", "0.5"],
                     ["verify", "counting"], ["exact", "--builtin", "empty:3"]):
            main(argv)
        capsys.readouterr()
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser.cache_info().hits == 3

    def test_interleaved_requests_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        ens = ["ensemble", "-c", "3", "-p", "0.5", "-n", "6", "--samples", "8", "--seed", "3"]
        requests = [  # (argv, whether it writes --output)
            (["exact", "--builtin", "ccz", "--alpha", "2,1/2"], False),
            (ens, False),
            (["sweep", "--gamma", "0.5", "--n-range", "6:7"], False),
            (["exact", "--builtin", "3complete:6", "--format", "json"], False),
            (["exact", "--builtin", "3complete:6"], False),
            (ens, True),
            (ens, False),
            (["ensemble", "-c", "3", "--samples", "8"], False),  # argparse: -n is required
            (["exact", "--builtin", "ccz", "--alpha", "2,1/2"], False),
        ]
        for name in [k for k in os.environ if k.startswith("HYPERMAGIC_")]:
            monkeypatch.delenv(name)

        def argv_to(i, prefix):
            argv, to_file = requests[i]
            return [*argv, "--output", str(tmp_path / f"{prefix}{i}")] if to_file else argv

        def written(i, prefix):
            return (tmp_path / f"{prefix}{i}").read_bytes() if requests[i][1] else None

        got = []
        for i in range(len(requests)):
            try:
                code = main(argv_to(i, "in"))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err, written(i, "in")))

        env = {**os.environ, "PYTHONPATH": str(SRC)}
        procs = [subprocess.Popen([sys.executable, "-m", "hypermagic.cli", *argv_to(i, "fresh")],
                                  env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for i in range(len(requests))]
        for i, proc in enumerate(procs):
            out, err = proc.communicate(timeout=120)
            assert got[i] == (proc.returncode, out, err, written(i, "fresh")), requests[i][0]
        assert got[7][0] == 2
        assert got[5][1] == "" and got[5][3] == got[6][1].encode()

    @pytest.mark.parametrize("command, pooled", [("exact", False), ("ensemble", True),
                                                 ("sweep", False), ("verify", True)])
    def test_jobs_help_says_where_it_is_ignored(self, capsys, command, pooled):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.strip().startswith("--jobs JOBS")]
        assert ("worker parallelism" in line) == pooled
        assert ("accepted and ignored" in line) == (not pooled)
