"""Command-line surface: exact values, ensemble statistics, sweeps, verification.

Exit codes: 0 success, 2 usage error, 3 verification failure, 4 budget
exceeded.  Every output file starts with a provenance header (version,
command, seed, full flag set) so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, budget as _budget, ensembles, magic, spectrum, verify
from .hypergraph import Hypergraph, build, c_complete, degree_profile, empty, from_text
from .phasestate import from_hypergraph

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class UsageError(ValueError):
    pass


def parse_builtin(name: str) -> Hypergraph:
    if name == "ccz":
        return build(3, [(1, 2, 3)])
    if name == "triangle":
        return build(3, [(1, 2), (2, 3), (1, 3)])
    if ":" in name:
        kind, _, arg = name.partition(":")
        try:
            n = int(arg)
        except ValueError as exc:
            raise UsageError(f"bad builtin size in {name!r}") from exc
        if kind == "empty":
            return empty(n)
        if kind == "3complete":
            return c_complete(n, 3)
        if kind == "ncomplete":
            return c_complete(n, n)
    raise UsageError(f"unknown builtin graph {name!r}")


def _load_graph(args) -> Hypergraph:
    if args.builtin and args.graph:
        raise UsageError("give either --builtin or --graph, not both")
    if args.builtin:
        return parse_builtin(args.builtin)
    if args.graph:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                return from_text(fh)
        except OSError as exc:
            raise UsageError(f"cannot read graph file: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"cannot parse graph file {args.graph}: {exc}") from exc
    raise UsageError("one of --builtin or --graph is required")


def _parse_alphas(raw: str) -> list[Fraction]:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad alpha value {tok!r}") from exc
    if not out:
        raise UsageError("empty alpha list")
    return out


def _provenance(args, parser_flags: dict) -> list[str]:
    flags = " ".join(f"{k}={v}" for k, v in sorted(parser_flags.items()))
    return [
        f"# hypermagic {__version__}",
        f"# command: {args.command}",
        f"# seed: {getattr(args, 'seed', None)}",
        f"# flags: {flags}",
    ]


def _emit(args, header: list[str], columns: list[str], rows: list[dict]) -> None:
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        payload = {
            "provenance": {"version": __version__, "command": args.command,
                           "seed": getattr(args, "seed", None)},
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        lines = list(header)
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join("" if row.get(c) is None else str(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exact_reports(g: Hypergraph, alphas: list[Fraction], budget_override: int | None,
                   dump_path: str | None) -> list[magic.MagicReport]:
    """One table of |W| counts per state, every alpha evaluated from it.

    `--dump-spectrum` streams the full spectrum to its file and counts the
    same blocks, refused by the spectrum budget or the Walsh kernel's range
    before any table or file exists; otherwise `ensembles.state_counts`
    picks the route from the graph alone.  The method label names the
    budget class, not the route: rank-class when the edges have at most
    three vertices and n exceeds the spectrum budget, direct-spectrum
    otherwise.  The spectrum budget picks no route; it sets this label and
    bounds the size of the dump.
    """
    rank_class = g.n > _budget.spectrum_budget(budget_override) and g.max_edge_size() <= 3
    method = magic.METHOD_RANK if rank_class else magic.METHOD_DIRECT
    if dump_path:
        _budget.check(g.n, _budget.spectrum_budget(budget_override), "full Pauli spectrum")
        spectrum.check_walsh_range(g.n)
        state = from_hypergraph(g, budget_override)
        with open(dump_path, "w", encoding="utf-8") as fh:
            counts = spectrum.sparse_counts(spectrum.dump_csv(state, fh))
    else:
        counts = ensembles.state_counts(g, budget_override)
    return [magic.sre_from_moment(spectrum.moment_from_magnitudes(counts, g.n, a), a, method)
            for a in alphas]


def cmd_exact(args) -> int:
    g = _load_graph(args)
    alphas = _parse_alphas(args.alpha)
    profile = degree_profile(g) if max(alphas) >= 2 else None
    rows = []
    for alpha, report in zip(alphas, _exact_reports(g, alphas, args.budget, args.dump_spectrum)):
        row = {
            "alpha": str(alpha),
            "pl_moment": float(report.pl_moment),
            "pl_moment_exact": str(report.pl_moment)
            if isinstance(report.pl_moment, Fraction) else None,
            "sre": report.sre,
            "method": report.method,
            "degree_bound": magic.degree_bound(g, alpha, profile) if alpha >= 2 else None,
        }
        rows.append(row)
    header = _provenance(args, {"alpha": args.alpha, "graph": args.builtin or args.graph,
                                "n": g.n, "edges": len(g.edges)})
    _emit(args, header, ["alpha", "pl_moment", "pl_moment_exact", "sre", "method", "degree_bound"], rows)
    return EXIT_OK


def cmd_ensemble(args) -> int:
    modes = sum((args.samples is not None, args.exact, args.theory))
    if modes != 1:
        raise UsageError("choose exactly one of --samples, --exact, --theory")
    alphas = _parse_alphas(args.alpha)
    if not 0.0 <= args.p <= 1.0:
        raise UsageError(f"probability {args.p} outside [0, 1]")
    spec = ensembles.EnsembleSpec(args.c, args.p, args.n, args.seed)
    spec.check()  # 3 <= c <= n, every mode
    rows = []
    for alpha in alphas:
        bound = (ensembles.bound_general(args.c, int(alpha), args.n)
                 if alpha >= 2 and alpha.denominator == 1 else None)
        stderr = samples = None
        if args.samples is not None:
            est = ensembles.monte_carlo_moment(spec, alpha, args.samples, jobs=args.jobs,
                                               budget=args.budget)
            method, value, stderr, samples = "monte-carlo", est.mean, est.stderr, est.samples
        elif args.exact:
            method = "exact-enumeration"
            value = ensembles.exact_average(args.n, args.c, Fraction(args.p), alpha)
        else:
            if args.c != 3 or alpha != 2:
                raise UsageError("--theory covers the c=3, alpha=2 composition formula")
            method, value = "theory", ensembles.avg_m2_p(args.n, args.p, budget=args.budget)
        rows.append({
            "c": args.c, "p": args.p, "n": args.n, "alpha": str(alpha), "method": method,
            "value": float(value), "stderr": stderr, "samples": samples, "bound_upper": bound,
            "sre_lower_bound": ensembles.jensen_sre_lower_bound(value, alpha)
            if alpha > 1 and value > 0 else None,
        })
    header = _provenance(args, {"c": args.c, "p": args.p, "n": args.n, "alpha": args.alpha,
                                "samples": args.samples, "exact": args.exact,
                                "theory": args.theory, "jobs": args.jobs})
    _emit(args, header, ["c", "p", "n", "alpha", "method", "value", "stderr", "samples",
                         "bound_upper", "sre_lower_bound"], rows)
    return EXIT_OK


def _parse_range(raw: str) -> list[int]:
    if not raw:
        return []
    parts = raw.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])] if parts[0] else []
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) > 2 else 1
        return list(range(start, stop + 1, step))
    except ValueError as exc:
        raise UsageError(f"bad range {raw!r}, expected start:stop[:step]") from exc


def cmd_sweep(args) -> int:
    gammas = [float(t) for t in args.gamma.split(",") if t]
    if any(not 0.0 < g < 1.0 for g in gammas):
        raise UsageError("gamma values must lie inside (0, 1)")
    ns = _parse_range(args.n_range)
    columns = ["n", "gamma", "p", "expected_edges", "sre_lower_bound", "status", "method"]
    rows = []
    slopes: list[str] = []
    for gamma in gammas:
        points = []
        for n in ns:
            try:
                res = ensembles.solve_edge_budget(n, gamma, budget=args.budget)
            except _budget.BudgetError as exc:
                rows.append({"n": n, "gamma": gamma, "p": None, "expected_edges": None,
                             "sre_lower_bound": None, "status": f"budget: {exc}",
                             "method": "theory"})
                continue
            if res.reachable:
                rows.append({"n": n, "gamma": gamma, "p": res.p,
                             "expected_edges": res.expected_edges,
                             "sre_lower_bound": res.achieved, "status": "ok",
                             "method": "theory"})
                points.append((n, res.expected_edges))
            else:
                rows.append({"n": n, "gamma": gamma, "p": None, "expected_edges": None,
                             "sre_lower_bound": res.cap, "status": "unreachable",
                             "method": "theory"})
        if len(points) >= 2:
            xs = np.array([p[0] for p in points], dtype=float)
            ys = np.array([p[1] for p in points], dtype=float)
            slope = float(np.polyfit(xs, ys, 1)[0])
            slopes.append(f"# slope gamma={gamma}: {slope:.6f} over {len(points)} points")
        else:
            slopes.append(f"# slope gamma={gamma}: undefined ({len(points)} converged points)")
    header = _provenance(args, {"gamma": args.gamma, "n_range": args.n_range})
    _emit(args, header + slopes, columns, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(verify.SUITES)}")
    kwargs = {}
    if args.suite == "concentration":
        kwargs = {"n": 12 if args.n is None else args.n,
                  "samples": 200 if args.samples is None else args.samples,
                  "seed": args.seed, "jobs": args.jobs}
    results = verify.SUITES[args.suite](**kwargs)
    failed = 0
    for res in results:
        verdict = "PASS" if res.ok else "FAIL"
        print(f"{verdict} {res.name}: {res.detail}")
        failed += 0 if res.ok else 1
    print(f"{args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermagic",
        description="Magic (stabilizer Renyi entropy) of quantum hypergraph states",
    )
    parser.add_argument("--version", action="version", version=f"hypermagic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="moments and entropies of one state")
    p_exact.add_argument("--builtin", help="ccz | triangle | empty:n | 3complete:n | ncomplete:n")
    p_exact.add_argument("--graph", help="hypergraph text file")
    p_exact.add_argument("--alpha", default="2", help="comma-separated orders, e.g. 0.5,2,3")
    p_exact.add_argument("--dump-spectrum", help="also write the squared-component table as CSV")
    p_exact.set_defaults(func=cmd_exact)

    p_ens = sub.add_parser("ensemble", help="random ensemble statistics")
    p_ens.add_argument("-c", type=int, default=3, help="edge cardinality")
    p_ens.add_argument("-p", type=float, default=0.5, help="edge probability")
    p_ens.add_argument("-n", type=int, required=True, help="qubit count")
    p_ens.add_argument("--alpha", default="2")
    p_ens.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p_ens.add_argument("--exact", action="store_true", help="enumerate all graphs")
    p_ens.add_argument("--theory", action="store_true", help="composition-sum closed value")
    p_ens.set_defaults(func=cmd_ensemble)

    p_sweep = sub.add_parser("sweep", help="edge budget versus qubit count")
    p_sweep.add_argument("--gamma", required=True, help="comma-separated targets in (0,1)")
    p_sweep.add_argument("--n-range", default="", help="start:stop[:step]")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("suite", help="|".join(sorted(verify.SUITES)))
    p_verify.add_argument("--n", type=int, help="size override where applicable")
    p_verify.add_argument("--samples", type=int, help="sample override where applicable")
    p_verify.set_defaults(func=cmd_verify)

    for sp in (p_exact, p_ens, p_sweep, p_verify):
        sp.add_argument("--seed", type=int, default=20240517, help="base RNG seed")
        pooled = sp in (p_ens, p_verify)  # exact and sweep run in one process
        sp.add_argument("--jobs", type=int, default=None,  # None: read HYPERMAGIC_JOBS
                        help="worker parallelism (env HYPERMAGIC_JOBS)" if pooled
                        else "accepted and ignored: this command runs in one process")
    for sp in (p_exact, p_ens, p_sweep):  # verify prints verdicts, not rows
        sp.add_argument("--budget", type=int, default=None, help="qubit budget override")
        sp.add_argument("--output", help="write to file instead of stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _env_jobs() -> int:
    raw = os.environ.get("HYPERMAGIC_JOBS", "1")
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"HYPERMAGIC_JOBS must be an integer, got {raw!r}") from exc


def main(argv: list[str] | None = None) -> int:
    """Run one request; returns its exit code.

    The parser is built once per process and reused by every call.
    HYPERMAGIC_JOBS is read on each call that gives no --jobs.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.jobs is None:
            args.jobs = _env_jobs()
        if args.jobs < 1:
            raise UsageError(f"--jobs and HYPERMAGIC_JOBS must be at least 1, got {args.jobs}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _budget.BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
