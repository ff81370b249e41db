"""hypermagic benchmark: seeded CLI requests sent in-process through `cli.main`.

    python3 perfbench/run.py --workload exact-states --seed 1 --seconds 30 --trace 0

One process and one client in a closed loop: the next request is sent when
the previous one returns, so a request's latency is its own wall time. The
seed generates every input (see workloads.py); the program receives only
argv lists and graph files. Requests are sent in whole blocks of the
workload's fixed mix until at least 100 requests have completed, so the 90th
latency percentile has at least ten samples beyond it, and the run stops at
the block boundary nearest to `--seconds`.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  requests_per_s  correct requests completed per wall-clock second, the
                  median over the run's blocks
  latency_p50_s   median request wall time
  latency_p90_s   90th percentile request wall time
  peak_rss_mib    ru_maxrss of this process when the timed phase ends
  setup_s         median over fresh processes of the time from process start
                  to the first request (interpreter start, numpy and
                  hypermagic imports, request generation, graph files)
--trace 1 runs the workload's first block traced, untraced, and traced again
  (tracer.py) and prints the per-layer metrics: calls, self time and counts
  per layer, the superset-table cache counters, the traced request time and
  the tracing overhead (second traced wall time minus untraced). Counts must
  repeat exactly between the two traced passes and match their closed
  values, and the self times must add up to the traced request time.

Every result is checked against a second route after the timed phase
(oracles.py); a nonzero exit code or a failed check counts in `failed`, and
error_rate = failed / attempted is written to the run record. The last line
of stdout is the JSON result; a run record with machine details goes to
perfbench/out/results/. HYPERMAGIC_* variables are removed from this process
and its children so that the program's defaults are measured.

Exit code 2, with no result printed, when the program cannot be imported
from src/ of the checkout or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import EVALUATOR, LAYERS, ROOT as ROOT_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REQUESTS = 100
SETUP_PROBES = 8
TRACE_BLOCKS = 1
ENV_PREFIX = "HYPERMAGIC_"

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _per_layer_spec() -> dict[str, str]:
    spec = {}
    for layer in LAYERS:
        spec[f"{layer}.calls"] = "count"
        if layer != "symmetric.reduced_traces":  # never called today: calls alone shows a change
            spec[f"{layer}.self_s"] = "s"
    spec.update({
        "cli.main.failed": "count",
        "spectrum.full_spectrum.rows": "count",
        "spectrum.rank_histogram.rows": "count",
        "spectrum.star_trace_sum.rows": "count",
        "bitops.fwht.elements": "count",
        "bitops.fwht.bytes_computed": "B",
        "bitops.superset_table.hits": "count",
        "bitops.superset_table.misses": "count",
        "bitops.superset_table.hit_ratio": "ratio",
        "ensembles.solve_edge_budget.evals_per_solve": "count",
        "trace.request_s": "s",
        "trace.overhead_s": "s",
    })
    return spec


def clear_program_env() -> list[str]:
    """Remove HYPERMAGIC_* from this process; the set-up probes inherit that."""
    cleared = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    for k in cleared:
        del os.environ[k]
    return cleared


def import_program():
    """Import hypermagic from src/ of this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hypermagic
    import hypermagic.cli

    origin = Path(hypermagic.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"hypermagic imported from {origin}, not from {src}")
    return hypermagic


def prepare(workload: str, seed: int, workdir: Path, blocks: int | None = None):
    """Generate the request blocks and write their graph files."""
    gen = workloads.generate(workload, seed, blocks)
    workdir.mkdir(parents=True, exist_ok=True)
    count = 0
    for block in gen:
        for req in block:
            if req.graph is not None:
                path = workdir / f"g{count:05d}.hg"
                path.write_text(req.graph, encoding="utf-8")
                req.argv = [*req.argv, "--graph", str(path)]
                count += 1
    return gen


def run_request(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """One closed-loop request; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed benchmark
            traceback.print_exc()
            rc = -1
    return rc, perf_counter() - start, out.getvalue(), err.getvalue()


class Checker:
    """Applies the oracles, once per distinct (request, output)."""

    def __init__(self) -> None:
        import oracles

        self._check = oracles.check
        self._memo: dict[tuple[int, str], str | None] = {}

    def failure(self, req, rc: int, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        key = (id(req), stdout)
        if key not in self._memo:
            self._memo[key] = self._check(req, stdout)
        return self._memo[key]


def score(outcomes, checker: Checker) -> tuple[list[dict], list[dict]]:
    """Per-request records and the failures among (request, rc, seconds, stdout, stderr)."""
    per_request, failures = [], []
    for i, (req, rc, secs, out, err) in enumerate(outcomes):
        why = checker.failure(req, rc, out, err)
        per_request.append({"cls": req.cls, "seconds": secs, "ok": why is None})
        if why is not None:
            failures.append({"index": i, "argv": req.argv, "why": why})
    return per_request, failures


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first request being ready."""
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def machine_record(cleared: list[str]) -> dict:
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "hypermagic_env_cleared": True,
        "hypermagic_env_removed": cleared,
    }


def timed_run(cli, blocks, seconds: int):
    """Whole blocks until MIN_REQUESTS are done and the run ends at the block
    boundary nearest to `seconds`."""
    outcomes = []
    block_walls = []
    start = perf_counter()
    while True:
        block_start = perf_counter()
        for req in blocks[len(block_walls) % len(blocks)]:
            outcomes.append((req, *run_request(cli, req.argv)))
        block_walls.append(perf_counter() - block_start)
        elapsed = perf_counter() - start
        half_block = statistics.fmean(block_walls) / 2
        if len(outcomes) >= MIN_REQUESTS and elapsed + half_block >= seconds:
            return outcomes, elapsed, block_walls


def end_to_end(args, hm) -> tuple[dict, dict]:
    # set-up probes before and after the timed phase, so their median spans
    # more than one stretch of a shared host's speed
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        blocks = prepare(args.workload, args.seed, workdir)
        outcomes, elapsed, block_walls = timed_run(hm.cli, blocks, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - len(setups))]
        per_request, failures = score(outcomes, Checker())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    latencies = [r["seconds"] for r in per_request]
    failed = len(failures)
    # median over whole blocks of the fixed mix, so one slow stretch of a
    # shared host moves the rate less than a whole-run mean would
    size = len(blocks[0])
    block_rates = [sum(r["ok"] for r in per_request[i * size:(i + 1) * size]) / wall
                   for i, wall in enumerate(block_walls)]
    metrics = {
        "requests_per_s": statistics.median(block_rates),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setups),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    classes = {}
    for r in per_request:
        classes.setdefault(r["cls"], []).append(r["seconds"])
    detail = {
        "error_rate": failed / len(outcomes),
        "timed_seconds": elapsed,
        "run_requests_per_s": (len(outcomes) - failed) / elapsed,
        "block_requests_per_s": block_rates,
        "setup_probes_s": setups,
        "classes": {c: {"requests": len(v), "median_s": statistics.median(v)} for c, v in classes.items()},
        "failures": failures,
        "requests": per_request,
    }
    for c, v in sorted(detail["classes"].items()):
        print(f"  {c:8s} {v['requests']:4d} requests, median {v['median_s']:.4f} s", file=sys.stderr)
    return result, detail


def _traced_pass(hm, block):
    hm.bitops.superset_table.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        outcomes = []
        for i, req in enumerate(block):
            tracer.request_id = i
            outcomes.append(run_request(hm.cli, req.argv))
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    cache = hm.bitops.superset_table.cache_info()
    return tracer, outcomes, wall, cache


def _counts(tracer, cache) -> dict:
    stats = tracer.stats()
    out = {k: v for k, v in stats.items() if not k.endswith(".self_s")}
    out.update(dict(tracer.counts))
    out["superset.hits"], out["superset.misses"] = cache.hits, cache.misses
    return out


def layer_run(args, hm) -> tuple[dict, dict]:
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        block = prepare(args.workload, args.seed, workdir, TRACE_BLOCKS)[0]
        # the untraced pass sits between the traced ones, so the overhead
        # compares two passes that both follow a warm-up
        passes = [_traced_pass(hm, block)]
        hm.bitops.superset_table.cache_clear()
        start = perf_counter()
        plain = [run_request(hm.cli, req.argv) for req in block]
        untraced_wall = perf_counter() - start
        passes.append(_traced_pass(hm, block))
        checker = Checker()
        failures = []
        for i, (req, (rc, _, out, err)) in enumerate(zip(block, plain)):
            why = checker.failure(req, rc, out, err)
            for _, outcomes, _, _ in passes:
                if why is None and outcomes[i][2] != out:
                    why = "output changed under tracing"
            if why is not None:
                failures.append({"index": i, "argv": req.argv, "why": why})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (t1, _, wall1, cache1), (t2, _, wall2, cache2) = passes
    counts1, counts2 = _counts(t1, cache1), _counts(t2, cache2)
    checks = self_checks(block, t1, counts1, counts2)
    stats = t1.stats()
    for layer, secs in t2.self_s.items():
        stats[f"{layer}.self_s"] = (stats[f"{layer}.self_s"] + secs) / 2
    lookups = cache1.hits + cache1.misses
    stats["bitops.superset_table.hits"] = cache1.hits
    stats["bitops.superset_table.misses"] = cache1.misses
    stats["bitops.superset_table.hit_ratio"] = cache1.hits / lookups if lookups else 0.0
    request_s = (t1.root_seconds() + t2.root_seconds()) / 2
    stats["trace.request_s"] = request_s
    stats["trace.overhead_s"] = wall2 - untraced_wall
    spec = _per_layer_spec()
    failed = len(failures)
    result = {
        "correct": failed == 0 and not checks,
        "attempted": len(block),
        "failed": failed,
        "metrics": {k: {"value": stats[k], "unit": u} for k, u in spec.items()},
    }
    shares = {layer: stats[f"{layer}.self_s"] / request_s for layer in t1.self_s} if request_s else {}
    detail = {
        "error_rate": failed / len(block),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": [wall1, wall2],
        "self_share": shares,
        "counts": counts1,
        "self_check_failures": checks,
        "wrapped_bindings": t1.bindings,
        "failures": failures,
    }
    print(f"  {'layer':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}", file=sys.stderr)
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:34s} {t1.calls[layer]:9d} {stats[layer + '.self_s']:10.4f} {share:7.1%}",
              file=sys.stderr)
    print(f"  traced request time {request_s:.3f} s, overhead {stats['trace.overhead_s']:.3f} s",
          file=sys.stderr)
    for c in checks:
        print(f"  self-check failed: {c}", file=sys.stderr)
    _spans_path(args).parent.mkdir(parents=True, exist_ok=True)
    detail["spans_file"] = str(_spans_path(args).relative_to(ROOT))
    np.savez_compressed(_spans_path(args), **t1.spans_array())
    return result, detail


def self_checks(block, tracer, counts1: dict, counts2: dict) -> list[str]:
    """Counts repeat, match closed values, and self times add up."""
    bad = []
    if counts1 != counts2:
        diff = sorted(k for k in set(counts1) | set(counts2) if counts1.get(k) != counts2.get(k))
        bad.append(f"counts differ between traced passes: {diff}")
    c = counts1
    expect = {
        "cli.main.calls": len(block),
        "spectrum.full_spectrum.rows": c.get("closed.full_spectrum.rows", 0),
        "spectrum.rank_histogram.rows": c.get("closed.rank_histogram.rows", 0),
        "bitops.fwht.calls": c["spectrum.full_spectrum.rows"] + c["spectrum.star_trace_sum.rows"],
        # every eval request takes the log path once; solves add their evaluations
        f"{EVALUATOR}.calls": sum(r.kind == "eval" for r in block) + c.get("solve.evals", 0),
    }
    for name, want in expect.items():
        if c[name] != want:
            bad.append(f"{name} = {c[name]}, closed value {want}")
    total_self = sum(tracer.self_s.values())
    root = tracer.root_seconds()
    if abs(total_self - root) > 1e-9 * max(root, 1.0) + 1e-6:
        bad.append(f"self times sum to {total_self} s, {ROOT_LAYER} spans to {root} s")
    return bad


def _stem(args) -> str:
    return f"{args.workload}_seed{args.seed}_trace{args.trace}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}"


def _spans_path(args) -> Path:
    return OUT / "results" / f"{args.stem}.spans.npz"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = clear_program_env()
    try:
        hm = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workdir = OUT / "work" / f"probe-{os.getpid()}"
        try:
            prepare(args.workload, args.seed, workdir)
            print(f"{time.time():.6f}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    args.stem = _stem(args)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    run = layer_run if args.trace else end_to_end
    result, detail = run(args, hm)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(cleared),
        "result": result,
        "detail": detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
