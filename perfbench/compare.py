"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the JSON run records that run.py writes to
perfbench/out/results/. Make the base and head runs alternately, seed by
seed: a shared host's speed drifts over minutes, so two sets run one after
the other can differ by more than the bounds. For every workload and
end-to-end metric the tool prints each side's median and quartiles, how
many base/head pairs (matched by seed) the head wins, and a verdict under
the bounds in BENCHMARK.json:

  improved    at least 10 pairs, the head wins at least 9 in 10 of them (ties
              count for neither), and the medians differ by more than the
              base's quartile spread
  worse       head median worse than the base median by more than the bound
  unresolved  the base's own quartile spread is wider than the bound, and not
              every head run beats every base run
  unchanged   otherwise

Below that it prints the traced per-layer metrics (trace 1 records) as
medians with their change, so a gain can be located in a layer.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(records: list[dict], metric: str) -> list[tuple[int, float]]:
    return [(r["seed"], r["result"]["metrics"][metric]["value"])
            for r in records if metric in r["result"]["metrics"]]


def pairs(base: list[tuple[int, float]], head: list[tuple[int, float]]):
    """(base, head) value pairs: the k-th run of a seed on each side."""
    left: dict[int, list[float]] = {}
    for seed, v in base:
        left.setdefault(seed, []).append(v)
    out = []
    for seed, v in head:
        if left.get(seed):
            out.append((left[seed].pop(0), v))
    return out


def verdict(base: list[tuple[int, float]], head: list[tuple[int, float]], better: str,
            bound: float):
    """(verdict, pair wins, pairs) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    matched = pairs(base, head)
    wins = sum(sign * (h - b) > 0 for b, h in matched)
    b = [v for _, v in base]
    h = [v for _, v in head]
    bq1, bmed, bq3 = quartiles(b)
    _, hmed, _ = quartiles(h)
    gain = sign * (hmed - bmed)
    if len(matched) >= MIN_PAIRS and wins >= 0.9 * len(matched) and gain > bq3 - bq1:
        return "improved", wins, len(matched)
    all_better = min(sign * x for x in h) > max(sign * x for x in b)
    if bmed and (bq3 - bq1) / abs(bmed) > bound and not all_better:
        return "unresolved", wins, len(matched)
    if bmed and -gain / abs(bmed) > bound:
        return "worse", wins, len(matched)
    return "unchanged", wins, len(matched)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    base, head = load(Path(argv[0])), load(Path(argv[1]))
    fmt = "{:13s} {:15s} {:>34s} {:>34s} {:>7s}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
                     "wins", "verdict"))
    for w in spec["workloads"]:
        b_recs, h_recs = base.get((w["name"], 0), []), head.get((w["name"], 0), [])
        for m in spec["end_to_end"]:
            b, h = _values(b_recs, m["name"]), _values(h_recs, m["name"])
            if not b or not h:
                print(fmt.format(w["name"], m["name"], "-", "-", "-", "no runs"))
                continue
            call, wins, matched = verdict(b, h, m["better"], m["bound"])
            cols = []
            for side in (b, h):
                q1, med, q3 = quartiles([x for _, x in side])
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(side)}")
            print(fmt.format(w["name"], m["name"], cols[0], cols[1], f"{wins}/{matched}", call))
    print()
    print(f"{'workload':13s} {'layer metric':48s} {'base':>14s} {'head':>14s} {'change':>9s}")
    for w in spec["workloads"]:
        b_recs, h_recs = base.get((w["name"], 1), []), head.get((w["name"], 1), [])
        if not b_recs or not h_recs:
            continue
        for m in spec["per_layer"]:
            b, h = _values(b_recs, m["name"]), _values(h_recs, m["name"])
            if not b or not h:
                continue
            bm = statistics.median(x for _, x in b)
            hm = statistics.median(x for _, x in h)
            if bm == hm == 0:
                continue
            change = f"{(hm - bm) / abs(bm):+.1%}" if bm else "new"
            print(f"{w['name']:13s} {m['name']:48s} {bm:14.6g} {hm:14.6g} {change:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
