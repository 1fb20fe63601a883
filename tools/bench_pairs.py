"""Run perfbench on two checkouts in alternating pairs, and judge a claim.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds A-B --seconds S --out BENCH_<n>.json [--trace 0|1] [--summary TEXT] [--append]

Each seed makes one pair: the benchmark command of ``BENCHMARK.json``
(``python3 perfbench/run.py``) runs once in the parent checkout and once in
the change checkout, back to back, as a subprocess with the checkout as its
working directory.  The side that runs first alternates from pair to pair.
The runs go to ``--out`` in the ``BENCH_<n>.json`` form: ``pr``,
``change``, ``parent``, ``command``, ``order``, and ``runs``, each with its
side, workload, seed, seconds, trace, and the run's ``machine`` and final
result lines.  ``--append`` adds the runs to an existing file instead.

For each metric both sides report, it prints both sides' medians and
quartiles, the pairs the change won, and whether a gain claim on it holds:
the change better in at least 9 of every 10 pairs, over at least 10 pairs,
and the medians apart by more than the parent's interquartile range.  For
each end-to-end metric it also prints whether the change holds its
``bound``: the change's median no worse than the parent's by more than
``bound`` times the parent's median.  That is unresolved when the parent's
interquartile range is wider than that margin, unless every run of the
change beats every run of the parent.
Nothing under ``perfbench/`` is imported or written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np

ORDER = ("each pair runs parent and change back to back on one seed; the side that "
         "runs first alternates from pair to pair")
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` as the seeds A..B, both included; ``"A"`` as [A]."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"seeds must be A or A-B with A <= B, got {text!r}")
    return list(range(int(match[1]), int(match[2] or match[1]) + 1))


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule on one metric's paired values, ``parent[i]`` against
    ``change[i]``: each side's median and quartiles, the pairs that the
    change won (strictly better), the median gap in the better direction,
    and ``holds``: at least ``MIN_PAIRS`` pairs, wins in at least 9 of 10,
    and a gap larger than the parent's interquartile range."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, non-empty lists of pairs, got {len(parent)} and "
                         f"{len(change)} values")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, p2, p3), (c1, c2, c3) = (np.percentile(v, [25, 50, 75]).tolist() for v in (parent, change))
    gap = sign * (c2 - p2)
    return {"pairs": len(parent), "wins": wins, "parent": (p1, p2, p3), "change": (c1, c2, c3),
            "gap": gap, "parent_iqr": p3 - p1,
            "holds": len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent) and gap > p3 - p1}


def regression(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The no-regression rule on one end-to-end metric's runs: the margin
    is ``bound`` times the parent's median, and the change's median may be
    worse than the parent's by at most that.  ``verdict`` is "within bound"
    or "regressed", or "unresolved" when the parent's interquartile range is
    wider than the margin, unless every change run beats every parent run."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not parent or not change:
        raise ValueError(f"need runs on both sides, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "higher" else -1.0
    (p1, p2, p3), c2 = np.percentile(parent, [25, 50, 75]).tolist(), float(np.median(change))
    margin, worse = bound * abs(p2), sign * (p2 - c2)
    if min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "within bound"
    elif p3 - p1 > margin:
        verdict = "unresolved"
    else:
        verdict = "within bound" if worse <= margin else "regressed"
    return {"margin": margin, "worse": worse, "parent_iqr": p3 - p1, "verdict": verdict}


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark run in ``checkout``: its ``machine`` record and its
    final result line."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        machine, result = json.loads(lines[0])["machine"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode} without its "
                         f"result lines; standard error ends:\n{done.stderr[-2000:]}") from None
    return {"machine": machine, "result": result}


def run_pairs(seeds: list[int], run) -> list[dict]:
    """``run(side, seed)`` for each seed on both sides, the parent first in
    even pairs and the change first in odd ones; the records in the order
    run."""
    return [run(side, seed) for i, seed in enumerate(seeds)
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]


def paired_values(runs: list[dict], metric: str) -> tuple[list[float], list[float]]:
    """The parent's and the change's value of ``metric`` per seed, over the
    seeds where both sides ran correctly and report it."""
    values: dict[int, dict[str, float]] = {}
    for r in runs:
        result = r["result"]
        if result.get("correct") and metric in result.get("metrics", {}):
            values.setdefault(r["seed"], {})[r["side"]] = result["metrics"][metric]["value"]
    both = [v for _, v in sorted(values.items()) if len(v) == 2]
    return [v["parent"] for v in both], [v["change"] for v in both]


def report(runs: list[dict], directions: dict[str, str],
           bounds: dict[str, float] | None = None) -> list[str]:
    """One line per metric that both sides report: medians with quartiles,
    pair wins and the claim verdict, and for a metric with a bound in
    ``bounds`` (the end-to-end ones) the no-regression verdict."""
    lines, bounds = [], bounds or {}
    metrics = {m for r in runs for m in r["result"].get("metrics", {})}
    for metric in [m for m in directions if m in metrics]:
        parent, change = paired_values(runs, metric)
        if not parent:
            continue
        v = verdict(parent, change, directions[metric])
        (p1, p2, p3), (c1, c2, c3) = v["parent"], v["change"]
        lines.append(f"{metric}: parent {p2:.4g} [{p1:.4g}, {p3:.4g}] -> change {c2:.4g} "
                     f"[{c1:.4g}, {c3:.4g}] ({directions[metric]} is better); change better in "
                     f"{v['wins']}/{v['pairs']} pairs; gap {v['gap']:.4g} against parent IQR "
                     f"{v['parent_iqr']:.4g}; claim {'holds' if v['holds'] else 'does not hold'}")
        if metric in bounds:
            r = regression(parent, change, directions[metric], bounds[metric])
            lines[-1] += (f"; no regression (bound {bounds[metric]:g}): {r['verdict']}, change "
                          f"worse by {r['worse']:.4g} against margin {r['margin']:.4g}, parent "
                          f"IQR {r['parent_iqr']:.4g}")
    return lines


def git_head(checkout: str) -> str:
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() or os.path.abspath(checkout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, both included")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json")
    parser.add_argument("--summary", help="what the change does (default: its commit)")
    parser.add_argument("--append", action="store_true", help="add the runs to --out")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}

    def run(side, seed):
        record = run_once(sides[side], spec["command"], args.workload, seed, args.seconds,
                          args.trace)
        metrics = record["result"].get("metrics", {})
        shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(metrics.items())[:6])
        print(f"{args.workload} seed {seed} {side}: correct {record['result'].get('correct')}; "
              f"{shown}", flush=True)
        return {"side": side, "workload": args.workload, "seed": seed, "seconds": args.seconds,
                "trace": args.trace, **record}

    runs = run_pairs(args.seeds, run)
    if args.append:
        with open(args.out) as fh:
            bench = json.load(fh)
        bench["runs"] += runs
    else:
        match = re.search(r"BENCH_(\d+)\.json$", args.out)
        bench = {"pr": int(match[1]) if match else None,
                 "change": args.summary or git_head(args.change),
                 "parent": git_head(args.parent),
                 "command": " ".join(spec["command"]) + " --workload <workload> --seed <seed> "
                            "--seconds <seconds> --trace <trace>",
                 "order": ORDER, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print("\n".join(report(runs, directions, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
