"""Alternating benchmark runs of a parent and a change checkout, as BENCH_<pr>.json.

For each seed and each workload that has that many pairs, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

(T is ``run_seconds`` in ``BENCHMARK.json``) once in the parent checkout and
once in the change checkout, the parent first at odd seeds and the change
first at even seeds, so that host drift falls on both sides alike. Optional
traced pairs (``--trace 1``) follow in the same alternation. Both trees lose
their ``__pycache__`` directories first and every run gets
``PYTHONDONTWRITEBYTECODE=1``: which side finds compiled bytecode moved
``setup_s`` by about 12%.

    python tools/bench_pairs.py --parent ../parent --change . --pr 25 \\
        --pairs pattern_grid=10 --pairs sweep_full=5 --pairs sweep_closed_form=5 \\
        --traced pattern_grid=3 --about "what the change does"

The file holds, per workload, every pair's end-to-end metrics and payload
digests, and per metric the median, quartiles and spread of each side, the
median gain (positive = better), the pairs the change won or tied, and whether
the change stays within the metric's bound in ``BENCHMARK.json``. It is
rewritten after every pair. Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED_SECONDS = 10.0


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (inclusive method) and spread, the
    quartile distance over the median."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (median,) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def relative_gain(parent: float, change: float, better: str) -> float | None:
    """Relative change from ``parent`` to ``change``, positive when better;
    None when the parent reads 0 and the change does not."""
    if parent == change:
        return 0.0
    if parent == 0:
        return None
    gain = (change - parent) / abs(parent)
    return gain if better == "higher" else -gain


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric of ``spec`` (``BENCHMARK.json``'s list), the two
    sides' statistics over ``pairs``, each ``{"parent": run, "change": run}``
    with ``run["metrics"]`` mapping metric names to values."""
    summary = {}
    for m in spec:
        name, better, bound = m["name"], m["better"], m["bound"]
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        gains = [relative_gain(p, c, better) for p, c in zip(*values.values())]
        median_gain = relative_gain(stats["parent"]["median"], stats["change"]["median"],
                                    better)
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        step = stats["change"]["median"] - stats["parent"]["median"]
        summary[name] = {
            "unit": m["unit"], "better": better, "bound": bound, **stats,
            "median_gain": median_gain,
            "wins": sum(g is not None and g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "pairs": len(pairs),
            "within_bound": median_gain is not None and median_gain >= -bound,
            "gain_exceeds_parent_iqr": (step if better == "higher" else -step) > parent_iqr,
        }
    return summary


def pair_record(seed: int, pair: dict, names: list[str]) -> dict:
    """One pair as stored: each metric and count as ``[parent, change]``."""
    record = {"seed": seed, "first": first_side(seed)}
    for name in names:
        record[name] = [pair[side]["metrics"][name] for side in SIDES]
    for key in ("attempted", "failed", "payload_sha256"):
        record[key] = [pair[side][key] for side in SIDES]
    record["payload_sha256_equal"] = len(set(record["payload_sha256"])) == 1
    return record


def traced_summary(runs: list[dict]) -> dict:
    """Per per-layer metric, each side's runs in seed order and their median."""
    names = runs[0]["parent"]["metrics"] if runs else {}
    return {name: {side: {"runs": [r[side]["metrics"][name] for r in runs],
                          "median": statistics.median(r[side]["metrics"][name] for r in runs)}
                   for side in SIDES}
            for name in names}


def first_side(seed: int) -> str:
    return "parent" if seed % 2 else "change"


def parse_output(stdout: str) -> dict:
    """The run's metrics, counts and ``key=value`` notes from ``run.py``'s
    last two lines."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = dict(token.split("=", 1) for token in lines[-2].split() if "=" in token)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "payload_sha256": notes.get("payload_sha256"),
            "notes": notes}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return parse_output(proc.stdout)


def run_pair(trees: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    order = SIDES if first_side(seed) == "parent" else SIDES[::-1]
    pair = {side: run_once(trees[side], workload, seed, seconds, trace) for side in order}
    print(f"{workload} seed={seed} trace={trace} " + " ".join(
        f"{side}:failed={pair[side]['failed']}:ops_per_s={pair[side]['metrics'].get('ops_per_s')}"
        for side in SIDES), file=sys.stderr, flush=True)
    return pair


def drop_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "blas_threads": "1 (set by perfbench/run.py)"}


def counts(specs: list[str]) -> dict[str, int]:
    """``{"W": N}`` from ``["W=N", ...]``."""
    return {name: int(n) for name, _, n in (spec.partition("=") for spec in specs)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pr", type=int, required=True,
                        help="writes BENCH_<pr>.json in the current directory")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                        help="untraced pairs of a workload, at seeds 1..N")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD=N",
                        help=f"traced pairs of a workload ({TRACED_SECONDS:g} s each)")
    parser.add_argument("--about", default="", help="what the change does")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench["end_to_end"]
    names = [m["name"] for m in spec]
    seconds = bench["run_seconds"]
    untraced, traced = counts(args.pairs), counts(args.traced)
    for tree in trees.values():
        drop_bytecode(tree)
    out = {
        "about": args.about, "host": host(), "run_seconds": seconds,
        "how": (f"tools/bench_pairs.py runs python3 perfbench/run.py --workload W --seed S "
                f"--seconds {seconds:g} --trace 0 in a parent and a change checkout, with no "
                "__pycache__ in either and PYTHONDONTWRITEBYTECODE=1, one pair per "
                "(workload, seed), the parent first at "
                "odd seeds and the change first at even seeds, workloads in turn per seed; then "
                f"traced pairs with --seconds {TRACED_SECONDS:g} --trace 1 in the same "
                "alternation. Quartiles: statistics.quantiles(n=4, method='inclusive'); spread "
                "= (q3 - q1) / median; median_gain is the relative change of the median, "
                "positive = better; wins count pairs in which the change read better; "
                "within_bound: median_gain >= -bound."),
        "workloads": {}, "traced": {}, "notes": [],
    }
    path = Path(f"BENCH_{args.pr}.json")
    done: dict[str, list] = {w: [] for w in untraced}
    for seed in range(1, max(untraced.values(), default=0) + 1):
        for workload, n in untraced.items():
            if seed <= n:
                done[workload].append((seed, run_pair(trees, workload, seed, seconds, 0)))
                out["workloads"][workload] = {
                    "summary": summarize([p for _, p in done[workload]], spec),
                    "pairs": [pair_record(s, p, names) for s, p in done[workload]]}
                path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for workload, n in traced.items():
        runs = []
        for seed in range(1, n + 1):
            pair = run_pair(trees, workload, seed, TRACED_SECONDS, 1)
            runs.append(pair)
            out["traced"][workload] = {
                "runs": [{"seed": s, **{side: {"notes": r[side]["notes"],
                                               "correct": r[side]["correct"],
                                               "failed": r[side]["failed"]}
                                        for side in SIDES}}
                         for s, r in enumerate(runs, 1)],
                "summary": traced_summary(runs)}
            path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
