"""``python -m benchmarks.suite``: the whole benchmark as one JSON document.

Every workload runs in its own child process (``run.py``), so its
``setup_s`` and ``peak_rss_mb`` are its alone: first untraced for the
end-to-end metrics, then traced for the per-layer metrics.

``python -m benchmarks.suite repeat --sets 2 --runs 10`` is the
acceptance procedure for the benchmark itself: each set runs every
workload ``--runs`` times, each time with another seed, and the table
shows per workload and end-to-end metric both medians, their relative
difference, each set's spread (inter-quartile distance over the median)
and the bound; the exit code is non-zero on any breach.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SUITE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> tuple[dict, dict]:
    """One ``run.py`` process; returns its ``(stamp, result)`` lines."""
    command = [
        sys.executable,
        str(SUITE_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    finished = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    )
    stamp_line, result_line = finished.stdout.strip().splitlines()[-2:]
    return json.loads(stamp_line)["stamp"], json.loads(result_line)


def _values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def run_all(workloads: list[str], seed: int, seconds: float, smoke: bool) -> dict:
    contract = _contract()
    document = {
        "benchmark": "starts-pipeline-suite",
        "claim": None,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "units": {
            entry["name"]: entry["unit"]
            for entry in contract["end_to_end"] + contract["per_layer"]
        },
        "workloads": {},
    }
    for name in workloads:
        stamp, measured = _run_child(name, seed, seconds, 0, smoke)
        traced_stamp, traced = _run_child(name, seed, seconds, 1, smoke)
        end_to_end = _values(measured)
        end_to_end["failed_fraction"] = measured["failed"] / measured["attempted"]
        document.setdefault("stamp", {k: stamp[k] for k in ("git_sha", "python", "nproc")})
        document["workloads"][name] = {
            "correct": measured["correct"] and traced["correct"],
            "operations_per_pass": stamp["operations_per_pass"],
            "measured_passes": stamp["measured_passes"],
            "traced_run_passes": traced_stamp["measured_passes"],
            "p95_operations_beyond": stamp["p95_operations_beyond"],
            "parameters": stamp["parameters"],
            "end_to_end": end_to_end,
            "per_layer": _values(traced),
        }
    return document


# -- repeat -----------------------------------------------------------------------


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def repeat(
    workloads: list[str], sets: int, runs: int, seed: int, seconds: float, smoke: bool
) -> tuple[str, bool]:
    """The repeatability table (markdown) and whether every bound held."""
    contract = _contract()
    measured: dict[tuple[int, str, str], list[float]] = {}
    failures = 0
    stamp = {}
    for set_index in range(sets):
        for name in workloads:
            for run in range(runs):
                stamp, result = _run_child(name, seed + run, seconds, 0, smoke)
                failures += result["failed"]
                for metric, value in _values(result).items():
                    measured.setdefault((set_index, name, metric), []).append(value)

    lines = [
        "# Repeatability of the suite on one commit",
        "",
        f"`python -m benchmarks.suite repeat --sets {sets} --runs {runs} "
        f"--seed {seed} --seconds {seconds:g}`"
        + (" `--smoke`" if smoke else ""),
        "",
        f"git {stamp.get('git_sha', 'unknown')}, Python {stamp.get('python')}, "
        f"nproc {stamp.get('nproc')}; seeds {seed}..{seed + runs - 1} in every set; "
        f"failed operations over all runs: {failures}.",
        "",
        "Each set's value is the median over its runs; *diff* is the largest",
        "relative difference between two sets' medians, *spread* the widest",
        "inter-quartile distance over the median within one set (`-` with fewer",
        "than two runs).  A row breaches when diff exceeds the bound, or when",
        "the spread of any metric but `setup_s` does.",
        "",
        "| workload | metric | "
        + " | ".join(f"set {index + 1}" for index in range(sets))
        + " | diff | spread | bound | ok |",
        "|---|---|" + "---:|" * (sets + 3) + "---|",
    ]
    all_ok = failures == 0
    for name in workloads:
        for entry in contract["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            medians = [
                statistics.median(measured[(index, name, metric)])
                for index in range(sets)
            ]
            diff = (max(medians) - min(medians)) / min(medians)
            spreads = [
                spread
                for index in range(sets)
                if (spread := _spread(measured[(index, name, metric)])) is not None
            ]
            widest = max(spreads) if spreads else None
            ok = diff <= bound and (
                metric == "setup_s" or widest is None or widest <= bound
            )
            all_ok = all_ok and ok
            lines.append(
                f"| {name} | {metric} | "
                + " | ".join(f"{median:.4g}" for median in medians)
                + f" | {diff:.3f} | "
                + ("-" if widest is None else f"{widest:.3f}")
                + f" | {bound:g} | {'yes' if ok else 'NO'} |"
            )
    return "\n".join(lines) + "\n", all_ok


def main(argv: list[str] | None = None) -> int:
    contract = _contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    parser.add_argument("mode", nargs="?", choices=("run", "repeat"), default="run")
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--smoke", action="store_true", help="tiny worlds, one pass")
    parser.add_argument("--sets", type=int, default=2, help="repeat: sets to compare")
    parser.add_argument("--runs", type=int, default=1, help="repeat: runs (seeds) per set")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.mode == "repeat":
        table, ok = repeat(
            workloads, args.sets, args.runs, args.seed, args.seconds, args.smoke
        )
        print(table, end="")
        return 0 if ok else 1
    document = run_all(workloads, args.seed, args.seconds, args.smoke)
    print(json.dumps(document, indent=2))
    return 0 if all(w["correct"] for w in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
