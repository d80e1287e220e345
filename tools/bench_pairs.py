"""Run alternating parent/change pairs of one benchmark workload and compare.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seed 1]

PARENT and CHANGE are checkouts of this repository.  Each pair runs
`python3 bench/run.py --workload W --seed S` once in each tree, with that
tree's own bench/, one process at a time; the parent runs first in odd pairs
and the change in even ones.  Each run's last line of standard output is its
result.  The end-to-end metrics, with their `better` and `bound`, come from
the parent's BENCHMARK.json, which is only read.  For each metric the script
prints each side's median and quartiles, the change/parent ratio of the
medians, the change's wins, ties and losses over the pairs (a tie counts for
neither side), whether a gain holds (wins in at least nine tenths of the
pairs and a median shift larger than the parent's interquartile range), and
whether the change's median is worse than the parent's by more than the
bound.  Exits 0 when every run succeeded, 1 when a run failed, exited
non-zero or was not correct, and 2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def summarize(parent, change, better, bound):
    """Compare paired runs of one metric: parent[i] and change[i] ran as pair i.

    Returns each side's (q1, median, q3), the change/parent ratio of the
    medians, the change's wins, ties and losses, whether a gain holds and
    whether the change is worse than the parent by more than `bound`, a
    fraction of the parent's median.
    """
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    pq, cq = _quartiles(parent), _quartiles(change)
    shift = sign * (pq[1] - cq[1])
    return {"parent": pq, "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "wins": wins, "ties": len(parent) - wins - losses,
            "losses": losses,
            "gain": 10 * wins >= 9 * len(parent) and shift > pq[2] - pq[0],
            "worse": -shift > bound * abs(pq[1])}


def _quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_once(tree, workload, seed):
    """The result object of one benchmark run in `tree`, or an error string."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload",
             workload, "--seed", str(seed)],
            cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not a result: {lines[-1][:200]}"
    if not result.get("correct") or result.get("failed"):
        failures = [line for line in lines if line.startswith("FAILED")]
        return "not correct: " + "; ".join(failures[:5])
    return result


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    try:
        with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read the parent's BENCHMARK.json: {exc}")

    values = {side: {m["name"]: [] for m in metrics}
              for side in ("parent", "change")}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed)
            if isinstance(result, str):
                print(f"pair {pair} {side}: {result}")
                return 1
            readings = {m["name"]: result["metrics"][m["name"]]["value"]
                        for m in metrics}
            for name, value in readings.items():
                values[side][name].append(value)
            print(f"pair {pair} {side}: " + " ".join(
                f"{name}={value:.4g}" for name, value in readings.items()),
                flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs: "
          "median [q1, q3]")
    for m in metrics:
        s = summarize(values["parent"][m["name"]], values["change"][m["name"]],
                      m["better"], m["bound"])
        print(f"{m['name']} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:.0%}): parent {_fmt(s['parent'])}, "
              f"change {_fmt(s['change'])}, ratio {s['ratio']:.3f}, "
              f"wins/ties/losses {s['wins']}/{s['ties']}/{s['losses']}, "
              f"gain holds: {'yes' if s['gain'] else 'no'}, "
              f"worse than the bound: {'YES' if s['worse'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
