"""helixkit benchmark: CLI workloads checked against closed forms.

One run drives the real CLI in-process through helixkit.cli.main(argv), one
job at a time: a closed loop with a single client in a single process, with
BLAS/OpenMP pinned to one thread.  Jobs read generated JSON files and write
to --output, so argument parsing, loading and formatting are timed too.
Every job's output is checked by bench/oracle.py, and must be byte-identical
to what the same job wrote in the warm-up round.

Workloads (a round is one pass over the workload's fixed job list):
  curves      analyze (json, csv) and plotdata on seven curves; short jobs
              where stencils, frames, the slant fit and formatting dominate
  indicatrix  indicatrix, axis and plotdata --both; symbolic expression
              swell dominates (the tilted-spiral indicatrix alone is ~10 s)
  surfaces    geodesic on cylinder, cone and sphere scenarios; the scalar
              RK4 loop and the geodesic verification dominate

    python3 bench/run.py --workload curves --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, a table
    python3 bench/run.py --all --seed 1 --trace 1  # per layer, run twice

--trace 0 runs one uncounted warm-up round, then rounds until --seconds of
job time have passed, and reports the end-to-end metrics:
  setup_s      median wall time of fresh interpreters that import
               helixkit.cli and run one analyze of a circular helix
  round_refs   per job, its lowest time over the rounds in units of a fixed
               reference computation timed around and inside it (see
               Reference), summed over the job list
  peak_rss_mb  peak resident memory of the process
It also prints the same sums in wall-clock time (round_ms, jobs_per_s and
<subcommand>_ms), error_rate and every failing job.
--trace 1 times untraced rounds, then traced rounds (bench/tracer.py), and
reports per-layer metrics, the wall-clock figures of the untraced rounds and
the tracing overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

import os

# pin native thread pools before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SUBCOMMANDS = ("analyze", "axis", "indicatrix", "plotdata", "geodesic")
SETUP_REPEATS = 5
SAMPLE_INTERVAL = 0.25
SETUP_CODE = ("import sys\n"
              "from helixkit.cli import main\n"
              "sys.exit(main(['analyze', sys.argv[1], '--output', sys.argv[2]]))")


def _record(seed, workload, trace):
    """Versions, machine and settings this run was made with."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "machine": platform.machine(), "commit": commit}


class Runner:
    """Runs a workload's job list round by round and checks every job."""

    def __init__(self, workload, seed, work_dir):
        from helixkit import cli
        self.cli = cli
        self.workload = workload
        self.jobs, self.facts = inputs.generate(workload, seed, work_dir)
        self.by_id = {job["id"]: job for job in self.jobs}
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0
        self.reference = Reference()

    def run_job(self, job, round_name, tracer=None):
        """Run one job and check it.

        Returns its wall time less the reference timings taken inside it,
        and those timings (none while tracing, to keep spans clean).
        """
        paths = oracle.output_paths(job)
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        # start every job from the empty collector state a fresh CLI process
        # has, so the garbage of earlier jobs is not collected on its clock
        gc.collect()
        if tracer is not None:
            tracer.job = job["id"]
        with self.reference.sampling(enabled=tracer is None) as inside:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = self.cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed job, reported by name
                code = "raised " + traceback.format_exc(limit=-1).strip()
            elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.job = None

        texts = []
        for path in paths:
            try:
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            except OSError:
                texts.append(None)
        self.output_bytes += sum(len(t) for t in texts if t is not None)
        digest = hashlib.sha256(
            b"\0".join(t or b"" for t in texts) + str(code).encode()
        ).hexdigest()
        problems = oracle.check(job, self.facts[job["input"]], code,
                                err.getvalue(),
                                [None if t is None else t.decode()
                                 for t in texts])
        if out.getvalue():
            problems.append("wrote to stdout despite --output")
        reference = self.digests.setdefault(job["id"], digest)
        if digest != reference:
            problems.append("output differs from the first round")
        self.attempted += 1
        if problems:
            self.failures.append((job["id"], round_name, "; ".join(problems)))
        return elapsed - sum(inside), inside

    def run_round(self, round_name, tracer=None):
        """One pass over the job list.

        Returns {job id: (seconds, cost)}: the job's time from run_job, and
        that time over the mean of every reference timing from just before
        the job to just after it.
        """
        out = {}
        before = self.reference.bracket()
        for job in self.jobs:
            seconds, inside = self.run_job(job, round_name, tracer)
            after = self.reference.bracket()
            probes = before + inside + after
            out[job["id"]] = (seconds, seconds * len(probes) / sum(probes))
            before = after
        return out

    def run_rounds(self, seconds, label, tracer=None):
        """Rounds until `seconds` of job time have passed (at least one)."""
        rounds = []
        while not rounds or sum(
                t for r in rounds for t, _ in r.values()) < seconds:
            rounds.append(self.run_round(f"{label}{len(rounds)}", tracer))
        return rounds

    def best(self, rounds, which):
        """Each job's lowest time (which=0, s) or cost (1), per subcommand.

        Other tenants of a shared machine slow whole stretches of a run by
        a quarter or more; the fastest of a job's repeats is the estimate
        least disturbed by them, and summing per job keeps the mix of
        cheap and expensive jobs fixed.
        """
        totals = {}
        for job in self.jobs:
            low = min(r[job["id"]][which] for r in rounds)
            totals[job["sub"]] = totals.get(job["sub"], 0.0) + low
        return totals


class Reference:
    """A fixed computation, independent of helixkit, timed around each job.

    Other tenants of a shared machine contend for its caches and memory in
    bursts of a fraction of a second to minutes, slowing a job and this
    computation alike, so a job's time in units of the reference varies far
    less between runs than its time in seconds.  The reference mixes what
    the jobs do: building and sorting small Python objects, a numpy pass
    over a few hundred kilobytes and many tiny linear solves.  It is timed
    three times before and after each job and, from a timer signal, every
    SAMPLE_INTERVAL seconds inside it; the time spent inside is taken off
    the job's time.
    """

    def __init__(self):
        rng = random.Random(0)
        self.pairs = [(rng.random(), str(i)) for i in range(4000)]
        gen = np.random.default_rng(0)
        self.values = gen.random(20000)
        self.systems = [np.eye(2) + 0.1 * gen.random((2, 2))
                        for _ in range(150)]
        self.rhs = np.ones(2)

    def time(self):
        start = time.perf_counter()
        {key: value for value, key in self.pairs}
        sorted(self.pairs)
        np.sort(self.values)
        for a in self.systems:
            np.linalg.solve(a, self.rhs)
        return time.perf_counter() - start

    def bracket(self):
        return [self.time() for _ in range(3)]

    @contextlib.contextmanager
    def sampling(self, enabled):
        """Collect reference timings every SAMPLE_INTERVAL s of the block."""
        samples = []
        if not enabled:
            yield samples
            return
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame:
                                 samples.append(self.time()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def measure_setup(helix_path, work_dir):
    """Median wall time of fresh interpreters that run one analyze."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = os.path.join(work_dir, "setup.json")
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, helix_path,
                               out], env=env, capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up analyze exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
    return statistics.median(times), problems


def _print(workload, metrics):
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit_of(name)}")


def end_to_end(runner, args, work_dir):
    helix_path = os.path.join(work_dir, "setup_helix.json")
    with open(helix_path, "w") as fh:
        json.dump(inputs.circular_helix(3.0, 4.0)[0], fh)
    setup_s, setup_problems = measure_setup(helix_path, work_dir)
    for problem in setup_problems:
        runner.failures.append(("setup", "setup", problem))

    runner.run_round("warmup")
    rounds = runner.run_rounds(args.seconds, "round")
    metrics = {
        "setup_s": setup_s,
        "round_refs": sum(runner.best(rounds, 1).values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _print(runner.workload, metrics)
    _print(runner.workload, _seconds_metrics(runner, rounds))
    _print(runner.workload,
           {"error_rate": len(runner.failures) / runner.attempted})
    print(f"{runner.workload} rounds = {len(rounds)} "
          f"(+1 warm-up), {len(runner.jobs)} jobs each")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def _seconds_metrics(runner, rounds):
    """Round, throughput and per-subcommand figures in wall-clock time."""
    per_sub = {f"{sub}_ms": 1e3 * t
               for sub, t in runner.best(rounds, 0).items()}
    round_ms = sum(per_sub.values())
    return dict({"round_ms": round_ms,
                 "jobs_per_s": 1e3 * len(runner.jobs) / round_ms}, **per_sub)


def per_layer(runner, args, record):
    import helixkit
    from helixkit import cli, curve, expr, frenet, helix, hypersurf

    runner.run_round("warmup")
    plain = runner.run_rounds(args.seconds / 2.0, "plain")
    modules = [helixkit, expr, curve, frenet, helix, hypersurf, cli]
    rounds, layer_rounds, tracers, problems = [], [], [], []
    while not rounds or sum(
            t for r in rounds for t, _ in r.values()) < args.seconds / 2.0:
        tracer = tracing.Tracer(modules)
        bytes_before = runner.output_bytes
        tracer.install()
        try:
            rounds.append(runner.run_round(f"traced{len(rounds)}", tracer))
        finally:
            tracer.uninstall()
        counts = tracer.totals()
        layer = tracing.layer_metrics(tracer.spans, counts)
        layer["cli.output_bytes"] = runner.output_bytes - bytes_before
        layer.update(tracing.baseline_metrics(tracer.spans, runner.by_id))
        # the largest expression tree compiled: the end of the swell
        layer["baseline.swell_nodes"] = counts.get("expr.largest_tree", 0)
        layer_rounds.append(layer)
        tracers.append(tracer)

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    with open(os.path.join(WORK, "traces", f"{runner.workload}-seed"
                           f"{args.seed}-{os.getpid()}.jsonl"), "w") as fh:
        fh.write(json.dumps({"record": record}) + "\n")
        for i, tracer in enumerate(tracers):
            tracer.write(fh, f"traced{i}")

    metrics = {}
    for name in layer_rounds[0]:
        values = [layer[name] for layer in layer_rounds]
        if isinstance(values[0], int):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"count {name} differs between traced "
                                f"rounds: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (sum(runner.best(rounds, 1).values())
                                      / sum(runner.best(plain, 1).values())
                                      - 1.0)
    metrics.update({f"{sub}_ms": 0.0 for sub in SUBCOMMANDS})
    metrics.update(_seconds_metrics(runner, plain))

    for name in tracing.EXERCISED[runner.workload]:
        if not metrics[name]:
            problems.append(f"trace self-check: {name} is 0 on "
                            f"{runner.workload}")
    for problem in problems:
        runner.failures.append(("trace", "traced", problem))
    _print(runner.workload, metrics)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(name):
    """Unit of a metric, from its name."""
    units = {"setup_s": "s", "jobs_per_s": "jobs/s", "peak_rss_mb": "MB",
             "error_rate": "fraction", "round_refs": "refs"}
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_frac", "fraction"),
                         ("_bytes", "bytes"), ("_per_step", "calls/step")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "helixkit", "cli.py")):
        print(f"error: no helixkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    record = _record(args.seed, args.workload, args.trace)
    print("record " + json.dumps(record, sort_keys=True))
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        if args.trace:
            metrics = per_layer(runner, args, record)
        else:
            metrics = end_to_end(runner, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for job_id, round_name, problem in runner.failures:
        print(f"FAILED {job_id} ({round_name}): {problem}")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len({(j, r) for j, r, _ in runner.failures}),
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload in its own process and print one table."""
    status = 0
    for workload in inputs.WORKLOADS:
        results = []
        for _ in range(2 if args.trace else 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                break
            results.append(json.loads(lines[-1]))
            for line in lines[:-1]:
                if line.startswith(("FAILED", workload)) and \
                        len(results) == 1:
                    print(line)
        if len(results) == 2:
            for name in tracing.EXACT_COUNTS:
                a, b = (r["metrics"][name]["value"] for r in results)
                same = "repeats" if a == b else "DIFFERS"
                print(f"{workload} {name} {same} across two traced runs: "
                      f"{a} / {b}")
                status |= a != b
        if results and not results[0]["correct"]:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="job time to measure (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
