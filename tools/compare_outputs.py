"""Compare the CLI outputs of two source trees over the benchmark jobs.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  For each tree, one fresh
interpreter writes the inputs of every job of every workload for seeds 1 and
3 with that tree's bench/inputs.py (read, never written: bytecode caching is
off), runs each job through that tree's helixkit.cli.main with relative
paths, and reports exit codes, stdout and stderr.  The script then prints
every job whose exit code, stdout or stderr differs and every output file
whose bytes differ; for a JSON or CSV file it also prints the largest
absolute change of each field path or column.  Exits 0 when both trees agree
on everything, 1 when they do not, and 2 when they could not be compared.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile

SEEDS = ("1", "3")

RUN_JOBS = r"""
import contextlib, io, json, os, sys
tree, work, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
import inputs
import helixkit
from helixkit import cli
os.chdir(work)
results = {"helixkit": os.path.abspath(helixkit.__file__), "jobs": {}}
for workload in inputs.WORKLOADS:
    for seed in seeds:
        jobs, _ = inputs.generate(workload, int(seed), f"{workload}-{seed}")
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded without paths, which differ
                code = f"raised {type(exc).__name__}: {exc}"
            results["jobs"][f"{workload}-{seed}/{job['id']}"] = {
                "exit": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}
json.dump(results, sys.stdout)
"""


def fail(message):
    """Stop with exit status 2: the trees could not be compared."""
    print(message, file=sys.stderr)
    sys.exit(2)


def run_tree(tree, work):
    """Run every job of `tree` inside `work`; returns the job results."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN_JOBS, tree, work, *SEEDS],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        fail(f"jobs of {tree} did not run:\n{proc.stderr}")
    results = json.loads(proc.stdout)
    src = os.path.join(os.path.abspath(tree), "src") + os.sep
    if not results["helixkit"].startswith(src):
        fail(f"{tree} imported helixkit from {results['helixkit']}")
    return results["jobs"]


def files_under(root):
    """Relative path -> bytes of every file below root."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_changes(a, b, path, changes):
    """Largest |b - a| per field path, list indices folded into [].

    A "changed" (of type, an int against a float included, of shape or of a
    dict's key order) or a nan change (one side nan), once recorded for a
    path, is kept.
    """
    if _number(a) and _number(b) and type(a) is type(b):
        same = a == b or (math.isnan(a) and math.isnan(b))
        d = 0.0 if same else abs(b - a)      # nan where one side is nan
        old = changes.get(path, 0.0)
        if not (isinstance(old, str) or math.isnan(old) or d <= old):
            changes[path] = d
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        if list(a) != list(b):
            changes[path] = "changed"
        for key in a:
            json_changes(a[key], b[key], f"{path}.{key}" if path else key,
                         changes)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            json_changes(x, y, f"{path}[]", changes)
    elif a != b or type(a) is not type(b):
        changes[path] = "changed"


def _cells(text):
    """CSV rows with every cell that reads as a float converted to one."""
    rows = []
    for row in csv.reader(text.splitlines()):
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def csv_changes(a, b):
    """Largest |b - a| per column of two CSV texts of the same shape.

    A row that starts with a text label, such as the key of a key,value
    table, is reported per label and column.
    """
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b] or not rows_a:
        return {"(shape)": "changed"}
    header = rows_a[0] if rows_a[0] == rows_b[0] else None
    changes = {}
    for row_a, row_b in zip(rows_a[1:] if header else rows_a,
                            rows_b[1:] if header else rows_b):
        label = row_a[0] if isinstance(row_a[0], str) else None
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            name = str(header[j]) if header else f"column {j + 1}"
            json_changes(x, y, f"{label}.{name}" if label else name, changes)
    return changes


def field_changes(path, a, b):
    """Per-field changes of a differing output file; empty if unparsed."""
    try:
        if path.endswith(".json"):
            changes = {}
            json_changes(json.loads(a), json.loads(b), "", changes)
            return changes
        if path.endswith(".csv"):
            return csv_changes(a.decode(), b.decode())
    except (ValueError, UnicodeDecodeError):
        pass
    return {}


def main():
    if len(sys.argv) != 3:
        fail("usage: " + __doc__.splitlines()[2].strip())
    trees = sys.argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        works = [os.path.join(tmp, side) for side in ("parent", "change")]
        jobs, files = [], []
        for tree, work in zip(trees, works):
            os.mkdir(work)
            jobs.append(run_tree(os.path.abspath(tree), work))
            files.append(files_under(work))

    problems = 0
    for key in sorted(jobs[0].keys() | jobs[1].keys()):
        a, b = jobs[0].get(key), jobs[1].get(key)
        if a != b:
            problems += 1
            print(f"JOB {key}")
            for field in ("exit", "stdout", "stderr"):
                old = None if a is None else a[field]
                new = None if b is None else b[field]
                if old != new:
                    print(f"    {field}: {old!r} -> {new!r}")
    for path in sorted(files[0].keys() | files[1].keys()):
        a, b = files[0].get(path), files[1].get(path)
        if a == b:
            continue
        problems += 1
        if a is None or b is None:
            print(f"FILE {path}: only in the "
                  f"{'change' if a is None else 'parent'} tree")
            continue
        print(f"FILE {path}: bytes differ")
        for field, change in sorted(field_changes(path, a, b).items()):
            if change != 0.0:
                text = change if isinstance(change, str) else f"{change:.3g}"
                print(f"    {field or '(value)'}: max |change| {text}")

    print(f"{len(jobs[1])} jobs and {len(files[1])} files compared on seeds "
          f"{', '.join(SEEDS)}: {problems} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
