"""List the statements of src/helixkit that a pytest run never executes.

    python3 tools/line_coverage.py [PYTEST ARGUMENTS ...]

Runs pytest in this process with the given arguments, tracing only frames of
files in src/helixkit.  Then it prints, module by module, the first line of
every statement (found with ast) none of whose lines ran, and last the
total line count of src/helixkit, as `wc -l src/helixkit/*.py` gives it.
It exits with pytest's status, or with 1 when pytest passed but some
statement never ran.
A docstring is no statement; a compound statement's lines are those of its
header, decorators included.
"""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
PACKAGE = os.path.join(SRC, "helixkit", "")


def statements(tree):
    """(first line, lines spanned) of each statement but a bare string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            yield node.lineno, range(first, last + 1)


def line_count(package):
    """Newline-terminated lines of the package's modules, its .py files."""
    total = 0
    for module in os.listdir(package):
        if module.endswith(".py"):
            with open(os.path.join(package, module), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def main():
    ran, ours = set(), {}

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(PACKAGE)
        return line if ours[name] else None

    sys.path.insert(0, SRC)
    sys.settrace(call)
    try:
        status = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
    ran = {(os.path.abspath(name), n) for name, n in ran}
    unrun = 0
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            with open(PACKAGE + module) as fh:
                found = list(statements(ast.parse(fh.read())))
            missed = sorted(first for first, lines in found
                            if not any((PACKAGE + module, n) in ran for n in lines))
            unrun += len(missed)
            print(f"{module}: {len(missed)} of {len(found)} statements never ran"
                  + "".join(f"\n  {first}" for first in missed))
    print(f"src/helixkit: {line_count(PACKAGE)} lines")
    sys.exit(status or int(unrun > 0))


if __name__ == "__main__":
    main()
