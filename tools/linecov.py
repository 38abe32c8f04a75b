"""Statement coverage of the `finpow` package over its test suite, on the
standard library alone.

Runs `pytest tests` in this process under `sys.settrace` and prints, for
each module of `src/finpow`, every statement that never ran, as
`path:line  source`, then a count.  Extra arguments go to pytest:

    python3 tools/linecov.py                     # the whole suite
    python3 tools/linecov.py -x -k power         # a part of it

A statement ran if some line event fell on one of its own lines: a simple
statement's lines from first to last, and a compound statement's header,
its decorators included, up to the line before its body.  Python reports a
multi-line header at the line it evaluates first, which need not be the
header's own first line, so events are mapped to these ranges and not
compared with `lineno`.  A statement on the same line as its header counts
as run when the header does.  Function docstrings, `global` and
`nonlocal` make no bytecode and are not listed.  Code that runs in a
subprocess (a CLI run through `subprocess`, say) is not traced.

The traced run is several times slower than a plain one, and a test that
enforces a wall-clock bound may fail under it; the script prints pytest's
exit status and exits with it.  The modules are read before the run; if
one has changed, appeared or gone by its end, the script names it and
exits 2 with no report, as its lines would be mapped to the wrong
statements.
"""
from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "finpow")


def statement_lines(tree: ast.Module) -> list:
    """(first line, own lines) of every statement that makes bytecode, in
    source order."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(fn.body[0]) for fn in ast.walk(tree)
        if isinstance(fn, functions) and ast.get_docstring(fn) is not None
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings or isinstance(
            node, (ast.Global, ast.Nonlocal)
        ):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        out.append((first, range(first, last + 1)))
    return sorted(out, key=lambda s: s[0])


def sources() -> dict:
    """The text of each module of the package, by file name."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                out[name] = f.read()
    return out


def main(argv: list) -> int:
    os.chdir(ROOT)
    # the report maps line events to the statements of these texts, so a
    # module edited during the run would be reported against the wrong ones
    before = sources()
    hits: set = set()
    traced: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        inside = traced.get(path)
        if inside is None:
            inside = traced[path] = os.path.dirname(os.path.abspath(path)) == PACKAGE
        return local if inside else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    after = sources()
    changed = sorted(name for name in before.keys() | after if before.get(name) != after.get(name))
    if changed:
        for name in changed:
            print(f"src/finpow/{name} changed during the run; no report", file=sys.stderr)
        return 2
    ran = {(os.path.abspath(path), line) for path, line in hits}
    missed = total = 0
    for name, text in before.items():
        path = os.path.join(PACKAGE, name)
        source = text.splitlines()
        spans = statement_lines(ast.parse(text))
        total += len(spans)
        for first, lines in spans:
            if not any((path, line) in ran for line in lines):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}  {source[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
