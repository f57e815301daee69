"""Statement audit: run the Tier-1 suite under a line tracer and list every
statement of `src/cocyclespan` that it never ran.

    PYTHONPATH=src python tests/statement_audit.py

Statements are counted from the `ast` of each module (docstrings aside). A
simple statement ran when any of its lines produced a line event; a compound
statement (`if`, `for`, `def`, ...) when its header did, and a `try` when the
first statement of its body did. Only the tests run in this process count:
a command run as a subprocess is not traced.

Each module is read and parsed before the traced run, and its text is read
again after it: a module whose file changed meanwhile fails the audit, named,
since its line numbers no longer match the lines that ran. So does a run that
returns with another tracer, or none, in place of the audit's.

Exit 0 when every statement that did not run is on `ALLOWLIST`; else exit 1,
listing each one, and the same for an allowlist entry that matches no
statement left unrun, or more than one, and for a test run that did not pass.
pytest does not collect this file.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocyclespan"

# (module file name, enclosing function or class, statement text as
# `ast.unparse` writes it, the header line for a compound statement): each
# statement no Tier-1 test is meant to run, with the reason
ALLOWLIST = {
    ("cli.py", "", "sys.exit(main())"):
        "the `python -m cocyclespan.cli` entry; the tests call `main` directly",
    ("cli.py", "_run_pressure", "raise"):
        "self-check: a computed QM constant that inverts a bracket is a bug",
    ("quasimult.py", "empirical_qm",
     "raise AssertionError(f'empirical ratio {empirical[n]} fell below the certified bound "
     "{gamma.value}')"):
        "self-check: a measured connector ratio below the certified gamma is a bug",
    ("spannability.py", "_project_descend", "break"):
        "division guard: a descent step that lands exactly on the origin",
}


def statements(name: str, text: str) -> list[tuple[tuple[str, str, str], int, set[int]]]:
    """(key, first line, lines whose event shows that it ran) of each statement
    of the module file `name` whose source is `text`."""
    tree = ast.parse(text)
    out = []

    def visit(body, scope: str):
        for i, node in enumerate(body):
            if not isinstance(node, ast.stmt):  # an except handler: its body
                visit(node.body, scope)
                continue
            if (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring, or a string statement: no line event
            children = [c for field in ("body", "orelse", "handlers", "finalbody")
                        for c in getattr(node, field, [])]
            text = ast.unparse(node)
            if isinstance(node, ast.Try):
                lines = {node.body[0].lineno}
            elif children:
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                lines = set(range(start, max(min(c.lineno for c in children), node.lineno + 1)))
            else:
                lines = set(range(node.lineno, node.end_lineno + 1))
            if children:
                text = next(line for line in text.splitlines() if not line.startswith("@"))
            out.append(((name, scope, text), node.lineno, lines))
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                    ast.ClassDef)) else scope
            for field in ("body", "orelse", "handlers", "finalbody"):
                visit(getattr(node, field, []), inner)

    visit(tree.body, "")
    return out


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]], bool]:
    """pytest.main(args) under a line tracer on the package; (exit code, lines run
    per file, whether the tracer was still installed when the run returned)."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
        intact = sys.gettrace() is tracer
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran, intact


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    parsed = {path: statements(path.name, text) for path, text in sources.items()}
    code, ran, intact = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total, missed = 0, []
    for path, stmts in parsed.items():
        lines_run = ran.get(str(path), set())
        for key, line, lines in stmts:
            total += 1
            if not lines & lines_run:
                missed.append((key, line))
    allowed = Counter()
    failures = []
    for key, line in missed:
        where = f"{key[0]}:{line} ({key[1] or 'module'})  {key[2]}"
        if key in ALLOWLIST and not allowed[key]:
            allowed[key] += 1
            print(f"allowed  {where}  -- {ALLOWLIST[key]}")
        else:
            failures.append(f"not run  {where}")
    failures += [f"allowlist entry matches no statement left unrun: {key}"
                 for key in ALLOWLIST if not allowed[key]]
    if code != 0:
        failures.append(f"the traced test run exited {code}")
    failures += [f"{path.name} changed during the traced run" for path, text in sources.items()
                 if not path.is_file() or path.read_text() != text]
    if not intact:
        failures.append("the audit's tracer was replaced during the traced run")
    print(*failures, sep="\n")
    print(f"{total} statements, {len(missed)} not run, {sum(allowed.values())} of them allowlisted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
