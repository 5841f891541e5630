#!/usr/bin/env python3
"""Print each function of src/poissonenv that no compare_reports.py job enters.

Runs the jobs of scripts/compare_reports.py in-process with sys.setprofile
on inside cli.main only, so the fixture writers that prepare their inputs
do not count, then lists every function definition of the package (by AST,
methods and nested functions included) whose code never ran, with its line
count, and the totals:

    python3 scripts/unreached.py
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "scripts")]

from compare_reports import TMP, jobs, write_inputs  # noqa: E402
from poissonenv import cli  # noqa: E402


def main() -> int:
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add((os.path.realpath(frame.f_code.co_filename), frame.f_code.co_firstlineno))

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        # write_inputs validates through the CLI, which caches its parser
        cli.build_parser.cache_clear()
        for argv in jobs():
            with contextlib.redirect_stdout(io.StringIO()):
                sys.setprofile(profile)
                try:
                    cli.main(["--json", *(arg.replace(TMP, tmp) for arg in argv)])
                finally:
                    sys.setprofile(None)
    count = lines = 0
    for path in sorted((ROOT / "src" / "poissonenv").glob("*.py")):
        defs = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in sorted(defs, key=lambda node: node.lineno):
            # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (os.path.realpath(path), first) not in entered:
                size = node.end_lineno - first + 1
                count, lines = count + 1, lines + size
                print(f"{path.name}:{node.lineno} {node.name} ({size} lines)")
    print(f"{count} functions, {lines} lines, entered by none of {len(jobs())} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
