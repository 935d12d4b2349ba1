"""What of ``src/`` does regenerating the paper reach?

Renders all ten experiments at the pinned configuration
(``repro-experiments --seed 31 --scale 0.04``) and reports which
``repro`` modules the run never imports and, in process, which
functions it never enters, each with its line count and the share of
``src/`` it represents.  The render must equal the pinned fixture
``tests/fixtures/experiments_seed31_scale0.04.txt``; the script exits 1
otherwise (and 2 if ``repro`` was not imported from ``ROOT/src``), so
a report is only ever made from a run that regenerated the paper.

Usage::

    python benchmarks/reachability.py [ROOT] [--workers N]

``ROOT`` is the repository to measure (default: the one holding this
script), so the same script can measure another checkout.  With
``--workers 1`` (the default) the run stays in this process and runs
under :func:`sys.setprofile`, which records every function entered.
With ``--workers N`` campaigns fan out to worker processes, whose calls
the profile hook cannot see, so only the modules this (parent) process
imported are reported.  Module line counts are whole-file lines.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path
from types import CodeType

#: The pinned render's command line and fixture, relative to ROOT.
PIN_ARGS = ["--seed", "31", "--scale", "0.04"]
FIXTURE = Path("tests/fixtures/experiments_seed31_scale0.04.txt")


def module_files(src: Path) -> dict[str, Path]:
    """Every ``repro`` module under ``src``, by dotted name."""
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def line_count(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def render(workers: int) -> tuple[str, set[tuple[str, int, str]]]:
    """The pinned render, and the ``(file, first line, name)`` of every
    function entered (empty unless ``workers`` is 1)."""
    from repro.experiments import runner

    entered: set[CodeType] = set()

    def hook(frame, event, _arg, _add=entered.add):
        if event == "call":
            _add(frame.f_code)

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if workers == 1:
            sys.setprofile(hook)
        try:
            runner.main([*PIN_ARGS, "--workers", str(workers)])
        finally:
            sys.setprofile(None)
    return out.getvalue(), {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}


def unentered_functions(
    path: Path, entered: set[tuple[str, int, str]]
) -> list[tuple[str, int]]:
    """``(qualified name, lines)`` of the outermost functions in ``path``
    that the run never entered (a function nested in one is not listed
    again: it cannot have run either)."""
    filename = str(path)
    found: list[tuple[str, int]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # co_firstlineno is the first decorator's line.
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = f"{prefix}{child.name}"
                if (filename, first, child.name) in entered:
                    walk(child, f"{name}.")
                else:
                    found.append((name, (child.end_lineno or first) - first + 1))
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8"), filename), "")
    return found


def share(lines: int, total: int) -> str:
    return f"{lines:,} of {total:,} src/ lines ({100 * lines / total:.1f}%)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render the pinned paper artifacts and list the repro "
        "modules and functions the run never reaches."
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=str(Path(__file__).resolve().parents[1]),
        help="repository root to measure (default: this script's repository)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign worker processes (1 = in process, with function coverage)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    modules = module_files(src)
    lines = {name: line_count(path) for name, path in modules.items()}
    total = sum(lines.values())

    text, entered = render(args.workers)
    if not Path(sys.modules["repro"].__file__ or "").is_relative_to(src):
        print(f"reachability: repro was not imported from {src}", file=sys.stderr)
        return 2
    fixture = (root / FIXTURE).read_text(encoding="utf-8")
    matches = text == fixture

    where = "in process" if args.workers == 1 else "in the parent process"
    print(f"root: {root}")
    print(f"run: repro-experiments {' '.join(PIN_ARGS)} --workers {args.workers}")
    print(f"render {'equals' if matches else 'DIFFERS FROM'} {FIXTURE}")
    print()
    unimported = sorted(name for name in modules if name not in sys.modules)
    print(f"modules never imported {where} ({len(unimported)} of {len(modules)}):")
    for name in sorted(unimported, key=lambda n: (-lines[n], n)):
        print(f"  {lines[name]:6,}  {name}")
    print(f"  {share(sum(lines[n] for n in unimported), total)}")

    if args.workers == 1:
        rows = [
            (count, f"{name}.{function}")
            for name in sorted(modules)
            if name in sys.modules
            for function, count in unentered_functions(modules[name], entered)
        ]
        print()
        print(f"functions never entered in imported modules ({len(rows)}):")
        for count, qualname in sorted(rows, key=lambda r: (-r[0], r[1])):
            print(f"  {count:6,}  {qualname}")
        print(f"  {share(sum(count for count, _ in rows), total)}")

    if not matches:
        print(f"reachability: the render differs from {FIXTURE}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
