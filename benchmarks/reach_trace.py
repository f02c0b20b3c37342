#!/usr/bin/env python3
"""Reach trace: which functions of a source tree does anything run?

``record`` runs a command with a profiling hook installed by a generated
``sitecustomize.py`` that leads ``PYTHONPATH``.  The hook
(``sys.setprofile`` plus ``threading.setprofile``) notes every code
object entered whose file lies under ``--root``.  Each process writes
its own record to ``--out`` as it exits: normal exits through
``atexit``, forked ``multiprocessing`` workers (pool workers) through
a ``multiprocessing`` finalizer registered after the fork.  Child
interpreters inherit the hook through the environment.
From the repository root::

    python benchmarks/reach_trace.py record --out reach/entry -- \\
        python -m repro demo quickstart
    python benchmarks/reach_trace.py record --out reach/tests -- \\
        python -m pytest -q -p no:cacheprovider

Each record also holds the SHA-256 of every source file it has hits
in, taken when the file's first function is entered.  ``report`` lists
every function under ``--root`` that no ``--entry`` record reached: the
ones a ``--tests`` record reached are *test-only*, the rest *never
run*.  Each comes with its body line count (the span of its ``def``,
nested functions counted on their own); stubs (a body of only a
docstring, ``pass``, ``...`` or ``raise NotImplementedError``, or an
``abstractmethod``) are flagged::

    python benchmarks/reach_trace.py report --entry reach/entry \\
        --tests reach/tests

A record keys each function by its line, so ``report`` exits 1, naming
the files, when a record's source hash differs from the file under
``--root`` now: re-record after editing a traced file.

Start each traced run from an empty ``REPRO_CACHE_DIR``: a warm artifact
cache hides the training code it skips.  A flag that no traced run
passes can make a function look test-only, so grep a candidate's
callers before deleting it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOT = os.path.join(ROOT, "src", "repro")
ROOT_ENV = "REACH_TRACE_ROOT"
OUT_ENV = "REACH_TRACE_OUT"

Key = Tuple[str, int, str]          # (path relative to root, first line, name)

SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_reach_trace", {path!r})
_module = _util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.install()
"""


# ------------------------------------------------------------------ record
def file_sha256(path: str) -> Optional[str]:
    """Hex SHA-256 of a file's bytes; None if it cannot be read."""
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def install() -> None:
    """Start recording in this process (called from ``sitecustomize``)."""
    import atexit
    import threading

    root = os.path.join(os.path.abspath(os.environ[ROOT_ENV]), "")
    out = os.environ[OUT_ENV]
    seen: Dict[int, object] = {}    # id(code) -> code, kept so ids stay unique
    hits: Set[Key] = set()
    sources: Dict[str, Optional[str]] = {}  # path -> SHA-256 at first entry

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                path = code.co_filename
                if path.startswith(root):
                    rel = path[len(root):]
                    if rel not in sources:
                        sources[rel] = file_sha256(path)
                    hits.add((rel, code.co_firstlineno, code.co_name))

    def flush() -> None:
        if hits:
            fd, path = tempfile.mkstemp(prefix=f"{os.getpid()}-",
                                        suffix=".json", dir=out)
            with os.fdopen(fd, "w") as f:
                json.dump({"sources": {p: sources[p] for p, _, _ in hits},
                           "hits": sorted(hits)}, f)
            hits.clear()

    def after_fork_in_child() -> None:
        # The parent writes what it saw before the fork; the child
        # records afresh and writes at its own exit.
        hits.clear()
        mp_util = sys.modules.get("multiprocessing.util")
        if mp_util is not None:
            # A multiprocessing child clears the finalizer registry after
            # the fork, then runs its after-fork hooks: register there.
            mp_util.register_after_fork(
                flush, lambda _: mp_util.Finalize(None, flush,
                                                  exitpriority=100))

    os.register_at_fork(after_in_child=after_fork_in_child)
    atexit.register(flush)
    threading.setprofile(hook)
    sys.setprofile(hook)


def record(command: List[str], out: str, root: str) -> int:
    """Run ``command`` under the hook; its records land in ``out``."""
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory() as hook_dir:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
            f.write(SITECUSTOMIZE.format(path=os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (hook_dir, env.get("PYTHONPATH")) if p)
        env[ROOT_ENV] = os.path.abspath(root)
        env[OUT_ENV] = os.path.abspath(out)
        return subprocess.call(command, env=env)


def _records(dirs: Iterable[str]) -> Iterator[dict]:
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".json"):
                with open(os.path.join(d, name)) as f:
                    yield json.load(f)


def load_records(dirs: Iterable[str]) -> Set[Key]:
    """Union of every record file's hits in ``dirs``."""
    keys: Set[Key] = set()
    for record in _records(dirs):
        keys.update((p, int(line), n) for p, line, n in record["hits"])
    return keys


def stale_sources(dirs: Iterable[str], root: str) -> List[str]:
    """Files whose hash in a record in ``dirs`` differs from ``root`` now."""
    recorded = {(path, digest) for record in _records(dirs)
                for path, digest in record["sources"].items()}
    return sorted({path for path, digest in recorded
                   if digest != file_sha256(os.path.join(root, path))})


# ------------------------------------------------------------------ report
class Function(NamedTuple):
    path: str
    line: int           # first line, decorators included (``co_firstlineno``)
    name: str
    lines: int          # ``def`` through the last line of the body
    stub: bool

    @property
    def key(self) -> Key:
        return (self.path, self.line, self.name)


def _is_stub(node) -> bool:
    for dec in node.decorator_list:
        target = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if target == "abstractmethod":
            return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            getattr(body[0], "value", None), ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if getattr(exc, "id", None) == "NotImplementedError":
                continue
        return False
    return True


def functions(root: str) -> List[Function]:
    """Every ``def`` under ``root``, methods and nested functions included."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            with open(path) as f:
                tree = ast.parse(f.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno]
                                + [d.lineno for d in node.decorator_list])
                    found.append(Function(rel, first, node.name,
                                          node.end_lineno - node.lineno + 1,
                                          _is_stub(node)))
    return sorted(found)


def classify(funcs: List[Function], entry: Set[Key],
             tests: Set[Key]) -> Dict[str, List[Function]]:
    groups: Dict[str, List[Function]] = {"entry": [], "test_only": [],
                                         "never_run": []}
    for fn in funcs:
        if fn.key in entry:
            groups["entry"].append(fn)
        elif fn.key in tests:
            groups["test_only"].append(fn)
        else:
            groups["never_run"].append(fn)
    return groups


def summary(groups: Dict[str, List[Function]]) -> dict:
    def total(fns):
        return {"functions": len(fns), "lines": sum(f.lines for f in fns)}

    never = groups["never_run"]
    per_file: Dict[str, Dict[str, int]] = {}
    for kind in ("test_only", "never_run"):
        for fn in groups[kind]:
            if kind == "never_run" and fn.stub:
                continue
            row = per_file.setdefault(fn.path, {"test_only": 0, "never_run": 0})
            row[kind] += fn.lines
    return {
        "all": total([f for fns in groups.values() for f in fns]),
        "entry": total(groups["entry"]),
        "test_only": total(groups["test_only"]),
        "never_run": total([f for f in never if not f.stub]),
        "never_run_stubs": total([f for f in never if f.stub]),
        "per_file": dict(sorted(per_file.items())),
    }


def format_report(groups: Dict[str, List[Function]]) -> str:
    s = summary(groups)
    out = [f"{s['all']['functions']} functions, {s['all']['lines']} body lines",
           f"entry points reach {s['entry']['functions']} "
           f"({s['entry']['lines']} lines)",
           f"test-only: {s['test_only']['functions']} "
           f"({s['test_only']['lines']} lines)",
           f"never run: {s['never_run']['functions']} non-stub "
           f"({s['never_run']['lines']} lines), plus "
           f"{s['never_run_stubs']['functions']} stubs "
           f"({s['never_run_stubs']['lines']} lines)", ""]
    for kind in ("never_run", "test_only"):
        out.append(f"{kind.replace('_', ' ')}:")
        for fn in groups[kind]:
            flag = "  [stub]" if fn.stub else ""
            out.append(f"  {fn.path}:{fn.line} {fn.name} {fn.lines}{flag}")
        out.append("")
    out.append("per file (test-only lines, never-run non-stub lines):")
    for path, row in s["per_file"].items():
        out.append(f"  {path} {row['test_only']} {row['never_run']}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run a command under the hook")
    rec.add_argument("--out", required=True, help="directory for records")
    rec.add_argument("--root", default=DEFAULT_ROOT,
                     help="source tree to trace (default src/repro)")
    rec.add_argument("command", nargs=argparse.REMAINDER,
                     help="the command, after --")
    rep = sub.add_parser("report", help="list what the records never reach")
    rep.add_argument("--entry", nargs="*", default=[],
                     help="record directories of entry-point runs")
    rep.add_argument("--tests", nargs="*", default=[],
                     help="record directories of test runs")
    rep.add_argument("--root", default=DEFAULT_ROOT)
    args = parser.parse_args(argv)

    if args.mode == "record":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("record needs a command after --")
        return record(command, args.out, args.root)

    stale = stale_sources(args.entry + args.tests, args.root)
    if stale:
        print(f"records traced other versions of {', '.join(stale)} than "
              f"{args.root} holds now; re-record them", file=sys.stderr)
        return 1
    print(format_report(classify(functions(args.root),
                                 load_records(args.entry),
                                 load_records(args.tests))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
