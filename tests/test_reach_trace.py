"""The reach trace (``benchmarks/reach_trace.py``) on a two-function
fixture: a function run by the entry point in a forked worker, and one
run only by the test command."""

import importlib.util
import os
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "benchmarks", "reach_trace.py")


def _reach_trace():
    spec = importlib.util.spec_from_file_location("reach_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fixture(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(textwrap.dedent('''\
        def entry():
            return 1


        def tested():
            return 2
        '''))
    # The entry point runs `entry` only inside a forked worker, so the
    # record must come from the worker's exit.
    (tmp_path / "main.py").write_text(textwrap.dedent('''\
        import multiprocessing
        import sys

        sys.path.insert(0, sys.argv[1])
        from pkg import mod

        if __name__ == "__main__":
            worker = multiprocessing.get_context("fork").Process(
                target=mod.entry)
            worker.start()
            worker.join()
            sys.exit(worker.exitcode)
        '''))
    (tmp_path / "check.py").write_text(textwrap.dedent('''\
        import sys

        sys.path.insert(0, sys.argv[1])
        from pkg import mod

        assert mod.tested() == 2
        '''))
    return pkg


def _record(tmp_path, pkg, out, script):
    return subprocess.call(
        [sys.executable, SCRIPT, "record", "--root", str(pkg),
         "--out", str(tmp_path / out), "--", sys.executable,
         str(tmp_path / script), str(tmp_path)])


def test_reach_trace_classifies_entry_test_only_and_never_run(tmp_path):
    pkg = _fixture(tmp_path)
    assert _record(tmp_path, pkg, "entry", "main.py") == 0
    assert _record(tmp_path, pkg, "tests", "check.py") == 0

    rt = _reach_trace()
    funcs = rt.functions(str(pkg))
    assert [(f.name, f.lines, f.stub) for f in funcs] == [
        ("entry", 2, False), ("tested", 2, False)]
    entry = rt.load_records([str(tmp_path / "entry")])
    tests = rt.load_records([str(tmp_path / "tests")])
    assert ("mod.py", 1, "entry") in entry
    assert ("mod.py", 5, "tested") not in entry

    groups = rt.classify(funcs, entry, tests)
    assert [f.name for f in groups["entry"]] == ["entry"]
    assert [f.name for f in groups["test_only"]] == ["tested"]
    assert groups["never_run"] == []

    never = rt.summary(rt.classify(funcs, entry, set()))
    assert never["never_run"] == {"functions": 1, "lines": 2}
    assert never["per_file"] == {"mod.py": {"test_only": 0, "never_run": 2}}


def test_reach_trace_report_refuses_edited_sources(tmp_path, capsys):
    pkg = _fixture(tmp_path)
    assert _record(tmp_path, pkg, "entry", "main.py") == 0
    assert _record(tmp_path, pkg, "tests", "check.py") == 0
    rt = _reach_trace()
    args = ["report", "--root", str(pkg),
            "--entry", str(tmp_path / "entry"),
            "--tests", str(tmp_path / "tests")]
    assert rt.main(args) == 0
    capsys.readouterr()

    # One added line moves every function the records keyed by line.
    mod = pkg / "mod.py"
    mod.write_text('"""Edited after the trace."""\n' + mod.read_text())
    assert rt.main(args) == 1
    captured = capsys.readouterr()
    assert "mod.py" in captured.err
    assert captured.out == ""


def test_reach_trace_flags_stubs(tmp_path):
    (tmp_path / "stubs.py").write_text(textwrap.dedent('''\
        import abc


        class Base(abc.ABC):
            @abc.abstractmethod
            def run(self):
                ...

            def todo(self):
                """Not yet."""
                raise NotImplementedError

            def real(self):
                return 3
        '''))
    funcs = _reach_trace().functions(str(tmp_path))
    assert [(f.name, f.line, f.stub) for f in funcs] == [
        ("run", 5, True), ("todo", 9, True), ("real", 13, False)]
