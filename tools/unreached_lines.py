"""List the lines of ``src/ifmlab`` that the tier-1 tests never execute.

Run from anywhere, with the test dependencies installed:

    python tools/unreached_lines.py

It runs the tier-1 suite (``pytest -q tests``) in this interpreter under the
stdlib ``trace`` module with counting on, as ``python -m trace --count
--missing`` would, and prints each executable ``src/ifmlab`` line that no
test reached, as ``path:line: source``, then their number.  Tracing makes
the run about five times slower than plain tier-1, so it is not part of it.
The exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import tempfile
import trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MISSING = ">>>>>> "  # the prefix trace gives an executable line with no hits


def main() -> int:
    # ifmlab must not be imported before tracing starts, or its import-time
    # lines would read as unreached; the tests' subprocesses find it too
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import pytest

    # only src/ and the tests are traced, which keeps the slowdown down
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])

    def rearm(frame, event, arg):
        if sys.gettrace() is None:
            sys.settrace(tracer.globaltrace)

    def run_tests() -> int:
        # CPython turns a trace function off when it raises, as it does when
        # a test runs the stack into the recursion limit; the trace function
        # is called before the profile function, so a profile function that
        # turns tracing back on survives the limit
        sys.setprofile(rearm)
        try:
            return pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
        finally:
            sys.setprofile(None)

    code = tracer.runfunc(run_tests)
    unreached = []
    with tempfile.TemporaryDirectory() as coverdir:
        tracer.results().write_results(show_missing=True, coverdir=coverdir)
        for name in sorted(os.listdir(coverdir)):
            if not (name.startswith("ifmlab.") and name.endswith(".cover")):
                continue
            module = name[len("ifmlab."):-len(".cover")]
            path = os.path.join("src", "ifmlab", f"{module}.py")
            with open(os.path.join(coverdir, name)) as handle:
                for lineno, line in enumerate(handle, 1):
                    if line.startswith(MISSING):
                        unreached.append(f"{path}:{lineno}: {line[len(MISSING):].rstrip()}")
    print("\n".join(unreached))
    print(f"{len(unreached)} unreached lines in src/ifmlab")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
