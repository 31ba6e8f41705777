#!/usr/bin/env python3
"""Line coverage of the engine under the tier-1 tests, standard library only.

Usage: python3 scripts/coverage.py

Runs the tests in this process under a ``sys.settrace`` tracer that watches
only the files of ``src/superdelta``, then prints every executable line of
them that never ran and that ``scripts/coverage_allow.txt`` does not
explain, and exits 1 if there is one.  An allowlist entry that matches no
unexecuted line is reported as stale, and fails the run too.  Code that runs
only in a subprocess is not seen.  A run takes about 100 s on a shared
2-vCPU host, too slow for the test suite itself.

Each entry of the allowlist is one line, ``file | source | reason``: the
file name under ``src/superdelta``, the source line as it reads with its
indentation stripped, and why it may stay unexecuted.  The file ends at the
first separator and the reason starts after the last, so a source line may
itself contain `` | ``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superdelta"
ALLOW = Path(__file__).resolve().parent / "coverage_allow.txt"


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiled code of path can execute, nested
    functions, classes and comprehensions included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 (a module's first instruction) and None stand for no line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def parse_allowlist(text: str) -> set[tuple[str, str]]:
    """The (file, stripped source) of each allowlist entry in text; an entry
    without a source or a reason is an error."""
    allow = set()
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            file, _, rest = line.partition(" | ")
            source, _, reason = rest.rpartition(" | ")
            if not (source.strip() and reason.strip()):
                raise SystemExit(f"allowlist entry is not file | source | reason: {line}")
            allow.add((file.strip(), source.strip()))
    return allow


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run the tests in process, tracing src/superdelta: pytest's exit code
    and the lines that ran, per file."""
    hits = {str(p): set() for p in sorted(SRC.glob("*.py"))}

    def local_tracer(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    tracers = {f: local_tracer(lines) for f, lines in hits.items()}

    def global_tracer(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(SRC.parent))
    import pytest

    sys.settrace(global_tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return code, hits


def main() -> int:
    if sys.argv[1:]:
        raise SystemExit("usage: python3 scripts/coverage.py (it takes no arguments)")
    if "superdelta" in sys.modules:
        raise SystemExit("superdelta was imported before tracing began")
    code, hits = run_traced()
    if not any(hits.values()):
        raise SystemExit(f"no line of {SRC} ran: the tests imported superdelta from elsewhere")
    allow, used = parse_allowlist(ALLOW.read_text()), set()
    allowed = unexplained = total = 0
    for file, ran in hits.items():
        path = Path(file)
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - ran):
            key = (path.name, source[n - 1].strip())
            if key in allow:
                used.add(key)
                allowed += 1
            else:
                unexplained += 1
                print(f"{path.name}:{n}: {key[1]}")
    stale = sorted(allow - used)
    for file, text in stale:
        print(f"stale allowlist entry: {file} | {text}")
    print(f"{total} executable lines in {SRC.relative_to(ROOT)}; {allowed} unexecuted and "
          f"allowlisted, {unexplained} unexplained; pytest exit code {code}")
    return 1 if unexplained or stale or code else 0


if __name__ == "__main__":
    sys.exit(main())
