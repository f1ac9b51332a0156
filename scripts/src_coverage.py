#!/usr/bin/env python3
"""Source lines of the haleform package that the tier-1 tests never run.

Runs pytest in this process under a `sys.settrace` line tracer (the standard
library's; no coverage package is needed) and then, for each module of the
package, prints the executable lines that no test reached, as line numbers
and ranges of consecutive ones. A line is executable when some code object
compiled from the module maps bytecode to it (`co_lines`), so comments, blank
lines and the lines of a docstring inside a function are never listed; a
function that no test calls shows its body, not its `def` line, which runs at
import. A statement that spans lines shows as those of its lines that hold
bytecode.

Any arguments replace the default pytest arguments, `-q -p no:cacheprovider
tests`. The tests' own exit status is printed last; the script exits 0 either
way, since its list informs and gates nothing. Tracing slows the suite about
1.7 times (49 s against 29 s on a 2-vCPU x86-64 VM).

    PYTHONPATH=src python scripts/src_coverage.py
"""
import importlib.util
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the file at path."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as '3, 7-9, 12'."""
    out, lines = [], sorted(lines)
    for k, line in enumerate(lines):
        if k and line == lines[k - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv) -> int:
    import pytest

    root = Path(importlib.util.find_spec("haleform").submodule_search_locations[0])  # as imports name it
    modules = {str(path): path for path in sorted(root.glob("*.py"))}
    hit = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in hit:
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed_total = 0
    for name, path in modules.items():
        lines = executable_lines(path)
        missed = lines - hit[name]
        total, missed_total = total + len(lines), missed_total + len(missed)
        print(f"{path.name}: {len(missed)} of {len(lines)} lines never run" + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {missed_total} of {total} executable lines never run")
    print(f"tier-1 under the tracer: pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
