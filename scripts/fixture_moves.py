#!/usr/bin/env python3
"""List the keys of a test fixture whose bytes differ between two versions.

For each numeric key that moved, print max |new - old| and that divided by
max |old|, the key's largest magnitude; print digest (string) keys as
changed. Keys present in one file only are listed as added or removed.

    python scripts/fixture_moves.py OLD.npz NEW.npz

A typical use compares a fixture before and after regenerating it:

    git show HEAD:tests/data/golden.npz > /tmp/golden_old.npz
    PYTHONPATH=src python tests/test_golden.py
    python scripts/fixture_moves.py /tmp/golden_old.npz tests/data/golden.npz
"""
import sys

import numpy as np


def moves(old: dict, new: dict) -> list[str]:
    lines = [f"{key}: removed" for key in sorted(old.keys() - new.keys())]
    lines += [f"{key}: added" for key in sorted(new.keys() - old.keys())]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        if a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes():
            continue
        if a.dtype.kind not in "fc" or a.shape != b.shape:
            lines.append(f"{key}: changed")
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))  # NaN where both hold NaN is no move
        delta = float(np.max(np.where(same, 0.0, np.abs(b - a))))
        scale = float(np.nanmax(np.abs(a)))
        rel = delta / scale if scale > 0.0 else float("inf")
        lines.append(f"{key}: max |delta| {delta:.3g}, of max |value| {rel:.3g}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with np.load(argv[0]) as old, np.load(argv[1]) as new:
        lines = moves({k: old[k] for k in old.files}, {k: new[k] for k in new.files})
    print("\n".join(lines) if lines else "no key moved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
