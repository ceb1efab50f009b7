#!/usr/bin/env python3
"""Prints the repository's own Rust line count.

Counts the lines of every git-tracked ``*.rs`` file outside
``crates/vendor/`` (the in-tree dependency stand-ins) and ``e2ebench/``
(the end-to-end benchmark, a workspace of its own), tests included — the
figure CHANGES.md reports next to the test count. Below the total it
prints one line per top-level directory counted (``crates/<name>``,
``tests``, ``examples``, ``src``, ...), in name order, so a change's
per-crate delta is a diff of two runs. Run from anywhere inside the
repository:

    python3 ci/loc.py
"""

import subprocess
import sys
from collections import Counter

EXCLUDED = ("crates/vendor/", "e2ebench/")


def directory(path):
    """The top-level directory a file is counted under: ``crates/<name>``
    for a crate, the first path component otherwise (``.`` for files at
    the root)."""
    parts = path.split("/")
    if parts[0] == "crates" and len(parts) > 2:
        return "/".join(parts[:2])
    return parts[0] if len(parts) > 1 else "."


def main():
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    files = subprocess.run(
        ["git", "ls-files", "-z", "--", "*.rs"],
        check=True, capture_output=True, text=True, cwd=root,
    ).stdout.split("\0")
    per_dir = Counter()
    for path in files:
        if not path or path.startswith(EXCLUDED):
            continue
        with open(f"{root}/{path}", "rb") as f:
            per_dir[directory(path)] += f.read().count(b"\n")
    total = sum(per_dir.values())
    print(f"{total} lines of Rust outside {' and '.join(EXCLUDED)}")
    width = max(map(len, per_dir), default=0)
    for name, lines in sorted(per_dir.items()):
        print(f"  {name:<{width}}  {lines:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
