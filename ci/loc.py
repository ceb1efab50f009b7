#!/usr/bin/env python3
"""Prints the repository's own Rust line count.

Counts the lines of every git-tracked ``*.rs`` file outside
``crates/vendor/`` (the in-tree dependency stand-ins) and ``e2ebench/``
(the end-to-end benchmark, a workspace of its own), tests included — the
figure CHANGES.md reports next to the test count. Run from anywhere inside
the repository:

    python3 ci/loc.py
"""

import subprocess
import sys

EXCLUDED = ("crates/vendor/", "e2ebench/")


def main():
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    files = subprocess.run(
        ["git", "ls-files", "-z", "--", "*.rs"],
        check=True, capture_output=True, text=True, cwd=root,
    ).stdout.split("\0")
    total = 0
    for path in files:
        if not path or path.startswith(EXCLUDED):
            continue
        with open(f"{root}/{path}", "rb") as f:
            total += f.read().count(b"\n")
    print(f"{total} lines of Rust outside {' and '.join(EXCLUDED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
