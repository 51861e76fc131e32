#!/usr/bin/env python3
"""Header reachability gate: no orphan header under src/.

Every src/**/*.hpp must be reached, through the transitive closure of
`#include "..."` directives, from at least one translation unit under
tests/, bench/, examples/ or perfbench/. A header nothing compiles against
is dead code the build never checks. Library .cpp files are not roots: a
header only they include is still unused by any caller.

An include resolves against the including file's directory first, then
against src/ (the library's include root). System includes (<...>) are
ignored. Exits nonzero with the list of orphans.

Usage:  check_reachability.py [REPO_ROOT]
"""

import re
import sys
from pathlib import Path

ROOT_DIRS = ("tests", "bench", "examples", "perfbench")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def includes(path, src):
    """The repo files `path` includes with quotes, resolved."""
    out = []
    for name in INCLUDE_RE.findall(path.read_text(encoding="utf-8", errors="replace")):
        for base in (path.parent, src):
            target = (base / name).resolve()
            if target.is_file():
                out.append(target)
                break
    return out


def main():
    root = (Path(sys.argv[1]) if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    roots = [p.resolve() for d in ROOT_DIRS for p in sorted((root / d).rglob("*.cpp"))]
    if not roots:
        print("no translation units found under " + ", ".join(ROOT_DIRS))
        return 1

    seen = set()
    stack = list(roots)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(includes(f, src))

    headers = sorted(p.resolve() for p in src.rglob("*.hpp"))
    orphans = [h for h in headers if h not in seen]
    if orphans:
        print(f"{len(orphans)} of {len(headers)} src/ headers are reached from no "
              f"{'/, '.join(ROOT_DIRS)}/ translation unit:")
        for h in orphans:
            print(f"  {h.relative_to(root)}")
        return 1
    print(f"all {len(headers)} src/ headers are reachable from {len(roots)} "
          f"translation units under {'/, '.join(ROOT_DIRS)}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
