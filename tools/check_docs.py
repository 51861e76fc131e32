#!/usr/bin/env python3
"""Docs gate: internal links and architecture coverage.

Checks, over README.md and every docs/*.md:

  * every relative markdown link resolves to an existing file (or
    directory), and every `#anchor` — standalone or after a path — matches
    a GitHub-style heading slug in the target document;
  * every direct subdirectory of src/ is mentioned in docs/architecture.md
    (the layer map must not silently fall behind the tree);
  * every layer-defining header (LAYER_HEADERS below) exists and is
    mentioned by name in docs/architecture.md — adding a subsystem without
    documenting it fails the gate.

External links (http/https/mailto) are not fetched. Exits nonzero with a
list of every violation.

Usage:  check_docs.py [REPO_ROOT]
"""

import re
import sys
from pathlib import Path

# Headers that define an execution subsystem or a public layer boundary.
# architecture.md must name each one (by filename) so the layer story keeps
# pace with the code.
LAYER_HEADERS = [
    "src/common/thread_pool.hpp",
    "src/gpusim/vec.hpp",
    "src/gpusim/warp.hpp",
    "src/gpusim/launch.hpp",
    "src/gpusim/persistent.hpp",
    "src/gpusim/device.hpp",
    "src/core/iterate.hpp",
    "src/core/iterate_persistent.hpp",
    "src/core/chain.hpp",
    "src/core/shard.hpp",
    "src/core/config.hpp",
    "src/core/faultinject.hpp",
    "src/core/job.hpp",
    "src/core/autotune.hpp",
    "src/core/server.hpp",
    "src/perfmodel/latency_model.hpp",
]

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)


def heading_slugs(text):
    """GitHub-style anchor slugs of every heading in a markdown document."""
    slugs = set()
    seen = {}
    for m in HEADING_RE.finditer(CODE_FENCE_RE.sub("", text)):
        title = re.sub(r"`([^`]*)`", r"\1", m.group(1).strip())
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", title)  # strip links
        slug = re.sub(r"[^\w\- ]", "", title.lower(), flags=re.UNICODE)
        slug = slug.replace(" ", "-")
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(doc, root, errors):
    text = doc.read_text(encoding="utf-8")
    slug_cache = {doc: heading_slugs(text)}
    for m in LINK_RE.finditer(CODE_FENCE_RE.sub("", text)):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (doc.parent / path_part).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                errors.append(f"{doc}: link escapes the repo: {target}")
                continue
            if not resolved.exists():
                errors.append(f"{doc}: broken link: {target}")
                continue
        else:
            resolved = doc
        if anchor:
            if resolved.is_dir() or resolved.suffix.lower() not in (".md", ".markdown"):
                errors.append(f"{doc}: anchor on non-markdown target: {target}")
                continue
            if resolved not in slug_cache:
                slug_cache[resolved] = heading_slugs(resolved.read_text(encoding="utf-8"))
            if anchor.lower() not in slug_cache[resolved]:
                errors.append(f"{doc}: missing anchor: {target}")


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    errors = []
    missing = [str(d) for d in docs if not d.exists()]
    if missing:
        print("missing documents: " + ", ".join(missing))
        return 1

    for doc in docs:
        check_links(doc, root, errors)

    arch = (root / "docs" / "architecture.md").read_text(encoding="utf-8")
    for sub in sorted(p for p in (root / "src").iterdir() if p.is_dir()):
        name = sub.name
        if not re.search(rf"(src/)?{re.escape(name)}/", arch):
            errors.append(f"docs/architecture.md: src/{name}/ is not mentioned")

    for header in LAYER_HEADERS:
        if not (root / header).exists():
            errors.append(f"LAYER_HEADERS: {header} does not exist (stale list?)")
            continue
        # Word-bounded: "persistent.hpp" must not be satisfied by a mention
        # of "iterate_persistent.hpp".
        name = re.escape(Path(header).name)
        if not re.search(rf"(?<![\w_]){name}", arch):
            errors.append(f"docs/architecture.md: {header} is not mentioned")

    checked = len(docs)
    if errors:
        print(f"checked {checked} documents — {len(errors)} problem(s):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"checked {checked} documents — all internal links resolve, "
          f"architecture.md covers every src/ subdirectory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
