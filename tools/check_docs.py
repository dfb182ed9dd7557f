#!/usr/bin/env python3
"""Doc lint: repository paths and relative links in *.md must resolve.

Checks every Markdown file in the repository (skipping build trees) for:

  1. repo-relative path references — any token that looks like
     ``src/...``, ``docs/...``, ``bench/...``, ``tests/...``,
     ``tools/...`` or ``examples/...`` must name something that exists.
     Brace sets expand (``core/module.{h,cpp}``), ``*`` globs
     (``core/family.*``, ``bench/bench_*``) must match at least one
     file, and bare directory references (``src/obs/``) must be
     directories.
  2. relative Markdown links — ``[text](other.md)`` and
     ``[text](other.md#anchor)`` must point at an existing file.
  3. docs-index completeness — every ``docs/*.md`` must be referenced
     from the README's documentation table, so a new document cannot
     land without an entry point.
  4. architecture-index completeness — every ``src/<subsystem>/``
     directory must be mentioned in the README (the Architecture
     block), so a new subsystem cannot land undocumented.
  5. CLI-flag staleness — inside fenced code blocks, ``--passes=X`` /
     ``--engine=X`` values must be levels the CLI actually accepts,
     and a spelled-out value set (``--passes={a|b|...}``) must EQUAL
     the CLI's set. The truth is parsed from the usage text in
     ``examples/scnet_cli.cpp`` (a static read, so the doc-lint CI job
     needs no build).

Exit status 0 when everything resolves, 1 with one line per dangling
reference otherwise. Run from anywhere:

    python3 tools/check_docs.py
"""

from __future__ import annotations

import glob
import itertools
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories whose *.md we lint (repo root + these, recursively).
DOC_DIRS = ["docs", "tools", "bench", "tests", "examples", "src", ".github"]
SKIP_DIR_PARTS = {"build", "build-obs-off", ".git", "related"}

# A path reference: a known top-level dir, then path characters. Brace
# sets ({h,cpp}) are matched as a unit; a trailing '/' marks a directory.
PATH_RE = re.compile(
    r"\b(?:src|docs|bench|tests|tools|examples)/"
    r"(?:[\w.\-*]+(?:\{[\w.,]+\})?/?)+"
)

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

# Benchmarks and tests are referenced by target name ("bench_depth_k"),
# and prose sometimes names a path that is a *concept* rather than a
# file; list deliberate exceptions here. The deleted SIMD kernels,
# topology layer, autotuner, service front end, network planner,
# contention-model bench, depth-optimal rewrite pass and sorter library,
# and the pass pipeline stay named by the change history, which records
# what was removed.
ALLOWED_MISSING: set[str] = {
    "src/engine/simd_kernels.h",
    "src/topo/",
    "docs/topology.md",
    "src/tune/",
    "tests/tune_test.cpp",
    "docs/tuning.md",
    "src/service/front_end.{h,cpp}",
    "src/core/planner.{h,cpp}",
    "tests/planner_test.cpp",
    "bench/bench_contention_model.cpp",
    "src/opt/peephole.cpp",
    "src/opt/optimal_lib.{h,cpp}",
    "src/opt/optimal_lib",
    "tests/peephole_test.cpp",
    "tests/optimal_lib_test.cpp",
    "bench/bench_depth_opt.cpp",
    "docs/optimal_networks.md",
    "src/opt/pass*",
    "src/opt/pass.{h,cpp}",
    "src/opt/passes.{h,cpp}",
    "bench/bench_passes.cpp",
    "tests/opt_passes_test.cpp",
    "docs/passes.md",
}


def md_files() -> list[Path]:
    files = sorted(REPO.glob("*.md"))
    for d in DOC_DIRS:
        files.extend(sorted((REPO / d).rglob("*.md")))
    return [
        f
        for f in files
        if not SKIP_DIR_PARTS.intersection(f.relative_to(REPO).parts)
    ]


def expand_braces(ref: str) -> list[str]:
    """core/module.{h,cpp} -> [core/module.h, core/module.cpp]."""
    parts = re.split(r"(\{[\w.,]+\})", ref)
    options = [
        p[1:-1].split(",") if p.startswith("{") else [p] for p in parts
    ]
    return ["".join(combo) for combo in itertools.product(*options)]


def resolve(ref: str) -> bool:
    """True when the repo-relative reference names something real."""
    for candidate in expand_braces(ref):
        want_dir = candidate.endswith("/")
        candidate = candidate.rstrip("/")
        if "*" in candidate:
            if not glob.glob(str(REPO / candidate)):
                return False
            continue
        path = REPO / candidate
        # "src/core/family" (no extension) abbreviates family.h/.cpp;
        # accept any extension-completed match.
        if want_dir:
            if not path.is_dir():
                return False
        elif not path.exists() and not glob.glob(str(path) + ".*"):
            return False
    return True


def strip_punctuation(ref: str) -> str:
    return ref.rstrip(".,;:")


def check_docs_index(errors: list[str]) -> None:
    """Every docs/*.md must be mentioned in README.md (the docs table)."""
    readme = REPO / "README.md"
    text = readme.read_text(encoding="utf-8")
    for doc in sorted((REPO / "docs").glob("*.md")):
        ref = doc.relative_to(REPO).as_posix()
        if ref not in text:
            errors.append(
                f"README.md: docs index is missing an entry for {ref!r}"
            )


def check_architecture_index(errors: list[str]) -> None:
    """Every src/<subsystem>/ directory must be mentioned in README.md."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    for sub in sorted((REPO / "src").iterdir()):
        if not sub.is_dir():
            continue
        if f"{sub.name}/" not in text:
            errors.append(
                "README.md: Architecture block is missing an entry for "
                f"'src/{sub.name}/'"
            )


def cli_flag_sets() -> dict[str, set[str]]:
    """Allowed value sets for --passes / --engine, parsed from the CLI's
    usage text. Adjacent string literals are joined first so a brace set
    split across source lines still parses as one unit."""
    source = (REPO / "examples" / "scnet_cli.cpp").read_text(
        encoding="utf-8"
    )
    joined = re.sub(r'"\s*"', "", source)
    sets: dict[str, set[str]] = {}
    for flag in ("passes", "engine"):
        match = re.search(r"--" + flag + r"=\{([\w|]+)\}", joined)
        if match:
            sets[flag] = set(match.group(1).split("|"))
    return sets


CLI_FLAG_RE = re.compile(r"--(passes|engine)=(\{[^}\s]*\}|[\w-]+)")


def check_cli_flags(
    md: Path,
    text: str,
    sets: dict[str, set[str]],
    errors: list[str],
) -> None:
    """Fenced-code CLI flag references must match what the CLI accepts."""
    rel_md = md.relative_to(REPO)
    fenced = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            continue
        for match in CLI_FLAG_RE.finditer(line):
            flag, value = match.group(1), match.group(2)
            allowed = sets.get(flag)
            if allowed is None:
                errors.append(
                    f"{rel_md}:{lineno}: no usage value set for --{flag} "
                    "in examples/scnet_cli.cpp"
                )
            elif value.startswith("{"):
                listed = set(value[1:-1].split("|"))
                if listed != allowed:
                    errors.append(
                        f"{rel_md}:{lineno}: stale --{flag} value set "
                        f"{sorted(listed)} (CLI accepts {sorted(allowed)})"
                    )
            elif value not in allowed:
                errors.append(
                    f"{rel_md}:{lineno}: '--{flag}={value}' is not a CLI "
                    f"value (accepts {sorted(allowed)})"
                )


def main() -> int:
    errors: list[str] = []
    check_docs_index(errors)
    check_architecture_index(errors)
    flag_sets = cli_flag_sets()
    for md in md_files():
        rel_md = md.relative_to(REPO)
        text = md.read_text(encoding="utf-8")
        check_cli_flags(md, text, flag_sets, errors)
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in PATH_RE.finditer(line):
                ref = strip_punctuation(match.group(0))
                if ref in ALLOWED_MISSING:
                    continue
                if not resolve(ref):
                    errors.append(f"{rel_md}:{lineno}: dangling path {ref!r}")
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if "://" in target or target.startswith("mailto:"):
                    continue
                if not (md.parent / target).exists():
                    errors.append(
                        f"{rel_md}:{lineno}: dangling link {target!r}"
                    )
    for err in errors:
        print(err)
    if errors:
        print(f"check_docs: {len(errors)} dangling reference(s)")
        return 1
    print(f"check_docs: OK ({len(md_files())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
