#!/usr/bin/env python3
"""Project convention lint, run in CI (tools/lint_conventions.py [root]).

Checks, over src/, tests/, examples/, and bench/:

  1. every header uses `#pragma once`;
  2. no `using namespace` at any scope inside a header (headers leak into
     every consumer's scope);
  3. no raw `new` / `delete` in src/ — containers and smart pointers own
     memory (explicitly allowlisted: the aligned allocator, which must call
     `::operator new`, and the two intentionally-leaky observability
     singletons);
  4. project headers are included by their src/-relative path with quotes
     (`#include "core/dataflow.hpp"`), never by a bare filename or a
     relative `../` path, so every include names one unambiguous file;
  5. no `getenv(` in src/, examples/ or bench/ outside src/util/env.cpp —
     every MPAS_* variable is declared in util/env.hpp and read through its
     typed readers (bench/e2e is a separate program that only sets them).

Exit code = number of violations.
"""
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "tests", "examples", "bench")
HEADER_SUFFIXES = {".hpp", ".h"}
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}

# path (relative to repo root) -> reason raw new/delete is allowed there.
RAW_NEW_ALLOWLIST = {
    "src/util/aligned_vector.hpp": "aligned allocator wraps ::operator new",
    "src/obs/metrics.cpp": "intentionally leaky process-lifetime singleton",
    "src/obs/trace.cpp": "intentionally leaky process-lifetime singleton",
    "src/obs/profiling/perf_profiler.cpp":
        "intentionally leaky process-lifetime singleton",
    "src/analysis/lock_order.cpp":
        "intentionally leaky process-lifetime singleton",
}

# The one file that reads the process environment.
GETENV_HOME = "src/util/env.cpp"
GETENV_DIRS = ("src/", "examples/", "bench/")
GETENV_EXEMPT = ("bench/e2e/",)

GETENV_RE = re.compile(r"\bgetenv\s*\(")
RAW_NEW_RE = re.compile(r"(?<![:\w])(new|delete)\b(?!\s*\()")
DELETED_MEMBER_RE = re.compile(r"=\s*delete\s*(\[\s*\])?\s*;")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
COMMENT_RE = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    return COMMENT_RE.sub("", line)


def lint_file(root: Path, path: Path, project_headers: set) -> list:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    problems = []

    if path.suffix in HEADER_SUFFIXES and "#pragma once" not in text:
        problems.append(f"{rel}: header is missing '#pragma once'")

    for n, line in enumerate(lines, 1):
        code = strip_comment(line)

        if path.suffix in HEADER_SUFFIXES and USING_NAMESPACE_RE.match(code):
            problems.append(
                f"{rel}:{n}: 'using namespace' in a header leaks into every "
                "consumer")

        if (rel.startswith("src/") and rel not in RAW_NEW_ALLOWLIST
                and RAW_NEW_RE.search(DELETED_MEMBER_RE.sub(";", code))):
            problems.append(
                f"{rel}:{n}: raw new/delete in src/ — use containers or "
                "smart pointers")

        if (rel.startswith(GETENV_DIRS) and not rel.startswith(GETENV_EXEMPT)
                and rel != GETENV_HOME and GETENV_RE.search(code)):
            problems.append(
                f"{rel}:{n}: getenv outside {GETENV_HOME} — declare the "
                "variable in util/env.hpp and read it with env::flag, "
                "env::integer or env::text")

        m = INCLUDE_RE.match(code)
        if m:
            inc = m.group(1)
            if inc.startswith(("../", "./")):
                problems.append(
                    f"{rel}:{n}: relative include \"{inc}\" — include "
                    "project headers by their src/-relative path")
            elif "/" not in inc and inc in project_headers:
                problems.append(
                    f"{rel}:{n}: bare include \"{inc}\" is ambiguous — use "
                    "the src/-relative path")
            elif "/" in inc and not (root / "src" / inc).exists():
                problems.append(
                    f"{rel}:{n}: include \"{inc}\" does not resolve under "
                    "src/ — quoted includes are for project headers")
    return problems


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    root = root.resolve()

    project_headers = {
        p.name for p in (root / "src").rglob("*")
        if p.suffix in HEADER_SUFFIXES
    }

    problems = []
    for top in SOURCE_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                problems.extend(lint_file(root, path, project_headers))

    for p in problems:
        print(p)
    print(f"lint_conventions: {len(problems)} violation(s)")
    return min(len(problems), 255)


if __name__ == "__main__":
    sys.exit(main())
