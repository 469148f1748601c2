#!/usr/bin/env python3
"""Fail when a CLI flag exists in the binaries but not in the README.

Every tool and bench declares its accepted flags explicitly:

  - ``args.checkUnknown({"flag", ...})`` calls in ``tools/*.cc``,
    ``bench/*.cc`` and ``examples/*.cpp``;
  - the ``known = {...}`` base list and ``known.push_back("...")``
    additions in ``bench/common.h``, and the extra-flag lists benches
    pass to ``BenchOptions::parse(argc, argv, units, {"flag", ...})``.

This script extracts that set and asserts each flag appears as
``--flag`` in README.md's "CLI flag reference" table, and that every
row of that table names a declared flag, so the table can rot neither
when someone adds a flag nor when someone deletes one.

The same mechanism covers the engine registry: every kind registered
in ``src/models/engines.cc`` (``registerEngine("kind", ...)``) must
appear as a ``| `kind` |`` row of README.md's engine table, and every
such row must name a registered kind — stale rows fail too.

It also dead-link-checks the documentation: every relative markdown
link in README.md, docs/ARCHITECTURE.md, and CHANGES.md must resolve
to an existing file (links are rooted at the linking file's own
directory, falling back to the repo root for CHANGES.md-style
repo-rooted links). Source comments and strings get the same check:
every ``*.md`` name cited in ``src/ tests/ bench/ examples/ tools/``
sources must name an existing file, relative to the repo root or to
the citing file's directory. Run from anywhere:

    python3 tools/check_docs_drift.py
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (glob roots, pattern) pairs that declare flags.
SOURCE_GLOBS = [
    ("tools", "*.cc"),
    ("bench", "*.cc"),
    ("bench", "*.h"),
    ("examples", "*.cpp"),
]

CHECK_UNKNOWN_RE = re.compile(
    r"checkUnknown\s*\(\s*\{(?P<body>[^}]*)\}", re.DOTALL
)
KNOWN_LIST_RE = re.compile(
    r"std::vector<std::string>\s+known\s*=\s*\{(?P<body>[^}]*)\}",
    re.DOTALL,
)
PUSH_BACK_RE = re.compile(r'known\.push_back\("(?P<flag>[a-z0-9-]+)"\)')
EXTRA_FLAGS_RE = re.compile(
    r"BenchOptions::parse\s*\([^;{]*\{(?P<body>[^}]*)\}", re.DOTALL
)
STRING_RE = re.compile(r'"([a-z0-9-]+)"')


def declared_flags():
    """Map of flag -> sorted list of files declaring it."""
    flags = {}

    def add(flag, source):
        flags.setdefault(flag, set()).add(source)

    for root, pattern in SOURCE_GLOBS:
        for path in sorted((REPO / root).glob(pattern)):
            text = path.read_text(encoding="utf-8")
            rel = path.relative_to(REPO).as_posix()
            bodies = [
                m.group("body")
                for m in CHECK_UNKNOWN_RE.finditer(text)
            ]
            for regex in (KNOWN_LIST_RE, EXTRA_FLAGS_RE):
                bodies += [m.group("body") for m in regex.finditer(text)]
            for body in bodies:
                for flag in STRING_RE.findall(body):
                    add(flag, rel)
            for m in PUSH_BACK_RE.finditer(text):
                add(m.group("flag"), rel)
    return flags


# The README section holding the flag table, up to the next
# same-level heading, and its rows: a table line whose first cell
# starts with a backticked flag, e.g. "| `--units=N` | ... |".
FLAG_SECTION_RE = re.compile(
    r"^## CLI flag reference\n(?P<body>.*?)(?=^## )",
    re.MULTILINE | re.DOTALL,
)
FLAG_ROW_RE = re.compile(r"^\|\s*`--([a-z0-9-]+)", re.MULTILINE)


def stale_flag_rows(readme, flags):
    """Flag-table rows naming a flag no front end declares."""
    section = FLAG_SECTION_RE.search(readme)
    rows = FLAG_ROW_RE.findall(section.group("body")) if section else []
    return sorted(set(rows) - set(flags))


REGISTER_ENGINE_RE = re.compile(r'registerEngine\(\s*"([a-z0-9_-]+)"')

# The README section holding the engine table, up to the next
# same-level heading.
ENGINE_SECTION_RE = re.compile(
    r"^## Engines\n(?P<body>.*?)(?=^## )", re.MULTILINE | re.DOTALL
)

# Engine-table rows: a table line whose first cell is a backticked
# kind, e.g. "| `stripes` | ... |".
ENGINE_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_-]*)`\s*\|",
                           re.MULTILINE)


def registered_engine_kinds():
    """Engine kinds registered in src/models/engines.cc."""
    text = (REPO / "src/models/engines.cc").read_text(encoding="utf-8")
    return set(REGISTER_ENGINE_RE.findall(text))


def engine_table_drift(readme):
    """(missing_rows, stale_rows) between the registry and README."""
    kinds = registered_engine_kinds()
    section = ENGINE_SECTION_RE.search(readme)
    rows = (
        set(ENGINE_ROW_RE.findall(section.group("body")))
        if section
        else set()
    )
    return sorted(kinds - rows), sorted(rows - kinds)


# Markdown files whose relative links must resolve.
LINKED_DOCS = ["README.md", "docs/ARCHITECTURE.md", "CHANGES.md"]

# [text](target) pairs, excluding images' leading "!" is harmless.
MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def dead_links():
    """(doc, target) pairs whose relative link resolves to nothing."""
    dead = []
    for doc in LINKED_DOCS:
        path = REPO / doc
        if not path.exists():
            dead.append((doc, "<the document itself is missing>"))
            continue
        for target in MD_LINK_RE.findall(path.read_text(encoding="utf-8")):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto: ...
            rel = target.split("#", 1)[0]
            if not rel:
                continue  # pure in-page anchor
            candidates = [path.parent / rel, REPO / rel]
            if not any(c.exists() for c in candidates):
                dead.append((doc, target))
    return dead


# Source trees and file patterns whose doc citations must resolve.
CITING_ROOTS = ["src", "tests", "bench", "examples", "tools"]
CITING_PATTERNS = ["*.cc", "*.h", "*.cpp", "*.py"]

# A markdown file name as cited in prose, e.g. docs/ARCHITECTURE.md.
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")


def stale_doc_citations():
    """(source:line, name) pairs citing a *.md file that does not exist."""
    stale = []
    for root in CITING_ROOTS:
        for pattern in CITING_PATTERNS:
            for path in sorted((REPO / root).rglob(pattern)):
                text = path.read_text(encoding="utf-8")
                rel = path.relative_to(REPO).as_posix()
                for lineno, line in enumerate(text.splitlines(), 1):
                    for name in MD_NAME_RE.findall(line):
                        candidates = [REPO / name, path.parent / name]
                        if not any(c.is_file() for c in candidates):
                            stale.append((f"{rel}:{lineno}", name))
    return stale


def main():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    flags = declared_flags()
    if not flags:
        print(
            "check_docs_drift: found no declared flags — the "
            "extraction patterns have rotted",
            file=sys.stderr,
        )
        return 1

    missing = {
        flag: sources
        for flag, sources in flags.items()
        if f"--{flag}" not in readme
    }
    if missing:
        print(
            "check_docs_drift: flags declared in the binaries but "
            "absent from README.md:",
            file=sys.stderr,
        )
        for flag in sorted(missing):
            srcs = ", ".join(sorted(missing[flag]))
            print(f"  --{flag}  (declared in {srcs})", file=sys.stderr)
        print(
            "add each to the 'CLI flag reference' table in README.md",
            file=sys.stderr,
        )
        return 1

    stale_flags = stale_flag_rows(readme, flags)
    if stale_flags:
        print(
            "check_docs_drift: stale README.md 'CLI flag reference' "
            "rows naming a flag no front end declares:",
            file=sys.stderr,
        )
        for flag in stale_flags:
            print(f"  | `--{flag}...` | ...", file=sys.stderr)
        return 1

    missing_rows, stale_rows = engine_table_drift(readme)
    if missing_rows or stale_rows:
        if missing_rows:
            print(
                "check_docs_drift: engine kinds registered in "
                "src/models/engines.cc but missing from README.md's "
                "'Engines' table:",
                file=sys.stderr,
            )
            for kind in missing_rows:
                print(f"  | `{kind}` | ...", file=sys.stderr)
        if stale_rows:
            print(
                "check_docs_drift: stale README.md engine-table rows "
                "naming no registered kind:",
                file=sys.stderr,
            )
            for kind in stale_rows:
                print(f"  | `{kind}` | ...", file=sys.stderr)
        return 1

    dead = dead_links()
    if dead:
        print(
            "check_docs_drift: dead relative links (target file does "
            "not exist):",
            file=sys.stderr,
        )
        for doc, target in dead:
            print(f"  {doc}: ({target})", file=sys.stderr)
        return 1

    stale = stale_doc_citations()
    if stale:
        print(
            "check_docs_drift: source comments cite documents that do "
            "not exist:",
            file=sys.stderr,
        )
        for where, name in stale:
            print(f"  {where}: {name}", file=sys.stderr)
        return 1

    print(
        f"check_docs_drift: OK — {len(flags)} flags and "
        f"{len(registered_engine_kinds())} engine kinds all "
        f"documented in README.md; relative links in "
        f"{', '.join(LINKED_DOCS)} and *.md citations in "
        f"{' '.join(r + '/' for r in CITING_ROOTS)} all resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
