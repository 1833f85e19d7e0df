#!/usr/bin/env python3
"""Project-specific invariant lint: rules generic tools cannot express.

Runs over src/ (and fuzz/) next to clang-tidy in the CI static-analysis job,
and locally via `python3 scripts/check_invariants.py`. Three rules:

  raw-decode       Untrusted bytes are decoded only through the bounds-
                   checked readers (wire::WireReader, ExtentReader). Outside
                   the codec layer itself (ALLOWED_RAW_FILES), any
                   `memcpy(`/`reinterpret_cast<` needs an inline
                   justification:  // lint: raw-ok (<why this is not
                   payload bytes>).  This is what keeps the trust-boundary
                   story auditable: new decode code cannot quietly cast a
                   payload buffer.

  atomic-rationale Every relaxed-memory-order or compare-exchange atomic op
                   carries a rationale comment on the same line or within
                   RATIONALE_WINDOW lines above it. Relaxed atomics are
                   correct only for a documented reason (a counter nobody
                   reads transactionally, a flag with no ordering
                   dependency); the comment is the reason.

  histogram-math   Log-linear bucket math (BucketIndex/BucketLowerBound/
                   BucketUpperBound/kSubBucket*) lives in src/obs/ only.
                   Consumers use HistogramSnapshot and ValueAtQuantile;
                   the wire codec may reference obs::kNumBuckets (the bucket-
                   space size) for bounds checks but must not re-derive
                   bucket boundaries.

Exit status: 0 = clean, 1 = findings (one line each:
`path:line: [rule] message`). `--list-rules` prints rule ids. Tests:
scripts/test_check_invariants.py (known-bad fixtures in
tests/lint_fixtures/ must fail; the live tree must pass).
"""

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Directories scanned by default, relative to the repo root.
SCAN_DIRS = ("src", "fuzz")
SOURCE_SUFFIXES = {".h", ".cpp", ".cc", ".hpp"}

# The codec layer: files *implementing* the bounds-checked readers/writers
# and the low-level byte containers. Raw memcpy/reinterpret_cast is their
# job; everywhere else it needs a `// lint: raw-ok (...)` justification.
ALLOWED_RAW_FILES = {
    "src/common/wire.h",
    "src/common/wire.cpp",
    "src/storage/snapshot.h",
    "src/storage/snapshot.cpp",
    "src/storage/string_pool.h",
    "src/storage/string_pool.cpp",
    "src/storage/value.h",
}

RAW_DECODE_RE = re.compile(r"\bmemcpy\s*\(|\breinterpret_cast\s*<")
RAW_OK_RE = re.compile(r"//\s*lint:\s*raw-ok\s*\(.+\)")

ATOMIC_RE = re.compile(r"memory_order_relaxed|compare_exchange_(weak|strong)")
# A rationale is any comment on the same line or within this many lines
# above the atomic operation or its declaration (blank lines do not
# interrupt the search).
RATIONALE_WINDOW = 4
COMMENT_RE = re.compile(r"//|/\*")
# `name.fetch_add(...)`, `shards[i].max.store(...)`, `counter->load(...)`:
# the identifier the operation is invoked on, for resolving against its
# declaration.
ATOMIC_OP_RE = re.compile(
    r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
    r"(?:load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_DECL_RE = re.compile(r"\batomic(?:_bool|_flag|_int|_uint)?\s*(?:<.*>)?"
                            r"\s*\**\s*(\w+)\s*(?:\[[^\]]*\])?\s*[{;=(,]")

HISTOGRAM_MATH_RE = re.compile(
    r"\bBucketIndex\s*\(|\bBucketLowerBound\s*\(|\bBucketUpperBound\s*\(|"
    r"\bkSubBuckets\b|\bkSubBucketBits\b")
OBS_DIR = "src/obs/"


def lint_raw_decode(rel_path, lines):
    if rel_path in ALLOWED_RAW_FILES:
        return []
    findings = []
    for i, line in enumerate(lines, start=1):
        if not RAW_DECODE_RE.search(line):
            continue
        # The marker sits on the offending line or the one above (wrapped
        # statements push the cast past the column limit).
        prev = lines[i - 2] if i >= 2 else ""
        if not (RAW_OK_RE.search(line) or RAW_OK_RE.search(prev)):
            findings.append(
                (rel_path, i, "raw-decode",
                 "memcpy/reinterpret_cast outside the codec layer; decode "
                 "untrusted bytes through wire::WireReader/ExtentReader or "
                 "justify with `// lint: raw-ok (<reason>)`"))
    return findings


def commented_atomic_decls(lines):
    """Names of atomics declared with a rationale comment nearby.

    One comment heads a contiguous block of declarations (`// Counters
    mirroring TcpServerStats (relaxed; ...)` above a dozen members), so
    coverage carries through a run of back-to-back atomic declarations.
    """
    names = set()
    prev_decl_line = -10
    prev_covered = False
    for i, line in enumerate(lines, start=1):
        m = ATOMIC_DECL_RE.search(line)
        if not m:
            continue
        window = lines[max(0, i - 1 - RATIONALE_WINDOW):i]
        covered = any(COMMENT_RE.search(l) for l in window)
        if not covered and i - prev_decl_line <= 1 and prev_covered:
            covered = True
        if covered:
            names.add(m.group(1))
        prev_decl_line = i
        prev_covered = covered
    return names


def lint_atomic_rationale(rel_path, lines, documented_atomics):
    findings = []
    for i, line in enumerate(lines, start=1):
        if not ATOMIC_RE.search(line):
            continue
        # A rationale comment near the use site covers it...
        window = lines[max(0, i - 1 - RATIONALE_WINDOW):i]
        if any(COMMENT_RE.search(l) for l in window):
            continue
        # ...as does one at the declaration of the atomic being operated on
        # (the natural home: `std::atomic<u64> frames_sent{0};  // relaxed:
        # stats counter, no ordering` documents every bump of it). The call
        # may wrap, so the operated-on name is searched in the joined tail.
        joined = " ".join(lines[max(0, i - 3):i])
        if any(name in documented_atomics
               for name in ATOMIC_OP_RE.findall(joined)):
            continue
        findings.append(
            (rel_path, i, "atomic-rationale",
             "relaxed/CAS atomic without a rationale comment within "
             f"{RATIONALE_WINDOW} lines of the operation or its declaration; "
             "say why the weak ordering is safe"))
    return findings


def lint_histogram_math(rel_path, lines):
    if rel_path.startswith(OBS_DIR):
        return []
    findings = []
    for i, line in enumerate(lines, start=1):
        if HISTOGRAM_MATH_RE.search(line):
            findings.append(
                (rel_path, i, "histogram-math",
                 "log-linear bucket math belongs in src/obs/; consume "
                 "HistogramSnapshot/ValueAtQuantile instead"))
    return findings


RULE_NAMES = ("raw-decode", "atomic-rationale", "histogram-math")


def lint_file(rel_path, text, documented_atomics=frozenset()):
    """All findings for one file; `rel_path` uses forward slashes.

    `documented_atomics`: atomic variable names whose declarations (in any
    scanned file — members are declared in headers, bumped in .cpp files)
    carry a rationale comment.
    """
    lines = text.splitlines()
    documented = documented_atomics | commented_atomic_decls(lines)
    findings = []
    findings.extend(lint_raw_decode(rel_path, lines))
    findings.extend(lint_atomic_rationale(rel_path, lines, documented))
    findings.extend(lint_histogram_math(rel_path, lines))
    return findings


def scan_files(root, scan_dirs=SCAN_DIRS):
    for scan_dir in scan_dirs:
        base = pathlib.Path(root) / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path.relative_to(root).as_posix(), path.read_text(
                    errors="replace")


def lint_tree(root, scan_dirs=SCAN_DIRS):
    files = list(scan_files(root, scan_dirs))
    # Pass 1: documented atomic declarations, tree-wide.
    documented = set()
    for _, text in files:
        documented |= commented_atomic_decls(text.splitlines())
    # Pass 2: the rules.
    findings = []
    for rel, text in files:
        findings.extend(lint_file(rel, text, documented))
    return findings


def main(argv):
    if "--list-rules" in argv:
        print("\n".join(RULE_NAMES))
        return 0
    root = pathlib.Path(argv[1]) if len(argv) > 1 else REPO_ROOT
    findings = lint_tree(root)
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"check_invariants: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
