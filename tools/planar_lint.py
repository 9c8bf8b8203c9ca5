#!/usr/bin/env python3
# Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
"""Repository lint: enforces planar invariants the compiler cannot.

Rules (library code under src/ unless stated otherwise):

  no-exceptions     `throw` / `try` are forbidden in src/ — the library
                    reports recoverable failures through Status/Result and
                    aborts on violated invariants via PLANAR_CHECK.
  no-stdout         `std::cout` / `std::cerr` / bare `printf(` / `puts(` /
                    `fprintf(stdout, ...)` are forbidden in src/; library
                    code must not write to the process's standard streams
                    (snprintf into caller buffers and the PLANAR_CHECK
                    fprintf(stderr) abort path are fine).
  no-bare-assert    `assert(` is forbidden in src/ — invariants go through
                    PLANAR_CHECK, which stays armed in release builds.
  no-detached-threads
                    `.detach()` is forbidden in src/ — every thread the
                    library spawns (e.g. the engine's worker pool under
                    src/engine) must be joined so shutdown is a
                    deterministic drain, never a process-exit race.
  sync-via-common-mutex
                    raw standard synchronization primitives (std::mutex
                    and friends, std::lock_guard / std::unique_lock /
                    std::scoped_lock / std::shared_lock,
                    std::condition_variable[_any]) are forbidden in src/
                    outside common/mutex.{h,cc}: all locking goes
                    through the capability-annotated planar::Mutex /
                    MutexLock / ReaderMutexLock / CondVar wrappers so
                    Clang's thread-safety analysis (-Werror=thread-safety
                    on clang builds) sees every critical section.
  relaxed-atomic-comment
                    every `std::memory_order_relaxed` use in src/ must
                    carry a `relaxed-ok:` comment (same line or within
                    the 8 lines above; consecutive uses chain) stating
                    why relaxed ordering suffices at that site — the
                    same annotate-the-contract discipline as the kernel
                    rules, so future edits cannot silently weaken a
                    cancellation flag or counter into a race.
  threads-via-pool  raw `std::thread` / `std::jthread` construction is
                    forbidden in src/ outside common/ (the ThreadPool's
                    home): library parallelism runs on the shared pool
                    (common/thread_pool.h) so thread counts and shutdown
                    stay centralized. A site that
                    genuinely needs a dedicated thread (e.g. the ingest
                    background merger, which blocks on a CondVar for its
                    whole lifetime and must not occupy a pool slot)
                    carries a `threads-ok:` comment (same line or within
                    the 8 lines above; consecutive uses chain) justifying
                    the exemption. `std::thread::hardware_concurrency()`
                    never fires — querying the core count is not spawning
                    a thread.
  cpu-relax-via-common
                    spin-wait pause primitives (`_mm_pause`,
                    `__builtin_ia32_pause`, inline `pause` / `yield`
                    asm) are forbidden in src/ outside common/: every
                    busy-wait pauses through CpuRelax()
                    (common/cpu_relax.h), so the per-architecture
                    instruction choice lives in one place, the same way
                    sync-via-common-mutex and threads-via-pool keep
                    their primitives in common/.
  header-guards     every .h under src/, tests/, and bench/ must open with
                    `#ifndef PLANAR_<PATH>_<FILE>_H_` + matching #define
                    derived from its repo-relative path.
  no-march-native   `-march=native` is forbidden in committed build files
                    (CMakeLists.txt, *.cmake, CMakePresets.json): it makes
                    binaries non-portable and non-reproducible. SIMD use
                    goes through runtime dispatch (src/core/kernels) with
                    per-source -mavx2/-mfma on the dispatched TU only.
  core-sort-via-sort-util
                    `std::sort` / `std::stable_sort` of key, entry or
                    id containers is forbidden in src/core outside
                    sort_util.*: core index sorts must go through
                    SortEntries so the deterministic-parallel-sort
                    guarantee (identical output for any thread count)
                    holds everywhere. Row ids are never sorted: every
                    answer keeps part order (core/sharded.h), so a sort
                    of ids in src/core fires too. Sorting other
                    containers (axes, positions, heaps) is fine.
  kernel-ffp-contract
                    every kernel TU (src/core/kernels/*.cc) must appear in
                    a set_source_files_properties(...) block of
                    src/core/CMakeLists.txt that carries -ffp-contract=off:
                    the scalar/SIMD bit-identity contract (kernels.h)
                    forbids the compiler from contracting a*b+c into FMA,
                    and a newly added kernel TU that misses the flag breaks
                    it silently on -O2.
  agg-prefix-construction
                    mutating the prefix-aggregate arrays (`.sum` /
                    `.pos` / `.neg` container writes: element
                    assignment, push_back/assign/resize/clear and
                    friends) is forbidden in src/ outside
                    core/aggregate.cc — prefix aggregates must be
                    (re)built only through BuildPrefixAggregates /
                    PrefixAggregates::Clear so the canonical blocked
                    summation order (and hence bit-reproducible SUM
                    answers) holds everywhere. A site that genuinely
                    must touch the arrays carries an `agg-ok:` comment
                    (same line or within the 8 lines above; consecutive
                    uses chain). Scalar result fields (e.g.
                    AggregateResult::sum) never fire — only indexed or
                    container-method writes do.
  no-naked-float-in-core
                    the `float` type is forbidden everywhere in src/core
                    (kernels included), with no annotation escape: every
                    query answer comes from the one exact f64 pipeline,
                    and a float that leaks into index math silently
                    breaks the bit-identity contract with the f64 scan.
  serve-from-plan   `ComputeIntervals(` and `Prepare(` calls are forbidden
                    in every src/core file except planar_index.{h,cc},
                    where a single index plans: the set-level paths plan a
                    query once, during index selection
                    (PlanarIndexSet::Select), and the fallback test,
                    EXPLAIN, the serve call and the shard fan-out read
                    that plan. Re-planning the winner repeats its Prepare
                    and two boundary searches on every request.
  one-verify-loop   `dot_gather(`, `CompressAccept(` and
                    `CompressAcceptRange(` calls are forbidden in src/
                    outside src/core/kernels and src/core/scan.h, the
                    home of VerifyRows: every single-query verification
                    (index II, full scan, ingest delta) runs through that
                    one block loop and feeds one of its sinks, so the
                    deadline cadence and the accept predicate live in one
                    place.
  ingest-answers-no-queries
                    no file under src/ingest/ may call `ScanRows*`,
                    `MergeTopK`, `FoldCount` or `FoldAggregate`: ingest
                    hands out epochs (IngestManager::Pin returns a
                    ShardedIndexSet with one base part and a delta tail)
                    and answers no query itself. The delta scans and the
                    partition folds live once, in core/sharded.cc, so a
                    new read kind is added to ShardedIndexSet, never
                    beside it.
  module-has-a-caller
                    every header under src/ must be included by some file
                    under src/ (other than its own .cc), bench/, tools/,
                    perfbench/ or examples/. A module that only its own
                    test reaches serves nothing: route it into a caller
                    or delete it. The one exemption is core/validate.h,
                    the index audit the serialization and churn tests
                    use as a checker.

Exit status 0 when clean, 1 with one "file:line: rule: message" diagnostic
per finding otherwise. Registered as a ctest (`ctest -R planar_lint`).
`--self-test` exercises the rules against synthetic fixture trees (e.g.
kernel-ffp-contract: missing flag, covered multi-file block, flag only
inside a comment; module-has-a-caller: an orphan header, a header a bench
includes) and exits nonzero if a rule ever stops firing.
"""

import argparse
import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src",)
HEADER_GUARD_DIRS = ("src", "tests", "bench")

RE_EXCEPTION = re.compile(r"(?<![A-Za-z0-9_])(?:throw|try)(?![A-Za-z0-9_])")
RE_STDOUT = re.compile(
    r"std::cout|std::cerr"
    r"|(?<![A-Za-z0-9_])printf\s*\("      # printf( / std::printf( — not
                                          # snprintf( / fprintf(
    r"|(?<![A-Za-z0-9_])puts\s*\("
    r"|(?<![A-Za-z0-9_])fprintf\s*\(\s*stdout\b"
)
RE_ASSERT = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
RE_DETACH = re.compile(r"\.\s*detach\s*\(\s*\)")
# Raw standard synchronization primitives (sync-via-common-mutex). The
# annotated wrappers in src/common/mutex.{h,cc} are the only files
# allowed to name these.
RE_RAW_SYNC = re.compile(
    r"std::(?:recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable_any|condition_variable)\b")
SYNC_EXEMPT_FILES = {Path("src/common/mutex.h"), Path("src/common/mutex.cc")}
# Number of lines above a memory_order_relaxed use within which a
# `relaxed-ok:` comment (or a previously covered use) must appear.
RELAXED_COMMENT_WINDOW = 8
# Raw thread construction (threads-via-pool). The negative lookahead
# keeps std::thread::hardware_concurrency() (a core-count query, not a
# spawn) from firing. src/common/ — the pool's home — is exempt.
RE_RAW_THREAD = re.compile(r"std::(?:jthread|thread)\b(?!\s*::)")
# Same annotate-the-exemption discipline (and window) as relaxed-ok:.
THREADS_COMMENT_WINDOW = 8
# Spin-wait pause primitives (cpu-relax-via-common): the intrinsics are
# matched in comment-stripped code; inline asm is matched on the raw line
# (the instruction sits in a string literal, which the stripper blanks)
# but only where the stripped line still holds the asm keyword.
RE_PAUSE_INTRINSIC = re.compile(
    r"(?<![A-Za-z0-9_])(?:_mm_pause|__builtin_ia32_pause)(?![A-Za-z0-9_])")
RE_ASM_KEYWORD = re.compile(r"(?<![A-Za-z0-9_])(?:__asm__|__asm|asm)\b")
RE_ASM_PAUSE = re.compile(
    r"(?<![A-Za-z0-9_])(?:__asm__|__asm|asm)\b[^\"]*\(\s*\"\s*"
    r"(?:pause|yield)\b")
# std::sort(<first-arg>, ...) where the sorted container smells like index
# keys or (key, id) entries.
RE_CORE_SORT = re.compile(
    r"std::(?:stable_)?sort\s*\(\s*([A-Za-z_][A-Za-z0-9_.\->]*)")
RE_KEYLIKE = re.compile(r"entr|key", re.IGNORECASE)
# A row-id container: `ids`, `row_ids`, `result->ids`, `merged.ids`.
RE_IDSLIKE = re.compile(r"(?:^|[.>_])ids(?![A-Za-z0-9])")
# The `float` type token (no-naked-float-in-core). Word boundaries keep
# identifiers containing "float" from firing; comments and strings are
# stripped before matching.
RE_NAKED_FLOAT = re.compile(r"(?<![A-Za-z0-9_])float(?![A-Za-z0-9_])")
# Prefix-aggregate mutations (agg-prefix-construction): element writes
# or container-method calls on a `.sum` / `.pos` / `.neg` member. Reads
# (`pre.sum[r]` on the right-hand side) and scalar assignments
# (`result.sum = ...`, no index / no container method) never fire.
RE_AGG_MUTATION = re.compile(
    r"(?:\.|->)(?:sum|pos|neg)\s*"
    r"(?:\[[^\]]*\]\s*(?:=(?!=)|\+=|-=|\*=|/=)"
    r"|\.\s*(?:push_back|emplace_back|assign|resize|clear|insert|erase"
    r"|shrink_to_fit|swap)\s*\()")
# Same annotate-the-exemption discipline (and window) as relaxed-ok:.
AGG_COMMENT_WINDOW = 8
# The canonical construction helper's home (core/aggregate.cc) is exempt.
AGG_EXEMPT_FILES = {Path("src/core/aggregate.cc")}
# Re-planning calls (serve-from-plan) and the only src/core files that
# may plan: the single index's own.
RE_REPLAN = re.compile(
    r"(?<![A-Za-z0-9_])(?:ComputeIntervals|Prepare)\s*\(")
PLANNING_FILES = {Path("src/core/planar_index.h"),
                  Path("src/core/planar_index.cc")}
# Single-query verify kernels (one-verify-loop) and the one file outside
# src/core/kernels that may call them.
RE_VERIFY_KERNEL = re.compile(
    r"(?<![A-Za-z0-9_])(?:dot_gather|CompressAccept|CompressAcceptRange)"
    r"\s*\(")
VERIFY_LOOP_FILE = Path("src/core/scan.h")
# Per-kind read code (ingest-answers-no-queries): the delta scans and the
# partition folds an epoch read is made of.
RE_QUERY_ANSWERING = re.compile(
    r"(?<![A-Za-z0-9_])(?:ScanRows[A-Za-z0-9_]*|MergeTopK|FoldCount"
    r"|FoldAggregate)\s*[(<]")
INGEST_DIR = ("src", "ingest")
# module-has-a-caller: the trees whose includes count as callers, and the
# headers exempt from needing one.
CALLER_DIRS = ("src", "bench", "tools", "perfbench", "examples")
RE_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
CALLER_EXEMPT_HEADERS = {"core/validate.h"}


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string literals, and char literals, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(rel_path: Path) -> str:
    parts = [p.upper().replace(".", "_").replace("-", "_")
             for p in rel_path.with_suffix("").parts]
    return "PLANAR_" + "_".join(parts) + "_H_"


def findings_for_file(root: Path, path: Path):
    rel = path.relative_to(root)
    text = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(text)
    lines = code.splitlines()

    if str(rel.parts[0]) in SOURCE_DIRS:
        raw_lines = text.splitlines()
        last_relaxed_ok = -10**9  # line of the newest relaxed-ok comment
        last_threads_ok = -10**9  # line of the newest threads-ok comment
        last_agg_ok = -10**9      # line of the newest agg-ok comment
        in_common = len(rel.parts) > 1 and rel.parts[1] == "common"
        in_core = len(rel.parts) > 1 and rel.parts[1] == "core"
        for lineno, line in enumerate(lines, start=1):
            raw = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
            if "relaxed-ok:" in raw:
                last_relaxed_ok = lineno
            if "threads-ok:" in raw:
                last_threads_ok = lineno
            if "agg-ok:" in raw:
                last_agg_ok = lineno
            if RE_EXCEPTION.search(line):
                yield (rel, lineno, "no-exceptions",
                       "throw/try is forbidden in library code; use "
                       "Status/Result or PLANAR_CHECK")
            if RE_STDOUT.search(line):
                yield (rel, lineno, "no-stdout",
                       "library code must not write to stdout/stderr; "
                       "format into caller-provided buffers instead")
            if RE_ASSERT.search(line):
                yield (rel, lineno, "no-bare-assert",
                       "use PLANAR_CHECK (armed in release builds) "
                       "instead of assert")
            if RE_DETACH.search(line):
                yield (rel, lineno, "no-detached-threads",
                       "library threads must be joined (graceful "
                       "drain), never detached")
            if rel not in SYNC_EXEMPT_FILES and RE_RAW_SYNC.search(line):
                yield (rel, lineno, "sync-via-common-mutex",
                       "raw std synchronization primitives are forbidden "
                       "in library code; use the annotated planar::Mutex "
                       "/ MutexLock / ReaderMutexLock / CondVar wrappers "
                       "(common/mutex.h) so the thread-safety analysis "
                       "sees the critical section")
            if "memory_order_relaxed" in line:
                if lineno - last_relaxed_ok <= RELAXED_COMMENT_WINDOW:
                    last_relaxed_ok = lineno  # consecutive uses chain
                else:
                    yield (rel, lineno, "relaxed-atomic-comment",
                           "memory_order_relaxed needs a nearby "
                           "'relaxed-ok:' comment stating why relaxed "
                           "ordering suffices at this site (and what the "
                           "authoritative synchronization is)")
            if not in_common and RE_RAW_THREAD.search(line):
                if lineno - last_threads_ok <= THREADS_COMMENT_WINDOW:
                    last_threads_ok = lineno  # consecutive uses chain
                else:
                    yield (rel, lineno, "threads-via-pool",
                           "raw std::thread/std::jthread is forbidden "
                           "outside src/common/; run the work on the "
                           "shared ThreadPool (common/thread_pool.h), or "
                           "carry a nearby 'threads-ok:' comment "
                           "justifying a dedicated thread")
            if not in_common and (
                    RE_PAUSE_INTRINSIC.search(line)
                    or (RE_ASM_KEYWORD.search(line)
                        and RE_ASM_PAUSE.search(raw))):
                yield (rel, lineno, "cpu-relax-via-common",
                       "spin-wait pause instructions are forbidden "
                       "outside src/common/; call CpuRelax() "
                       "(common/cpu_relax.h)")
            if in_core and RE_NAKED_FLOAT.search(line):
                yield (rel, lineno, "no-naked-float-in-core",
                       "the float type is forbidden in src/core: every "
                       "answer comes from the exact f64 pipeline")
            if (in_core and rel not in PLANNING_FILES
                    and RE_REPLAN.search(line)):
                yield (rel, lineno, "serve-from-plan",
                       "serve from the plan index selection built "
                       "(PlanarIndexSet::Select); re-planning repeats "
                       "Prepare and two boundary searches per request")
            if (rel != VERIFY_LOOP_FILE and rel.parts[:3] != (
                    "src", "core", "kernels")
                    and RE_VERIFY_KERNEL.search(line)):
                yield (rel, lineno, "one-verify-loop",
                       "single-query verification runs through VerifyRows "
                       "(core/scan.h) with a sink; do not write another "
                       "block loop over the verify kernels")
            if (rel.parts[:2] == INGEST_DIR
                    and RE_QUERY_ANSWERING.search(line)):
                yield (rel, lineno, "ingest-answers-no-queries",
                       "ingest hands out epochs and answers no query; "
                       "read the pinned epoch (a ShardedIndexSet) and put "
                       "delta scans and folds in core/sharded.cc")
            if rel not in AGG_EXEMPT_FILES and RE_AGG_MUTATION.search(line):
                if lineno - last_agg_ok <= AGG_COMMENT_WINDOW:
                    last_agg_ok = lineno  # consecutive uses chain
                else:
                    yield (rel, lineno, "agg-prefix-construction",
                           "prefix-aggregate arrays (.sum/.pos/.neg) must "
                           "be (re)built through BuildPrefixAggregates / "
                           "PrefixAggregates::Clear (core/aggregate.cc) so "
                           "the canonical blocked summation order holds; "
                           "carry a nearby 'agg-ok:' comment if this "
                           "mutation is genuinely canonical")

    if (len(rel.parts) > 2 and rel.parts[0] == "src" and rel.parts[1] == "core"
            and not rel.name.startswith("sort_util")):
        # Whole-text scan: the first argument may sit on the next line.
        for match in RE_CORE_SORT.finditer(code):
            lineno = code.count("\n", 0, match.start()) + 1
            if RE_KEYLIKE.search(match.group(1)):
                yield (rel, lineno, "core-sort-via-sort-util",
                       "sorting key/entry containers in src/core must go "
                       "through SortEntries (core/sort_util.h) to keep "
                       "builds deterministic at any thread count")
            elif RE_IDSLIKE.search(match.group(1)):
                yield (rel, lineno, "core-sort-via-sort-util",
                       "row ids in src/core are never sorted: answers "
                       "keep part order (core/sharded.h), ids within a "
                       "part in the order its set returns them")

    if path.suffix == ".h" and str(rel.parts[0]) in HEADER_GUARD_DIRS:
        # src/ headers are included as "core/foo.h" (relative to src/),
        # so their guard drops the leading SRC component.
        guard_rel = Path(*rel.parts[1:]) if rel.parts[0] == "src" else rel
        want = expected_guard(guard_rel)
        ifndef = re.search(r"^#ifndef\s+(\S+)", text, re.MULTILINE)
        define = re.search(r"^#define\s+(\S+)", text, re.MULTILINE)
        if not ifndef or ifndef.group(1) != want:
            got = ifndef.group(1) if ifndef else "<missing>"
            yield (rel, 1, "header-guards",
                   f"expected guard {want}, found {got}")
        elif not define or define.group(1) != want:
            got = define.group(1) if define else "<missing>"
            yield (rel, 1, "header-guards",
                   f"#define does not match #ifndef {want} (found {got})")


def build_file_findings(root: Path):
    """Scans committed build files for -march=native (no-march-native)."""
    candidates = [root / "CMakePresets.json"]
    for pattern in ("CMakeLists.txt", "*.cmake"):
        candidates.extend(p for p in root.rglob(pattern)
                          if not any(part.startswith("build")
                                     or part == "third_party"
                                     for part in p.relative_to(root).parts))
    for path in sorted(set(candidates)):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        is_cmake = path.suffix != ".json"
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if is_cmake:
                line = line.split("#", 1)[0]  # CMake comments may discuss it
            if "-march=native" in line:
                yield (rel, lineno, "no-march-native",
                       "host-specific codegen is forbidden in committed "
                       "build files; use runtime dispatch "
                       "(src/core/kernels) instead")


RE_SOURCE_PROPS = re.compile(r"set_source_files_properties\s*\(([^)]*)\)",
                             re.DOTALL)
RE_KERNEL_TU = re.compile(r"kernels/([A-Za-z0-9_.\-]+\.cc)")


def kernel_ffp_findings(root: Path):
    """Every src/core/kernels/*.cc must be compiled with -ffp-contract=off
    (kernel-ffp-contract)."""
    kernels_dir = root / "src" / "core" / "kernels"
    cmake = root / "src" / "core" / "CMakeLists.txt"
    if not kernels_dir.is_dir():
        return
    covered = set()
    if cmake.is_file():
        text = "\n".join(line.split("#", 1)[0] for line in
                         cmake.read_text(encoding="utf-8").splitlines())
        for match in RE_SOURCE_PROPS.finditer(text):
            block = match.group(1)
            if "-ffp-contract=off" not in block:
                continue
            for tu in RE_KERNEL_TU.finditer(block):
                covered.add(tu.group(1))
    for path in sorted(kernels_dir.glob("*.cc")):
        if path.name not in covered:
            yield (Path("src/core/CMakeLists.txt"), 1, "kernel-ffp-contract",
                   f"kernel TU src/core/kernels/{path.name} is not covered "
                   "by a set_source_files_properties(... -ffp-contract=off) "
                   "block; FP contraction would break the scalar/SIMD "
                   "bit-identity contract (see kernels.h)")


def strip_line_comments(text: str) -> str:
    """Drops // comments so a commented-out #include is not a caller."""
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


def module_caller_findings(root: Path):
    """Every src/ header is included by a caller outside its own .cc
    (module-has-a-caller)."""
    src = root / "src"
    if not src.is_dir():
        return
    includers = {}  # included path -> files that include it
    for d in CALLER_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            text = strip_line_comments(path.read_text(encoding="utf-8"))
            for match in RE_INCLUDE.finditer(text):
                includers.setdefault(match.group(1), set()).add(path)
    for header in sorted(src.rglob("*.h")):
        name = header.relative_to(src).as_posix()
        if name in CALLER_EXEMPT_HEADERS:
            continue
        callers = includers.get(name, set()) - {header.with_suffix(".cc")}
        if not callers:
            yield (header.relative_to(root), 1, "module-has-a-caller",
                   f"{name} is included by nothing under "
                   f"{', '.join(d + '/' for d in CALLER_DIRS)} except its "
                   "own .cc; route the module into a caller or delete it")


def self_test() -> int:
    """Fixture-based check that kernel-ffp-contract actually fires."""
    import tempfile

    def write_tree(cmake_text: str) -> Path:
        root = Path(tempfile.mkdtemp(prefix="planar_lint_selftest_"))
        kdir = root / "src" / "core" / "kernels"
        kdir.mkdir(parents=True)
        (kdir / "kernels.cc").write_text("// fixture\n")
        (kdir / "kernels_avx2.cc").write_text("// fixture\n")
        (root / "src" / "core" / "CMakeLists.txt").write_text(cmake_text)
        return root

    cases = [
        # (cmake fixture, expected number of findings)
        ('set_source_files_properties(kernels/kernels.cc PROPERTIES\n'
         '  COMPILE_OPTIONS "-ffp-contract=off")\n', 1),  # avx2 TU missed
        ('set_source_files_properties(\n'
         '  kernels/kernels.cc\n'
         '  kernels/kernels_avx2.cc\n'
         '  PROPERTIES COMPILE_OPTIONS "-mavx2;-mfma;-ffp-contract=off")\n',
         0),  # multi-file block covers both
        ('# set_source_files_properties(kernels/kernels.cc PROPERTIES\n'
         '#   COMPILE_OPTIONS "-ffp-contract=off")\n', 2),  # comments don't count
        ('set_source_files_properties(kernels/kernels.cc\n'
         '  kernels/kernels_avx2.cc PROPERTIES COMPILE_OPTIONS "-mavx2")\n',
         2),  # block without the flag doesn't count
    ]
    for i, (fixture, want) in enumerate(cases):
        root = write_tree(fixture)
        got = list(kernel_ffp_findings(root))
        if len(got) != want or any(rule != "kernel-ffp-contract"
                                   for _, _, rule, _ in got):
            print(f"planar_lint: self-test case {i} FAILED: expected {want} "
                  f"kernel-ffp-contract finding(s), got {got}",
                  file=sys.stderr)
            return 1

    def write_source(rel_path: str, content: str) -> Path:
        root = Path(tempfile.mkdtemp(prefix="planar_lint_selftest_"))
        target = root / rel_path
        target.parent.mkdir(parents=True)
        target.write_text(content)
        return root

    # (path, file content, rule expected to fire, expected finding count)
    file_cases = [
        # sync-via-common-mutex: raw primitives outside common/mutex.h.
        # (one finding per offending line, like the other line rules)
        ("src/engine/fixture.cc",
         "#include <mutex>\nstd::mutex mu;\nstd::lock_guard<std::mutex> "
         "l(mu);\n", "sync-via-common-mutex", 2),
        ("src/engine/fixture.cc",
         "void f() { std::condition_variable_any cv; }\n",
         "sync-via-common-mutex", 1),
        # ... but common/mutex.h itself may name them,
        ("src/common/mutex.cc", "std::shared_mutex raw;\n",
         "sync-via-common-mutex", 0),
        # and comments / planar wrappers never fire.
        ("src/engine/fixture.cc",
         "// std::mutex is forbidden here\nplanar::Mutex mu;\n"
         "planar::MutexLock lock(&mu);\n", "sync-via-common-mutex", 0),
        # relaxed-atomic-comment: bare relaxed load fires,
        ("src/core/fixture.cc",
         "int f() { return x.load(std::memory_order_relaxed); }\n",
         "relaxed-atomic-comment", 1),
        # a same-line or preceding relaxed-ok: comment covers it,
        ("src/core/fixture.cc",
         "// relaxed-ok: advisory flag; join is authoritative.\n"
         "int f() { return x.load(std::memory_order_relaxed); }\n",
         "relaxed-atomic-comment", 0),
        # consecutive uses chain through one comment,
        ("src/core/fixture.cc",
         "// relaxed-ok: independent counters.\n"
         + "x.fetch_add(1, std::memory_order_relaxed);\n" * 12,
         "relaxed-atomic-comment", 0),
        # and a comment too far above does not cover the use.
        ("src/core/fixture.cc",
         "// relaxed-ok: stale justification.\n" + "\n" * 10
         + "int f() { return x.load(std::memory_order_relaxed); }\n",
         "relaxed-atomic-comment", 1),
        # acquire/release orderings need no comment.
        ("src/core/fixture.cc",
         "int f() { return x.load(std::memory_order_acquire); }\n",
         "relaxed-atomic-comment", 0),
        # threads-via-pool: raw construction fires (std::thread and
        # std::jthread alike),
        ("src/engine/fixture.cc",
         "std::thread worker([] {});\n", "threads-via-pool", 1),
        ("src/engine/fixture.cc",
         "std::jthread worker([] {});\n", "threads-via-pool", 1),
        # a nearby threads-ok: comment justifies a dedicated thread,
        ("src/ingest/fixture.cc",
         "// threads-ok: long-lived merger; blocks on a CondVar, must\n"
         "// not occupy a pool slot.\n"
         "std::thread merger([] {});\n", "threads-via-pool", 0),
        # a justification too far above does not cover the use,
        ("src/ingest/fixture.cc",
         "// threads-ok: stale justification.\n" + "\n" * 10
         + "std::thread merger([] {});\n", "threads-via-pool", 1),
        # the pool's home (src/common/) is exempt,
        ("src/common/thread_pool.cc",
         "workers_.emplace_back(std::thread([] {}));\n",
         "threads-via-pool", 0),
        # and querying the core count is not spawning a thread.
        ("src/core/fixture.cc",
         "size_t n = std::thread::hardware_concurrency();\n",
         "threads-via-pool", 0),
        # cpu-relax-via-common: pause intrinsics and inline pause/yield
        # asm fire outside src/common/,
        ("src/engine/fixture.h",
         "while (!ready) _mm_pause();\n"
         "__builtin_ia32_pause();\n"
         "asm volatile(\"pause\" ::: \"memory\");\n"
         "__asm__ __volatile__(\"yield\");\n",
         "cpu-relax-via-common", 4),
        # but CpuRelax(), a mention in a comment or string, and the
        # helper's home in src/common/ do not.
        ("src/engine/fixture.h",
         "// spins with _mm_pause via asm(\"pause\")\n"
         "while (!ready) CpuRelax();\n"
         "const char* s = \"asm(pause)\";\n",
         "cpu-relax-via-common", 0),
        ("src/common/cpu_relax.h",
         "__builtin_ia32_pause();\n__asm__ __volatile__(\"yield\");\n",
         "cpu-relax-via-common", 0),
        # no-naked-float-in-core: a bare float in src/core fires,
        ("src/core/fixture.cc",
         "float band = 0.0f;\n", "no-naked-float-in-core", 1),
        # no comment exempts it,
        ("src/core/fixture.cc",
         "// f32-ok: a justification.\nstd::vector<float> mirror;\n",
         "no-naked-float-in-core", 1),
        # the kernel TUs are policed too,
        ("src/core/kernels/fixture.cc", "float acc[8];\n",
         "no-naked-float-in-core", 1),
        # identifiers containing 'float' and comments never fire,
        ("src/core/fixture.cc",
         "// a float in a comment is fine\n"
         "double FloatToDouble(double v);\n",
         "no-naked-float-in-core", 0),
        # and the rule only polices src/core.
        ("src/engine/fixture.cc", "float x = 0.0f;\n",
         "no-naked-float-in-core", 0),
        # agg-prefix-construction: container-method writes fire,
        ("src/ingest/fixture.cc",
         "void f(PrefixAggregates* out) { out->sum.assign(9, 0.0); }\n",
         "agg-prefix-construction", 1),
        # element assignment fires (including compound assignment),
        ("src/core/fixture.cc",
         "void f(PrefixAggregates& p) {\n"
         "  p.sum[3] = 1.0;\n"
         "  p.neg[3] += 2.0;\n"
         "}\n", "agg-prefix-construction", 2),
        # reads and scalar result fields never fire,
        ("src/engine/fixture.cc",
         "double g(const PrefixAggregates& p, AggregateResult* r) {\n"
         "  r->sum = p.sum[4] - p.sum[1];\n"
         "  return p.pos[4] == p.sum[4] ? p.neg[0] : 0.0;\n"
         "}\n", "agg-prefix-construction", 0),
        # a nearby agg-ok: comment covers a sanctioned mutation,
        ("src/core/fixture.cc",
         "// agg-ok: rebuild after delta merge, same canonical order.\n"
         "void f(PrefixAggregates& p) { p.pos.clear(); }\n",
         "agg-prefix-construction", 0),
        # consecutive uses chain through one comment,
        ("src/core/fixture.cc",
         "// agg-ok: canonical teardown.\n"
         + "p.sum.clear();\n" * 12, "agg-prefix-construction", 0),
        # a comment too far above does not cover the use,
        ("src/core/fixture.cc",
         "// agg-ok: stale justification.\n" + "\n" * 10
         + "void f(PrefixAggregates& p) { p.sum.resize(4); }\n",
         "agg-prefix-construction", 1),
        # and the canonical helper's home is exempt.
        ("src/core/aggregate.cc",
         "void Build(PrefixAggregates* out) { out->sum.assign(9, 0.0); }\n",
         "agg-prefix-construction", 0),
        # core-sort-via-sort-util: a comparison sort of row ids in
        # src/core fires and names the part-order rule,
        ("src/core/fixture.cc",
         "void f(InequalityResult* r) {\n"
         "  std::sort(r->ids.begin(), r->ids.end());\n"
         "}\n", "core-sort-via-sort-util", 1),
        # but ids-like names that are not an id container do not.
        ("src/core/fixture.cc",
         "void f(std::vector<size_t>& valids, std::vector<int>& idsx) {\n"
         "  std::sort(valids.begin(), valids.end());\n"
         "  std::sort(idsx.begin(), idsx.end());\n"
         "}\n", "core-sort-via-sort-util", 0),
        # serve-from-plan: re-planning in the set-level serving files
        # fires,
        ("src/core/index_set.cc",
         "auto iv = index.ComputeIntervals(norm);\n"
         "const Prepared p = index.Prepare (norm, &scratch);\n",
         "serve-from-plan", 2),
        # but planning through selection, comments and longer names do
        # not,
        ("src/core/index_set.cc",
         "// never call ComputeIntervals( here\n"
         "plan = index.MakePlan(q, &scratch);\n"
         "Status s = PrepareAll(q);\n", "serve-from-plan", 0),
        # and so does re-planning in any other src/core file,
        ("src/core/sharded.cc",
         "const auto iv = part.indices()[0].ComputeIntervals(norm);\n",
         "serve-from-plan", 1),
        # but the single index plans for itself, and src/mobility may
        # still plan its own time-instant queries.
        ("src/core/planar_index.cc",
         "const Prepared p = Prepare(norm, &scratch);\n",
         "serve-from-plan", 0),
        ("src/mobility/intersection.cc",
         "const auto iv = index.ComputeIntervals(norm);\n",
         "serve-from-plan", 0),
        # one-verify-loop: a second block loop over the verify kernels
        # fires wherever it is written,
        ("src/core/planar_index.cc",
         "ops.dot_gather(a, dim, rows, stride, ids, blk, -b, res);\n"
         "kept = kernels::CompressAccept(res, ids, blk, le, out);\n"
         "kept = kernels::CompressAcceptRange (res, 0, blk, le, out);\n",
         "one-verify-loop", 3),
        ("src/ingest/ingest.cc",
         "kernels::CompressAcceptRange(res, first, blk, le, out);\n",
         "one-verify-loop", 1),
        # but not in the loop's home or the kernels themselves,
        ("src/core/scan.h",
         "ops.dot_gather(a, dim, rows, stride, ids, blk, -b, res);\n",
         "one-verify-loop", 0),
        ("src/core/kernels/kernels.cc",
         "size_t CompressAccept(const double* r, const uint32_t* ids) {\n",
         "one-verify-loop", 0),
        # and comments and strings never fire.
        ("src/core/planar_index.cc",
         "// no dot_gather( here\n"
         "const char* s = \"CompressAccept(\";\n",
         "one-verify-loop", 0),
        # ingest-answers-no-queries: a delta scan or a partition fold in
        # src/ingest fires, templated or spaced,
        ("src/ingest/ingest.cc",
         "auto n = ScanRowsCountInequality(d, dim, rows, q, deadline);\n"
         "Status s = ScanRowsTopK (d, dim, rows, 0, q, deadline, &buf);\n"
         "auto merged = MergeTopK(k, c, offer);\n"
         "FoldCount(delta, result);\n"
         "FoldAggregate<AggregateResult>(delta, result);\n",
         "ingest-answers-no-queries", 5),
        ("src/ingest/ingest.h",
         "inline void F() { ScanRowsInequality(d, 2, 3, 0, q, dl, &v); }\n",
         "ingest-answers-no-queries", 1),
        # but not in core, where the epoch's delta scans and folds live,
        ("src/core/sharded.cc",
         "auto merged = MergeTopK(k, c, offer);\n"
         "FoldCount(delta, result);\n",
         "ingest-answers-no-queries", 0),
        # and comments, strings, longer names and pins never fire.
        ("src/ingest/ingest.cc",
         "// no ScanRowsInequality( here\n"
         "const char* s = \"MergeTopK(\";\n"
         "MyFoldCountHelper(x);\n"
         "const auto view = manager.Pin(target);\n",
         "ingest-answers-no-queries", 0),
    ]
    for i, (rel_path, content, rule, want) in enumerate(file_cases):
        root = write_source(rel_path, content)
        path = root / rel_path
        got = [f for f in findings_for_file(root, path) if f[2] == rule]
        if len(got) != want:
            print(f"planar_lint: self-test file case {i} FAILED: expected "
                  f"{want} {rule} finding(s), got {got}", file=sys.stderr)
            return 1

    # module-has-a-caller: (files of a fixture tree, expected findings).
    caller_cases = [
        # an orphan header that only its own .cc includes fires,
        ({"src/core/orphan.h": "int F();\n",
          "src/core/orphan.cc": '#include "core/orphan.h"\n'}, 1),
        # a commented-out include is not a caller,
        ({"src/core/orphan.h": "int F();\n",
          "tools/cli.cc": '// #include "core/orphan.h"\n'}, 1),
        # a header a bench includes stays quiet,
        ({"src/core/used.h": "int F();\n",
          "src/core/used.cc": '#include "core/used.h"\n',
          "bench/bench_used.cc": '#include "core/used.h"\n'}, 0),
        # and so does the listed exemption.
        ({"src/core/validate.h": "int F();\n"}, 0),
    ]
    for i, (tree, want) in enumerate(caller_cases):
        root = Path(tempfile.mkdtemp(prefix="planar_lint_selftest_"))
        for rel_path, content in tree.items():
            (root / rel_path).parent.mkdir(parents=True, exist_ok=True)
            (root / rel_path).write_text(content)
        got = list(module_caller_findings(root))
        if len(got) != want:
            print(f"planar_lint: self-test caller case {i} FAILED: expected "
                  f"{want} module-has-a-caller finding(s), got {got}",
                  file=sys.stderr)
            return 1

    total = len(cases) + len(file_cases) + len(caller_cases)
    print(f"planar_lint: self-test OK ({total} fixture cases)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule fixtures instead of linting")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = args.root.resolve()

    scan_dirs = sorted(set(SOURCE_DIRS) | set(HEADER_GUARD_DIRS))
    files = []
    for d in scan_dirs:
        base = root / d
        if base.is_dir():
            files.extend(sorted(base.rglob("*.h")))
            files.extend(sorted(base.rglob("*.cc")))

    failures = 0
    for path in files:
        for rel, lineno, rule, message in findings_for_file(root, path):
            print(f"{rel}:{lineno}: {rule}: {message}")
            failures += 1
    for rel, lineno, rule, message in build_file_findings(root):
        print(f"{rel}:{lineno}: {rule}: {message}")
        failures += 1
    for rel, lineno, rule, message in kernel_ffp_findings(root):
        print(f"{rel}:{lineno}: {rule}: {message}")
        failures += 1
    for rel, lineno, rule, message in module_caller_findings(root):
        print(f"{rel}:{lineno}: {rule}: {message}")
        failures += 1

    if failures:
        print(f"planar_lint: {failures} finding(s) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"planar_lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
