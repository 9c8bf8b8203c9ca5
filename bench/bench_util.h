// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Shared plumbing for the figure/table reproduction benches. Every bench
// accepts --n / --runs / --full to trade fidelity against wall-clock time
// on small machines; --full selects the paper's original workload sizes.

#ifndef PLANAR_BENCH_BENCH_UTIL_H_
#define PLANAR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <string>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/flags.h"
#include "common/stats.h"
#include "common/timer.h"

// Generated at build time by bench/git_sha.cmake: PLANAR_GIT_SHA is
// `git rev-parse --short HEAD`, "-dirty" when src/ or bench/ differ from
// it, and PLANAR_BUILD_UTC the build time (UTC, ISO-8601). A build that
// does not generate it may define both itself; otherwise "unknown" (e.g.
// a source tarball).
#if __has_include("planar_git_sha.h")
#include "planar_git_sha.h"
#endif
#ifndef PLANAR_GIT_SHA
#define PLANAR_GIT_SHA "unknown"
#endif
#ifndef PLANAR_BUILD_UTC
#define PLANAR_BUILD_UTC "unknown"
#endif

namespace planar {
namespace bench {

/// Compiler that produced this binary, e.g. "gcc 13.2.0".
inline std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set size of this process in bytes, or 0 when the
/// platform offers no getrusage. Linux reports ru_maxrss in KiB, macOS in
/// bytes; normalized to bytes here. High-water mark, not current usage —
/// it can only grow over the process lifetime, so per-workload deltas
/// within one bench binary are not meaningful; the stamped value answers
/// "what did reproducing this line cost in memory", not "what does the
/// index occupy" (that is resident_bytes below).
inline size_t PeakRssBytes() {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss);
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// Provenance fields every bench JSON line must carry, as a comma-led
/// fragment ready to splice before the closing brace:
///   std::printf("{\"bench\":\"x\",\"metric\":%f%s}\n", v,
///               JsonStamp(threads).c_str());
/// `effective_threads` is how many threads the measured configuration
/// actually used (1 for single-threaded benches), recorded next to the
/// host's core count so scaling claims stay honest: a "parallel" result
/// with effective_threads == 1 (e.g. measured on a 1-core host) is flat
/// by construction, not by regression. Committed BENCH_*.json baselines
/// are only comparable when the stamp matches the host they were
/// measured on. `resident_bytes`, when non-zero, is the measured
/// configuration's hot-path footprint (PlanarIndexSet::ResidentBytes);
/// peak_rss_bytes is stamped on every line.
inline std::string JsonStamp(size_t effective_threads,
                             size_t resident_bytes = 0) {
  std::string stamp =
      std::string(",\"git_sha\":\"") + PLANAR_GIT_SHA + "\",\"build_utc\":\"" +
      PLANAR_BUILD_UTC + "\",\"compiler\":\"" + CompilerId() +
      "\",\"host_threads\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"effective_threads\":" + std::to_string(effective_threads) +
      ",\"peak_rss_bytes\":" + std::to_string(PeakRssBytes());
  if (resident_bytes != 0) {
    stamp += ",\"resident_bytes\":" + std::to_string(resident_bytes);
  }
  return stamp;
}

/// Prints the standard bench banner.
inline void PrintHeader(const std::string& experiment,
                        const std::string& what) {
  std::printf("\n=== %s ===\n%s\n", experiment.c_str(), what.c_str());
}

/// Mean wall-clock milliseconds of `fn` over `runs` invocations.
template <typename Fn>
double MeanMillis(Fn&& fn, int runs) {
  RunningStats stats;
  for (int i = 0; i < runs; ++i) {
    WallTimer timer;
    fn();
    stats.Add(timer.ElapsedMillis());
  }
  return stats.mean();
}

/// Scaled problem size: the paper's value under --full, otherwise the
/// bench's default (or --n when given).
inline size_t ScaledN(const FlagParser& flags, size_t dflt, size_t paper) {
  if (flags.GetBool("full", false)) return paper;
  return static_cast<size_t>(flags.GetInt("n", static_cast<int64_t>(dflt)));
}

/// Number of measured queries per configuration.
inline int Runs(const FlagParser& flags, int dflt = 20) {
  return static_cast<int>(flags.GetInt("runs", dflt));
}

}  // namespace bench
}  // namespace planar

#endif  // PLANAR_BENCH_BENCH_UTIL_H_
