// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// perfbench: the end-to-end serving benchmark's binary.
//
//   perfbench --workload <small_selective|ingest_sharded>
//             --seed <n> --seconds <s> [--trace 0|1] [--trace-out <file>]
//
// Untraced (--trace 0): builds the workload's targets at least five times
// (the median build is setup_s), warms up, measures `seconds` of load,
// checks a sample of answers, and prints the end-to-end metrics. Traced
// (--trace 1): one build, then half the time untraced and half traced with
// the per-layer probes; prints the per-layer metrics plus the tracing
// overhead (traced minus untraced window) and writes the spans to
// --trace-out. The last stdout line is one JSON record with provenance
// (bench::JsonStamp), the correctness verdict and the metrics;
// perfbench/run.py turns it into the benchmark's result line.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/perfbench.h"

namespace planar {
namespace perfbench {
namespace {

/// Untraced runs build the targets at least kSetupReps times and until
/// the builds took kSetupSeconds (up to four times kSetupReps); setup_s
/// is the median build.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    if (values_.find(name) == values_.end()) order_.push_back(name);
    values_[name] = {value, unit};
  }
  std::string ToJson() const {
    std::string json = "{";
    for (const std::string& name : order_) {
      const auto& [value, unit] = values_.at(name);
      if (json.size() > 1) json += ",";
      json += Quote(name) + ":{\"value\":" + Num(value) +
              ",\"unit\":" + Quote(unit) + "}";
    }
    return json + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// Exact mean of a histogram's observations between two snapshots.
double WindowMean(const FixedBucketHistogram& before,
                  const FixedBucketHistogram& after) {
  const uint64_t n = after.count() - before.count();
  return n == 0 ? 0.0 : (after.sum() - before.sum()) / static_cast<double>(n);
}

/// Latencies of the responses of `kind` (every kind when null) that
/// arrived in [from_ns, to_ns).
std::vector<double> Latencies(const WindowResult& w, const Kind* kind,
                              int64_t from_ns, int64_t to_ns) {
  std::vector<double> out;
  for (const Sample& s : w.samples) {
    if ((kind == nullptr || s.kind == *kind) && s.done_ns >= from_ns &&
        s.done_ns < to_ns) {
      out.push_back(s.latency_ms);
    }
  }
  return out;
}

/// The end-to-end metrics are computed on each of several equal slices of
/// the window and reported as the median over the slices, so a burst of
/// interference from other tenants of a shared host moves a few slices,
/// not the result. Each slice holds at least kSliceResponses responses, so
/// its p99 has ten samples beyond it; there are at most kMaxSlices.
constexpr size_t kSliceResponses = 1000;
constexpr size_t kMaxSlices = 20;

void AddEndToEnd(const WindowResult& w, uint64_t wrong, Metrics* m,
                 std::string* slices_json) {
  std::vector<std::pair<std::string, const char*>> names = {
      {"qps", "1/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}};
  for (int k = 0; k < kNumKinds; ++k) {
    names.push_back(
        {std::string(KindName(static_cast<Kind>(k))) + "_p50_ms", "ms"});
  }
  const size_t num_slices = std::clamp<size_t>(
      w.samples.size() / kSliceResponses, 1, kMaxSlices);
  const int64_t slice_ns =
      (w.end_ns - w.start_ns) / static_cast<int64_t>(num_slices);
  // Latencies per slice: [slice][0] all kinds, [slice][1 + k] kind k.
  std::vector<std::vector<std::vector<double>>> latencies(
      num_slices, std::vector<std::vector<double>>(1 + kNumKinds));
  for (const Sample& s : w.samples) {
    if (s.done_ns < w.start_ns) continue;
    const auto i = static_cast<size_t>((s.done_ns - w.start_ns) / slice_ns);
    if (i >= num_slices) continue;
    latencies[i][0].push_back(s.latency_ms);
    latencies[i][1 + static_cast<size_t>(s.kind)].push_back(s.latency_ms);
  }
  std::map<std::string, std::vector<double>> slices;
  for (size_t i = 0; i < num_slices; ++i) {
    const std::vector<double>& all = latencies[i][0];
    slices["qps"].push_back(static_cast<double>(all.size()) /
                            (static_cast<double>(slice_ns) * 1e-9));
    slices["p50_ms"].push_back(Percentile(all, 50.0));
    slices["p99_ms"].push_back(Percentile(all, 99.0));
    for (size_t k = 0; k < kNumKinds; ++k) {
      const std::vector<double>& of_kind = latencies[i][1 + k];
      if (of_kind.empty()) continue;
      slices[names[3 + k].first].push_back(Median(of_kind));
    }
  }
  *slices_json = "{";
  for (const auto& [name, unit] : names) {
    const auto it = slices.find(name);
    if (it == slices.end()) continue;
    m->Set(name, Median(it->second), unit);
    *slices_json += (slices_json->size() > 1 ? "," : "") + Quote(name) + ":[";
    for (size_t i = 0; i < it->second.size(); ++i) {
      *slices_json += (i > 0 ? "," : "") + Num(it->second[i]);
    }
    *slices_json += "]";
  }
  *slices_json += "}";
  const uint64_t errors = w.shed + w.failed + wrong;
  m->Set("error_rate",
         w.attempted == 0 ? 0.0
                          : static_cast<double>(errors) /
                                static_cast<double>(w.attempted),
         "ratio");
}

double TargetBytes(const System& system, bool resident) {
  double bytes = 0.0;
  for (const TargetSpec& t : system.spec->targets) {
    if (t.layout == Layout::kSharded) {
      const Catalog::ShardedPtr sharded = system.catalog->FindSharded(t.name);
      if (!resident) {
        bytes += static_cast<double>(sharded->MemoryUsage());
        continue;
      }
      for (size_t s = 0; s < sharded->num_shards(); ++s) {
        bytes += static_cast<double>(sharded->shard(s).ResidentBytes());
      }
      continue;
    }
    const Catalog::SetPtr set = system.catalog->Find(t.name);
    bytes += static_cast<double>(resident ? set->ResidentBytes()
                                          : set->MemoryUsage());
  }
  return bytes;
}

void AddPerLayer(const System& system, const WindowResult& untraced,
                 const WindowResult& traced, uint64_t wrong, Metrics* m) {
  const auto& p = traced.probes.values;
  const auto get = [&p](const char* name) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    const auto it = p.find(name);
    return it == p.end() ? kEmpty : it->second;
  };
  const DebugSnapshot& b = traced.before;
  const DebugSnapshot& a = traced.after;

  // engine
  m->Set("engine.queue_wait_ms", Median(traced.queue_ms), "ms");
  m->Set("engine.execute_ms", Median(traced.execute_ms), "ms");
  m->Set("engine.handoff_us", Median(traced.handoff_us), "us");
  m->Set("engine.batch_occupancy",
         WindowMean(b.batch_occupancy, a.batch_occupancy), "count");
  m->Set("engine.rows_shared_per_query",
         WindowMean(b.rows_shared_per_query, a.rows_shared_per_query),
         "count");
  const uint64_t errors = traced.shed + traced.failed + wrong;
  m->Set("engine.error_rate",
         static_cast<double>(errors) /
             static_cast<double>(std::max<uint64_t>(1, traced.attempted)),
         "ratio");

  // core/index_set
  m->Set("index_set.select_us", Median(get("index_set.select_us")), "us");
  m->Set("index_set.scan_fallback_frac", Mean(get("index_set.scan_fallback")),
         "ratio");
  m->Set("index_set.resident_mb", TargetBytes(system, true) / 1048576.0, "MB");

  // core/planar_index
  m->Set("planar_index.boundary_us", Median(get("planar_index.boundary_us")),
         "us");
  const auto& verify_ms = get("planar_index.verify_ms");
  const auto& ii_rows = get("planar_index.ii_rows");
  m->Set("planar_index.verify_ms", Median(verify_ms), "ms");
  m->Set("planar_index.ii_rows", Median(ii_rows), "count");
  m->Set("planar_index.pruning_frac", Mean(get("planar_index.pruning_frac")),
         "ratio");
  double verify_s = 0.0;
  for (const double v : verify_ms) verify_s += v * 1e-3;
  double rows = 0.0;
  for (const double r : ii_rows) rows += r;
  m->Set("planar_index.verify_rows_per_s",
         verify_s > 0.0 ? rows / verify_s : 0.0, "1/s");
  m->Set("planar_index.topk_checked", Median(get("planar_index.topk_checked")),
         "count");
  m->Set("planar_index.topk_early_term_frac",
         Mean(get("planar_index.topk_early_term")), "ratio");
  m->Set("planar_index.count_refined_frac",
         Mean(get("planar_index.count_refined")), "ratio");
  m->Set("planar_index.count_gap", Mean(get("planar_index.count_gap")),
         "count");

  // core/scan: the paper-shape reference (Figure 7's speed-up).
  m->Set("scan.ineq_ms", Median(get("scan.ineq_ms")), "ms");
  m->Set("scan.speedup", Median(get("scan.speedup")), "x");

  // core/sharded
  m->Set("sharded.fanout_ms", Median(get("sharded.fanout_ms")), "ms");
  m->Set("sharded.slowest_shard_ms", Median(get("sharded.slowest_shard_ms")),
         "ms");
  m->Set("sharded.merge_ms", Median(get("sharded.merge_ms")), "ms");
  double imbalance = 0.0;
  if (!traced.shard_rows_after.empty()) {
    double most = 0.0;
    double total = 0.0;
    for (size_t s = 0; s < traced.shard_rows_after.size(); ++s) {
      const auto rows_s = static_cast<double>(traced.shard_rows_after[s] -
                                              traced.shard_rows_before[s]);
      most = std::max(most, rows_s);
      total += rows_s;
    }
    const double mean =
        total / static_cast<double>(traced.shard_rows_after.size());
    imbalance = mean > 0.0 ? most / mean : 0.0;
  }
  m->Set("sharded.imbalance", imbalance, "ratio");

  // ingest
  m->Set("ingest.append_us", Median(traced.append_execute_us), "us");
  const Kind append = Kind::kAppend;
  m->Set("ingest.append_p50_ms",
         Median(Latencies(traced, &append, traced.start_ns, INT64_MAX)), "ms");
  m->Set("ingest.overlay_ms", Median(get("ingest.overlay_ms")), "ms");
  m->Set("ingest.delta_rows", Mean(get("ingest.delta_rows")), "count");
  m->Set("ingest.merges",
         static_cast<double>(a.counters.merges - b.counters.merges), "count");
  m->Set("ingest.merge_ms",
         WindowMean(b.merge_latency_millis, a.merge_latency_millis), "ms");
  m->Set("ingest.shed",
         static_cast<double>(a.counters.appends_shed -
                             b.counters.appends_shed),
         "count");
  m->Set("ingest.writer_lag_ms", Percentile(traced.writer_lag_ms, 99.0), "ms");

  // learn: the learned-CDF sidecar of the main monolithic set.
  const Catalog::SetPtr main_set =
      system.catalog->Find(system.spec->targets[0].name);
  std::vector<double> max_error;
  std::vector<double> segments;
  for (size_t i = 0; i < main_set->num_indices(); ++i) {
    const LearnedCdf& cdf = main_set->index(i).learned_cdf();
    max_error.push_back(static_cast<double>(cdf.max_error()));
    segments.push_back(static_cast<double>(cdf.segments()));
  }
  m->Set("learn.cdf_max_error", Mean(max_error), "count");
  m->Set("learn.cdf_segments", Mean(segments), "count");

  // Tracing overhead: traced window minus the untraced one.
  const double traced_p50 =
      Median(Latencies(traced, nullptr, traced.start_ns, INT64_MAX));
  const double untraced_p50 =
      Median(Latencies(untraced, nullptr, untraced.start_ns, INT64_MAX));
  m->Set("trace.overhead_p50_ms", traced_p50 - untraced_p50, "ms");
  const double untraced_qps =
      static_cast<double>(untraced.ok) / untraced.seconds;
  const double traced_qps = static_cast<double>(traced.ok) / traced.seconds;
  m->Set("trace.overhead_qps_frac",
         untraced_qps > 0.0 ? 1.0 - traced_qps / untraced_qps : 0.0, "ratio");
  double spans = 0.0;
  for (const TraceBuffer& t : traced.traces) {
    spans += static_cast<double>(t.spans().size());
  }
  m->Set("trace.spans", spans, "count");
}

/// Writes every span (one array per span: request id, name, parent index
/// into the same array or -1, start and duration in microseconds from the
/// first span) and, per span name, its count, total and self time (the
/// span minus its children).
bool WriteTrace(const std::string& path, const Args& args,
                const WindowResult& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const TraceBuffer& t : traced.traces) {
    for (const Span& s : t.spans()) origin = std::min(origin, s.start_ns);
  }
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> layers;
  std::fprintf(f, "{\"workload\":%s,\"seed\":%llu,\"spans\":[",
               Quote(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed));
  int64_t offset = 0;
  bool first = true;
  for (const TraceBuffer& t : traced.traces) {
    const std::vector<Span>& spans = t.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t parent = s.parent < 0 ? -1 : s.parent + offset;
      const double start_us = static_cast<double>(s.start_ns - origin) * 1e-3;
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      Totals& totals = layers[s.name];
      ++totals.count;
      totals.total_ms += ms;
      totals.self_ms += ms - child_ms[i];
      std::fprintf(f, "%s[%llu,\"%s\",%lld,%s,%s]", first ? "" : ",",
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(parent), Num(start_us).c_str(),
                   Num(ms * 1e3).c_str());
      first = false;
    }
    offset += static_cast<int64_t>(spans.size());
  }
  std::fprintf(f, "],\"layers\":{");
  first = true;
  for (const auto& [name, t] : layers) {
    std::fprintf(f, "%s%s:{\"count\":%llu,\"total_ms\":%s,\"self_ms\":%s}",
                 first ? "" : ",", Quote(name).c_str(),
                 static_cast<unsigned long long>(t.count),
                 Num(t.total_ms).c_str(), Num(t.self_ms).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  System system = args.trace ? SetUp(spec, args.seed, 1, 0.0)
                              : SetUp(spec, args.seed, kSetupReps,
                                      kSetupSeconds);
  const double index_mb = TargetBytes(system, false) / 1048576.0;
  const double warm_seconds = std::min(1.0, 0.2 * args.seconds);
  WindowResult warm = RunWindow(system, args.seed, 0, warm_seconds, false);

  Metrics metrics;
  std::string slices = "{}";
  std::vector<CheckItem> checks = std::move(warm.checks);
  uint64_t attempted = 0;
  uint64_t errors = 0;
  WindowResult untraced;
  WindowResult traced;
  if (!args.trace) {
    untraced = RunWindow(system, args.seed, 1, args.seconds, false);
  } else {
    untraced = RunWindow(system, args.seed, 1, args.seconds / 2, false);
    traced = RunWindow(system, args.seed, 2, args.seconds / 2, true);
  }
  for (WindowResult* w : {&untraced, &traced}) {
    attempted += w->attempted;
    errors += w->shed + w->failed;
    for (CheckItem& c : w->checks) checks.push_back(std::move(c));
  }

  uint64_t checked = 0;
  std::vector<std::string> notes;
  const uint64_t wrong = CheckAnswers(system, checks, &checked, &notes);
  for (const std::string& note : notes) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", note.c_str());
  }

  if (!args.trace) {
    metrics.Set("setup_s", Median(system.setup_seconds), "s");
    AddEndToEnd(untraced, wrong, &metrics, &slices);
    metrics.Set("index_mb", index_mb, "MB");
  } else {
    AddPerLayer(system, untraced, traced, wrong, &metrics);
    if (!args.trace_out.empty() &&
        !WriteTrace(args.trace_out, args, traced)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }

  std::string setups = "[";
  for (const double s : system.setup_seconds) {
    setups += (setups.size() > 1 ? "," : "") + Num(s);
  }
  setups += "]";
  // Latency samples per kind behind the reported percentiles.
  const WindowResult& reported = args.trace ? traced : untraced;
  size_t per_kind[kNumKinds] = {};
  for (const Sample& s : reported.samples) {
    ++per_kind[static_cast<int>(s.kind)];
  }
  std::string samples = "{";
  for (int k = 0; k < kNumKinds; ++k) {
    samples += (samples.size() > 1 ? ",\"" : "\"") +
               std::string(KindName(static_cast<Kind>(k))) +
               "\":" + std::to_string(per_kind[k]);
  }
  samples += "}";
  const size_t threads = spec.reader_threads + (spec.append_rate > 0 ? 1 : 0) +
                         system.engine->options().num_workers;
  std::printf(
      "{\"bench\":\"perfbench\",\"workload\":%s,\"seed\":%llu,"
      "\"traced\":%s,\"seconds\":%s,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"wrong\":%llu,\"checked\":%llu,\"setup_runs_s\":%s,"
      "\"samples\":%s,\"slices\":%s,\"metrics\":%s%s}\n",
      Quote(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? "true" : "false", Num(args.seconds).c_str(),
      wrong == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(errors + wrong),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(checked), setups.c_str(),
      samples.c_str(), slices.c_str(), metrics.ToJson().c_str(),
      bench::JsonStamp(threads).c_str());
  std::fflush(stdout);
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace planar

int main(int argc, char** argv) {
  const auto args = planar::perfbench::ParseArgs(argc, argv);
  return planar::perfbench::Run(args);
}
