// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The serving workloads, their set-up, the load generators, and the
// correctness gate.
//
// Readers are closed loop: each generator thread keeps one request
// outstanding and submits the next one only when it completes.
// The writer is open loop: it submits appends on a fixed schedule and
// times each from its scheduled send time, so a stall shows as latency of
// the appends queued behind it, and how late it ran is recorded.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/scan.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"
#include "perfbench/perfbench.h"

namespace planar {
namespace perfbench {
namespace {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> all;

    // Cache-resident data and a tiny II: engine handoff, index selection,
    // boundary search and result materialization dominate.
    WorkloadSpec small;
    small.name = "small_selective";
    small.targets = {{"small", Layout::kMonolithic, 100000, 2, 2, 0.05}};
    small.mix = {{Kind::kCount, 0, 0.5},
                 {Kind::kInequality, 0, 0.3},
                 {Kind::kTopK, 0, 0.2}};
    small.reader_threads = 2;
    small.count_relative_tolerance = 0.01;
    all.push_back(small);

    // Writes beside reads, and scatter-gather: delta-overlay scans, merge
    // stalls, shard stragglers and merge cost.
    WorkloadSpec ingest;
    ingest.name = "ingest_sharded";
    ingest.targets = {{"live", Layout::kIngest, 200000, 4, 4, 0.25},
                      {"archive", Layout::kSharded, 400000, 4, 4, 0.25}};
    ingest.mix = {{Kind::kInequality, 0, 0.30},
                  {Kind::kCount, 0, 0.20},
                  {Kind::kInequality, 1, 0.25},
                  {Kind::kTopK, 1, 0.25}};
    ingest.reader_threads = 2;
    ingest.append_rate = 10.0;
    ingest.append_rows = 64;
    all.push_back(ingest);
    return all;
  }();
  return kAll;
}

/// SplitMix64 finalizer: decorrelates the seeds derived from one
/// command-line seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0,
                    uint64_t c = 0) {
  return Mix(Mix(Mix(Mix(seed) ^ a) ^ b) ^ c);
}

/// Attribute range of the generated data (the paper's (1, 100)).
constexpr double kRangeLo = 1.0;
constexpr double kRangeHi = 100.0;

/// Every kCheckEvery-th request of a thread is kept for the correctness
/// gate, at most kMaxChecksPerThread per thread and window.
constexpr uint64_t kCheckEvery = 16;
constexpr size_t kMaxChecksPerThread = 48;

/// SetUp stops adding builds past min_reps once they took min_seconds, and
/// at this many times min_reps in any case.
constexpr int kMaxSetupRepsPerMin = 4;

/// Traced windows record spans for, and probe, every kProbeEvery-th
/// request of a reader thread (and every append).
constexpr uint64_t kProbeEvery = 8;

/// A waiting generator spins this long before it sleeps: responses that
/// take less arrive without a wake-up of the client thread, whose cost
/// would otherwise dominate (and vary with host load) on fast requests.
constexpr auto kSpin = std::chrono::nanoseconds(50000);

EngineRequest MakeRequest(const WorkloadSpec& spec, const Op& op) {
  EngineRequest request;
  request.target = spec.targets[op.target].name;
  request.query = op.query;
  switch (op.kind) {
    case Kind::kInequality:
      request.kind = QueryKind::kInequality;
      break;
    case Kind::kTopK:
      request.kind = QueryKind::kTopK;
      request.k = spec.topk_k;
      break;
    case Kind::kCount:
      request.kind = QueryKind::kCount;
      request.tolerance.relative = spec.count_relative_tolerance;
      break;
    case Kind::kAppend:
      request.kind = QueryKind::kAppend;
      break;
  }
  return request;
}

/// Rows of the ingest target: every id below `acked_end` is acknowledged,
/// no id at or above `submitted_end` has been submitted.
struct IngestFrontier {
  std::atomic<uint64_t> acked_end{0};
  std::atomic<uint64_t> submitted_end{0};
};

/// The part of a WindowResult one generator thread fills.
struct ThreadOut {
  WindowResult r;
  TraceBuffer trace;
};

/// Records the client latency of an OK response and, in a traced window,
/// the engine's own split of it.
void RecordResponse(const Op& op, const EngineResponse& response,
                    int64_t start_ns, int64_t end_ns, bool traced,
                    ThreadOut* out) {
  WindowResult& r = out->r;
  if (!response.status.ok()) {
    ++r.failed;
    return;
  }
  ++r.ok;
  const double latency_ms = static_cast<double>(end_ns - start_ns) * 1e-6;
  r.samples.push_back({end_ns, op.kind, latency_ms});
  if (!traced) return;
  if (op.kind == Kind::kAppend) {
    r.append_execute_us.push_back(response.execute_millis * 1e3);
    return;
  }
  r.queue_ms.push_back(response.queue_millis);
  r.execute_ms.push_back(response.execute_millis);
  r.handoff_us.push_back(
      (latency_ms - response.queue_millis - response.execute_millis) * 1e3);
}

/// Per-request layer counters that the engine's response already carries.
void RecordResponseStats(const Op& op, const EngineResponse& response,
                         ProbeSamples* samples) {
  if (!response.status.ok()) return;
  if (op.kind == Kind::kTopK) {
    samples->Add("planar_index.topk_checked",
                 static_cast<double>(response.topk.stats.checked()));
    samples->Add("planar_index.topk_early_term",
                 response.topk.stats.early_terminated ? 1.0 : 0.0);
  } else if (op.kind == Kind::kCount) {
    samples->Add("planar_index.count_refined",
                 response.count.refined ? 1.0 : 0.0);
    samples->Add("planar_index.count_gap",
                 static_cast<double>(response.count.gap()));
  }
}

void TraceRequest(uint64_t request, const EngineResponse& response,
                  int64_t start_ns, int64_t end_ns, TraceBuffer* trace) {
  const int64_t root =
      trace->Add(request, "client.request", -1, start_ns, end_ns);
  const auto queue_ns = static_cast<int64_t>(response.queue_millis * 1e6);
  const auto exec_ns = static_cast<int64_t>(response.execute_millis * 1e6);
  trace->Add(request, "engine.queue", root, start_ns, start_ns + queue_ns);
  trace->Add(request, "engine.execute", root, end_ns - exec_ns, end_ns);
}

/// Waits until `future` is ready: polls it for up to kSpin, so a fast
/// response is seen without a wake-up, then blocks.
void WaitReady(const std::future<EngineResponse>& future) {
  const int64_t spin_until = NowNs() + kSpin.count();
  do {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      return;
    }
  } while (NowNs() < spin_until);
  future.wait();
}

void ReaderLoop(System& system, size_t thread, uint64_t seed, uint64_t stream,
                int64_t end_ns, bool traced, IngestFrontier* frontier,
                ThreadOut* out) {
  const WorkloadSpec& spec = *system.spec;
  std::vector<Eq18Workload> generators;
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    generators.emplace_back(system.data[t], spec.targets[t].rq,
                            spec.targets[t].s,
                            DeriveSeed(seed, stream, thread + 1, t));
  }
  Rng kind_rng(DeriveSeed(seed, stream, thread + 1, 0xabc));
  double total_weight = 0.0;
  for (const MixEntry& m : spec.mix) total_weight += m.weight;

  const auto next_op = [&]() {
    double pick = kind_rng.Uniform(0.0, total_weight);
    const MixEntry* entry = &spec.mix.back();
    for (const MixEntry& m : spec.mix) {
      if (pick < m.weight) {
        entry = &m;
        break;
      }
      pick -= m.weight;
    }
    Op op;
    op.kind = entry->kind;
    op.target = entry->target;
    op.query = generators[entry->target].Next();
    return op;
  };

  const uint64_t id_base = static_cast<uint64_t>(thread + 1) << 40;
  size_t kept = 0;
  for (uint64_t seq = 0; NowNs() < end_ns; ++seq) {
    Op op = next_op();
    const uint64_t lo_rows =
        frontier != nullptr ? frontier->acked_end.load() : 0;
    EngineRequest request = MakeRequest(spec, op);
    const int64_t start_ns = NowNs();
    auto submitted = system.engine->Submit(std::move(request));
    ++out->r.attempted;
    if (!submitted.ok()) {
      ++out->r.shed;
      continue;
    }
    WaitReady(*submitted);
    const int64_t done_ns = NowNs();
    EngineResponse response = submitted->get();
    RecordResponse(op, response, start_ns, done_ns, traced, out);
    const uint64_t id = id_base | seq;
    if (traced) {
      RecordResponseStats(op, response, &out->r.probes);
      if (seq % kProbeEvery == kProbeEvery / 2) {
        TraceRequest(id, response, start_ns, done_ns, &out->trace);
        ProbeRequest(system, op, id, &out->trace, &out->r.probes);
      }
    }
    if (seq % kCheckEvery == 0 && kept < kMaxChecksPerThread) {
      CheckItem item;
      item.lo_rows = lo_rows;
      item.hi_rows = frontier != nullptr ? frontier->submitted_end.load() : 0;
      item.op = std::move(op);
      item.response = std::move(response);
      out->r.checks.push_back(std::move(item));
      ++kept;
    }
  }
}

/// Open-loop appender: one append of spec.append_rows rows every
/// 1 / spec.append_rate seconds, each timed from its scheduled send.
void WriterLoop(System& system, uint64_t seed, uint64_t stream,
                int64_t start_ns, int64_t end_ns, bool traced,
                IngestFrontier* frontier, ThreadOut* out) {
  // Wakes at the scheduled send times, not up to 50 µs (the default
  // timer slack) after them.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const WorkloadSpec& spec = *system.spec;
  size_t target = 0;
  while (spec.targets[target].layout != Layout::kIngest) ++target;
  const size_t dim = spec.targets[target].dim;
  Rng rng(DeriveSeed(seed, stream, 0xfeed));
  const auto period_ns = static_cast<int64_t>(1e9 / spec.append_rate);

  struct Pending {
    std::future<EngineResponse> future;
    int64_t due_ns;
  };
  std::vector<Pending> pending;  // submission order
  std::map<uint64_t, uint64_t> acked_ranges;
  uint64_t acked_end = frontier->acked_end.load();
  Op op;
  op.kind = Kind::kAppend;
  op.target = target;

  const auto reap_front = [&]() {
    const int64_t done_ns = NowNs();
    EngineResponse response = pending.front().future.get();
    RecordResponse(op, response, pending.front().due_ns, done_ns, traced,
                   out);
    if (response.status.ok()) {
      out->r.appended_rows += spec.append_rows;
      acked_ranges[response.first_appended_id] =
          response.first_appended_id + spec.append_rows;
      while (!acked_ranges.empty() &&
             acked_ranges.begin()->first == acked_end) {
        acked_end = acked_ranges.begin()->second;
        acked_ranges.erase(acked_ranges.begin());
      }
      frontier->acked_end.store(acked_end);
    }
    if (traced) {
      TraceRequest((uint64_t{0xff} << 40) | out->r.attempted, response,
                   pending.front().due_ns, done_ns, &out->trace);
      out->r.probes.Add(
          "ingest.delta_rows",
          static_cast<double>(system.ingest->gauges().delta_rows));
    }
    pending.erase(pending.begin());
  };

  for (int64_t i = 0;; ++i) {
    const int64_t due_ns = start_ns + i * period_ns;
    if (due_ns >= end_ns) break;
    const auto due = Clock::time_point(std::chrono::nanoseconds(due_ns));
    while (!pending.empty() && pending.front().future.wait_until(due) ==
                                   std::future_status::ready) {
      reap_front();
    }
    std::this_thread::sleep_until(due);
    std::vector<double> rows(spec.append_rows * dim);
    for (double& v : rows) v = rng.Uniform(kRangeLo, kRangeHi);
    EngineRequest request = MakeRequest(spec, op);
    request.rows = std::move(rows);
    frontier->submitted_end.fetch_add(spec.append_rows);
    const int64_t send_ns = NowNs();
    out->r.writer_lag_ms.push_back(static_cast<double>(send_ns - due_ns) *
                                   1e-6);
    auto submitted = system.engine->Submit(std::move(request));
    ++out->r.attempted;
    if (!submitted.ok()) {
      ++out->r.shed;
      continue;
    }
    pending.push_back({std::move(submitted).value(), due_ns});
  }
  while (!pending.empty()) reap_front();
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void MergeInto(WindowResult* into, ThreadOut&& from) {
  WindowResult& r = from.r;
  Append(&into->samples, r.samples);
  Append(&into->queue_ms, r.queue_ms);
  Append(&into->execute_ms, r.execute_ms);
  Append(&into->handoff_us, r.handoff_us);
  Append(&into->append_execute_us, r.append_execute_us);
  Append(&into->writer_lag_ms, r.writer_lag_ms);
  into->attempted += r.attempted;
  into->ok += r.ok;
  into->shed += r.shed;
  into->failed += r.failed;
  into->appended_rows += r.appended_rows;
  for (CheckItem& c : r.checks) into->checks.push_back(std::move(c));
  into->probes.Merge(r.probes);
  into->traces.push_back(std::move(from.trace));
  from = ThreadOut();  // frees the copied samples before the next thread's
}

std::vector<uint64_t> ShardRowsVerified(const System& system) {
  std::vector<uint64_t> rows;
  for (const TargetSpec& t : system.spec->targets) {
    if (t.layout != Layout::kSharded) continue;
    const Catalog::ShardedPtr sharded = system.catalog->FindSharded(t.name);
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      rows.push_back(sharded->shard_rows_verified(s));
    }
  }
  return rows;
}

bool SameIds(std::vector<uint32_t> got, std::vector<uint32_t> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

/// Checks one answer from a target that did not change while serving.
bool CheckStatic(const WorkloadSpec& spec, const PhiMatrix& phi,
                 const CheckItem& c, std::string* why) {
  const ScalarProductQuery& q = c.op.query;
  switch (c.op.kind) {
    case Kind::kInequality: {
      if (SameIds(c.response.inequality.ids, ScanInequality(phi, q).ids)) {
        return true;
      }
      *why = "inequality ids differ from the scan";
      return false;
    }
    case Kind::kTopK: {
      auto truth = ScanTopK(phi, q, spec.topk_k);
      PLANAR_CHECK(truth.ok());
      const auto& got = c.response.topk.neighbors;
      const auto& want = truth->neighbors;
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].id == want[i].id && got[i].distance == want[i].distance;
      }
      if (!same) *why = "top-k (distance, id) list differs from the scan";
      return same;
    }
    case Kind::kCount: {
      const size_t truth = ScanInequality(phi, q).ids.size();
      const CountResult& got = c.response.count;
      if (spec.count_relative_tolerance == 0.0) {
        if (got.exact && got.lower == truth && got.upper == truth &&
            got.estimate == truth) {
          return true;
        }
        *why = "exact count differs from the scan";
        return false;
      }
      if (got.lower <= truth && truth <= got.upper) return true;
      *why = "count bounds exclude the scan count";
      return false;
    }
    case Kind::kAppend:
      break;
  }
  return true;
}

/// Checks one answer from the ingest target against its flushed rows:
/// the answer must hold every match among rows acknowledged before the
/// request and nothing outside the rows submitted before it completed.
bool CheckIngest(const PhiMatrix& phi, const CheckItem& c, std::string* why) {
  const uint64_t hi = std::min<uint64_t>(c.hi_rows, phi.size());
  std::vector<uint32_t> may;  // matches among rows [0, hi), ascending
  auto scanned = ScanRowsInequality(phi.data(), phi.dim(), hi, 0, c.op.query,
                                    Deadline::Infinite(), &may);
  PLANAR_CHECK(scanned.ok());
  const auto lo_end = std::lower_bound(may.begin(), may.end(), c.lo_rows);
  const size_t must = static_cast<size_t>(lo_end - may.begin());
  if (c.op.kind == Kind::kCount) {
    const CountResult& got = c.response.count;
    if (got.exact && got.lower == got.upper && must <= got.estimate &&
        got.estimate <= may.size()) {
      return true;
    }
    *why = "live count outside the bracket of acknowledged/submitted rows";
    return false;
  }
  std::vector<uint32_t> got = c.response.inequality.ids;
  std::sort(got.begin(), got.end());
  const bool within = std::includes(may.begin(), may.end(), got.begin(),
                                    got.end());
  const bool complete = std::includes(got.begin(), got.end(), may.begin(),
                                      lo_end);
  if (within && complete) return true;
  *why = within ? "live inequality misses an acknowledged matching row"
                : "live inequality returns a non-matching or unsubmitted row";
  return false;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kInequality:
      return "ineq";
    case Kind::kTopK:
      return "topk";
    case Kind::kCount:
      return "count";
    case Kind::kAppend:
      return "append";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void ProbeSamples::Merge(const ProbeSamples& other) {
  for (const auto& [name, v] : other.values) Append(&values[name], v);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

System SetUp(const WorkloadSpec& spec, uint64_t seed, int min_reps,
             double min_seconds) {
  System system;
  system.spec = &spec;
  std::vector<std::vector<ParameterDomain>> domains;
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    const TargetSpec& target = spec.targets[t];
    SyntheticSpec data;
    data.distribution = SyntheticDistribution::kIndependent;
    data.num_points = target.rows;
    data.dim = target.dim;
    data.range_lo = kRangeLo;
    data.range_hi = kRangeHi;
    data.seed = DeriveSeed(seed, 0xda7a, t);
    system.data.push_back(GenerateSynthetic(data));  // phi(x) = x
    domains.push_back(
        Eq18Workload(system.data.back(), target.rq, target.s, 0).Domains());
  }

  double total_seconds = 0.0;
  for (int rep = 0; rep < min_reps || (total_seconds < min_seconds &&
                                       rep < kMaxSetupRepsPerMin * min_reps);
       ++rep) {
    system.ingest.reset();
    system.catalog.reset();
    auto catalog = std::make_unique<Catalog>();
    std::unique_ptr<IngestManager> ingest;
    std::vector<PhiMatrix> copies = system.data;
    for (const TargetSpec& t : spec.targets) {
      if (t.layout == Layout::kIngest) {
        ingest = std::make_unique<IngestManager>(catalog.get());
      }
    }

    const int64_t start_ns = NowNs();
    for (size_t t = 0; t < spec.targets.size(); ++t) {
      const TargetSpec& target = spec.targets[t];
      if (target.layout == Layout::kSharded) {
        PLANAR_CHECK(catalog
                         ->BuildAndInstallSharded(target.name,
                                                  std::move(copies[t]),
                                                  domains[t])
                         .ok());
        continue;
      }
      PLANAR_CHECK(catalog
                       ->BuildAndInstall(target.name, std::move(copies[t]),
                                         domains[t])
                       .ok());
      if (target.layout == Layout::kIngest) {
        PLANAR_CHECK(ingest->Manage(target.name).ok());
      }
    }
    system.setup_seconds.push_back(
        static_cast<double>(NowNs() - start_ns) * 1e-9);
    total_seconds += system.setup_seconds.back();
    system.catalog = std::move(catalog);
    system.ingest = std::move(ingest);
  }

  EngineOptions options;
  options.num_workers = 2;
  system.engine = std::make_unique<Engine>(system.catalog.get(), options);
  if (system.ingest) system.engine->AttachIngest(system.ingest.get());
  return system;
}

WindowResult RunWindow(System& system, uint64_t seed, uint64_t stream,
                       double seconds, bool traced) {
  const WorkloadSpec& spec = *system.spec;
  WindowResult result;
  IngestFrontier frontier;
  if (system.ingest) {
    for (const TargetSpec& t : spec.targets) {
      if (t.layout != Layout::kIngest) continue;
      const uint64_t rows = t.rows + system.appended_rows;
      frontier.acked_end.store(rows);
      frontier.submitted_end.store(rows);
    }
  }
  result.before = system.engine->Snapshot();
  result.shard_rows_before = ShardRowsVerified(system);

  const size_t threads = spec.reader_threads + (spec.append_rate > 0 ? 1 : 0);
  std::vector<ThreadOut> outs(threads);
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::thread> workers;
    for (size_t i = 0; i < spec.reader_threads; ++i) {
      workers.emplace_back(ReaderLoop, std::ref(system), i, seed, stream,
                           end_ns, traced,
                           system.ingest ? &frontier : nullptr, &outs[i]);
    }
    if (spec.append_rate > 0) {
      workers.emplace_back(WriterLoop, std::ref(system), seed, stream,
                           start_ns, end_ns, traced, &frontier,
                           &outs.back());
    }
    for (std::thread& w : workers) w.join();
  }
  result.start_ns = start_ns;
  result.end_ns = end_ns;
  result.seconds = static_cast<double>(NowNs() - start_ns) * 1e-9;
  for (ThreadOut& out : outs) MergeInto(&result, std::move(out));
  system.appended_rows += result.appended_rows;
  result.after = system.engine->Snapshot();
  result.shard_rows_after = ShardRowsVerified(system);
  return result;
}

uint64_t CheckAnswers(System& system, const std::vector<CheckItem>& checks,
                      uint64_t* checked, std::vector<std::string>* notes) {
  const WorkloadSpec& spec = *system.spec;
  uint64_t wrong = 0;
  *checked = 0;
  const auto fail = [&](const std::string& why) {
    ++wrong;
    if (notes->size() < 8) notes->push_back(why);
  };

  Catalog::SetPtr live;
  for (const TargetSpec& t : spec.targets) {
    if (t.layout != Layout::kIngest) continue;
    const Status flushed = system.ingest->Flush(t.name);
    PLANAR_CHECK(flushed.ok());
    live = system.catalog->Find(t.name);
    ++*checked;
    if (live->size() != t.rows + system.appended_rows) {
      fail("live row count " + std::to_string(live->size()) +
           " != initial rows + acknowledged appends " +
           std::to_string(t.rows + system.appended_rows));
    }
  }

  for (const CheckItem& c : checks) {
    if (!c.response.status.ok()) continue;  // counted as failed already
    ++*checked;
    std::string why;
    const bool ok =
        spec.targets[c.op.target].layout == Layout::kIngest
            ? CheckIngest(live->phi(), c, &why)
            : CheckStatic(spec, system.data[c.op.target], c, &why);
    if (!ok) fail(std::string(KindName(c.op.kind)) + " on " +
                  spec.targets[c.op.target].name + ": " + why + " (" +
                  c.op.query.ToString() + ")");
  }
  return wrong;
}

}  // namespace perfbench
}  // namespace planar
