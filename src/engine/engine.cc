// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/fold.h"

namespace planar {

namespace {

// A max_batch of 0 would pop nothing from an open queue, which WorkerLoop
// and Drain read as closed-and-drained: workers would exit on their first
// request and Drain would leave admitted promises unanswered.
EngineOptions ClampOptions(EngineOptions options) {
  options.max_batch = std::max<size_t>(options.max_batch, 1);
  return options;
}

// Rows the exact scalar product verified for one answer, or for every OK
// answer of a batch: what the shard-fanout metrics account.
template <typename T>
uint64_t RowsVerifiedBy(const Result<T>& result) {
  return result.ok() ? RowsVerified(result.value()) : 0;
}

uint64_t RowsVerifiedBy(const std::vector<Result<InequalityResult>>& results) {
  uint64_t verified = 0;
  for (const Result<InequalityResult>& result : results) {
    verified += RowsVerifiedBy(result);
  }
  return verified;
}

}  // namespace

Engine::Engine(Catalog* catalog, const EngineOptions& options)
    : catalog_(catalog),
      options_(ClampOptions(options)),
      queue_(options.queue_capacity) {
  if (options_.num_workers > 0) {
    ThreadPoolOptions pool_options;
    pool_options.threads = options_.num_workers;
    pool_ = std::make_unique<ThreadPool>(pool_options);
    // Each worker occupies one pool thread with its serving loop until
    // the queue closes at Drain().
    for (size_t i = 0; i < options_.num_workers; ++i) {
      pool_->Run([this] { WorkerLoop(); });
    }
  }
}

Engine::~Engine() { Drain(); }

Result<std::future<EngineResponse>> Engine::Submit(EngineRequest request) {
  metrics_.OnSubmitted();
  if (draining_.load(std::memory_order_acquire)) {
    metrics_.OnRejectedDraining();
    return Status::Unavailable("engine is draining; not accepting requests");
  }
  Pending pending;
  pending.request = std::move(request);
  std::future<EngineResponse> future = pending.promise.get_future();
  if (!queue_.TryPush(std::move(pending))) {
    metrics_.OnRejectedQueueFull();
    return Status::ResourceExhausted(
        "engine queue is full (" + std::to_string(queue_.capacity()) +
        " requests); retry later or raise queue_capacity");
  }
  metrics_.OnAdmitted();
  return future;
}

size_t Engine::RunPending() {
  std::vector<Pending> batch;
  batch.reserve(options_.max_batch);
  if (queue_.TryPopBatch(&batch, options_.max_batch) == 0) return 0;
  RunBatch(batch);
  return batch.size();
}

void Engine::Drain() {
  if (drained_.exchange(true, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);
  queue_.Close();
  if (pool_ != nullptr) pool_->Shutdown();
  // Whatever the workers did not claim (all of it, in 0-worker mode)
  // runs inline so every admitted request is answered and accounted.
  while (RunPending() > 0) {
  }
}

void Engine::AttachIngest(IngestBackend* backend) {
  if (backend != nullptr) backend->BindMetrics(&metrics_);
  ingest_.store(backend, std::memory_order_release);
}

DebugSnapshot Engine::Snapshot() const {
  DebugSnapshot snapshot;
  snapshot.counters = metrics_.counters();
  snapshot.latency_millis = metrics_.latency_millis();
  snapshot.queue_wait_millis = metrics_.queue_wait_millis();
  snapshot.batch_occupancy = metrics_.batch_occupancy();
  snapshot.rows_shared_per_query = metrics_.rows_shared_per_query();
  snapshot.merge_latency_millis = metrics_.merge_latency_millis();
  if (IngestBackend* ingest = ingest_.load(std::memory_order_acquire)) {
    const IngestBackend::Gauges gauges = ingest->gauges();
    snapshot.ingest_targets = gauges.targets;
    snapshot.delta_rows = gauges.delta_rows;
  }
  snapshot.shard_fanout = metrics_.shard_fanout();
  snapshot.bound_gap = metrics_.bound_gap();
  snapshot.queue_depth = queue_.size();
  // relaxed-ok: best-effort gauge; a snapshot is allowed to be
  // momentarily behind while requests are moving (see header contract).
  snapshot.in_flight = in_flight_.load(std::memory_order_relaxed);
  snapshot.workers = pool_ == nullptr ? 0 : pool_->threads();
  snapshot.catalog_entries = catalog_->size();
  snapshot.draining = draining_.load(std::memory_order_acquire);
  return snapshot;
}

Result<Catalog::ShardedPtr> Engine::BuildAndInstallSharded(
    const std::string& name, PhiMatrix phi,
    const std::vector<ParameterDomain>& domains,
    ShardedIndexSetOptions options) {
  if (options.shards == 0) options.shards = options_.shards;
  return catalog_->BuildAndInstallSharded(name, std::move(phi), domains,
                                          options);
}

Status Engine::Resolve(const std::string& name, Target* target) const {
  // A name resolves to a monolithic entry or a sharded one, never both
  // (Catalog exclusivity); only a monolithic entry can be ingest-managed,
  // and then its pinned epoch serves instead of the catalog snapshot.
  target->set = catalog_->Find(name);
  if (target->set == nullptr) {
    target->sharded = catalog_->FindSharded(name);
    if (target->sharded == nullptr) {
      return Status::NotFound("no catalog entry named '" + name + "'");
    }
  } else if (IngestBackend* ingest = ingest_.load(std::memory_order_acquire)) {
    target->overlay = ingest->Pin(name);
  }
  return Status::OK();
}

template <typename ReadFn>
auto Engine::Read(const Target& target, const ReadFn& read) {
  if (target.sharded != nullptr) {
    auto result = read(*target.sharded);
    metrics_.OnShardedExecuted(target.sharded->num_shards(),
                               RowsVerifiedBy(result));
    return result;
  }
  if (target.overlay != nullptr) return read(*target.overlay);
  return read(*target.set);
}

EngineResponse Engine::Execute(const EngineRequest& request) {
  EngineResponse response;
  // Writes never touch the catalog read path: they go to the ingest
  // backend or nowhere.
  if (request.kind == QueryKind::kAppend) {
    IngestBackend* const ingest = ingest_.load(std::memory_order_acquire);
    if (ingest == nullptr) {
      response.status = Status::FailedPrecondition(
          "kAppend requires an ingest backend (Engine::AttachIngest)");
      return response;
    }
    if (request.deadline.Expired()) {
      response.status = Status::DeadlineExceeded(
          "deadline expired before execution started");
      return response;
    }
    Result<uint32_t> first = ingest->Append(request.target, request.rows);
    if (first.ok()) {
      response.first_appended_id = first.value();
    } else {
      response.status = first.status();
    }
    return response;
  }
  // NotFound keeps precedence over an expired deadline.
  Target target;
  const Status resolved = Resolve(request.target, &target);
  if (!resolved.ok()) {
    response.status = resolved;
    return response;
  }
  if (request.deadline.Expired()) {
    response.status = Status::DeadlineExceeded(
        "deadline expired before execution started");
    return response;
  }
  const ScalarProductQuery& q = request.query;
  const Deadline& deadline = request.deadline;
  const CountTolerance& tolerance = request.tolerance;
  // `read` runs the query on whichever set the target resolved to (they
  // share method names); the answer lands in `*slot`, an error in the
  // response status.
  const auto serve = [&](auto* slot, const auto& read) {
    auto result = Read(target, read);
    if (!result.ok()) {
      response.status = result.status();
      return false;
    }
    *slot = std::move(result).value();
    return true;
  };
  switch (request.kind) {
    case QueryKind::kInequality:
      serve(&response.inequality,
            [&](const auto& s) { return s.Inequality(q, deadline); });
      break;
    case QueryKind::kTopK:
      serve(&response.topk,
            [&](const auto& s) { return s.TopK(q, request.k, deadline); });
      break;
    case QueryKind::kCount:
      if (serve(&response.count, [&](const auto& s) {
            return s.CountInequality(q, tolerance, deadline);
          })) {
        metrics_.OnCountExecuted(response.count.refined, response.count.gap());
      }
      break;
    case QueryKind::kAggregate:
      if (serve(&response.aggregate, [&](const auto& s) {
            return s.AggregateInequality(q, tolerance, deadline);
          })) {
        metrics_.OnCountExecuted(response.aggregate.count.refined,
                                 response.aggregate.count.gap());
      }
      break;
    case QueryKind::kAppend:
      break;  // handled above
  }
  return response;
}

void Engine::RunBatch(std::vector<Pending>& batch) {
  // Opportunistic micro-batching: inequality requests that name the same
  // catalog entry and share a comparison direction are compatible with
  // one coalesced BatchInequality call. Groups of two or more take that
  // path; singletons and every other request kind run serially, exactly
  // as before.
  std::vector<char> grouped(batch.size(), 0);
  std::vector<size_t> members;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (grouped[i] || batch[i].request.kind != QueryKind::kInequality) {
      continue;
    }
    members.clear();
    members.push_back(i);
    for (size_t j = i + 1; j < batch.size(); ++j) {
      if (grouped[j] || batch[j].request.kind != QueryKind::kInequality) {
        continue;
      }
      if (batch[j].request.target == batch[i].request.target &&
          batch[j].request.query.cmp == batch[i].request.query.cmp) {
        members.push_back(j);
      }
    }
    if (members.size() < 2) continue;
    for (size_t m : members) grouped[m] = 1;
    RunGroup(batch, members);
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (grouped[i]) continue;
    Pending& pending = batch[i];
    // relaxed-ok: in_flight_ is a monitoring gauge only — nothing
    // synchronizes on it, and Drain() correctness rests on the queue's
    // close-then-drain plus thread joins, not this counter.
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    const double queue_millis = pending.queued.ElapsedMillis();
    WallTimer execute_timer;
    EngineResponse response = Execute(pending.request);
    response.queue_millis = queue_millis;
    response.execute_millis = execute_timer.ElapsedMillis();
    metrics_.OnCompleted(response.status, response.queue_millis,
                         response.execute_millis);
    pending.promise.set_value(std::move(response));
    // relaxed-ok: monitoring gauge (see the fetch_add above).
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Engine::RunGroup(std::vector<Pending>& batch,
                      const std::vector<size_t>& members) {
  // relaxed-ok: monitoring gauge, same contract as RunBatch above.
  in_flight_.fetch_add(members.size(), std::memory_order_relaxed);
  std::vector<double> queue_millis(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    queue_millis[m] = batch[members[m]].queued.ElapsedMillis();
  }
  Target target;
  const Status resolved = Resolve(batch[members[0]].request.target, &target);
  // Requests that cannot execute — unknown target, or a deadline already
  // spent in the queue — are answered up front with the same statuses the
  // serial path produces; the rest form the live group.
  std::vector<size_t> live;  // indices into `members`
  live.reserve(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    Pending& pending = batch[members[m]];
    EngineResponse response;
    if (!resolved.ok()) {
      response.status = resolved;
    } else if (pending.request.deadline.Expired()) {
      response.status = Status::DeadlineExceeded(
          "deadline expired before execution started");
    } else {
      live.push_back(m);
      continue;
    }
    response.queue_millis = queue_millis[m];
    metrics_.OnCompleted(response.status, response.queue_millis, 0.0);
    pending.promise.set_value(std::move(response));
  }
  if (!live.empty()) {
    std::vector<ScalarProductQuery> queries;
    std::vector<Deadline> deadlines;
    queries.reserve(live.size());
    deadlines.reserve(live.size());
    for (size_t m : live) {
      queries.push_back(batch[members[m]].request.query);
      deadlines.push_back(batch[members[m]].request.deadline);
    }
    BatchExecStats exec_stats;
    WallTimer execute_timer;
    // A sharded group fans to every shard, so each shard's cross-query
    // coalescing still applies within its slice; an overlay folds its
    // delta into each answer of the base's coalesced batch.
    std::vector<Result<InequalityResult>> results =
        Read(target, [&](const auto& s) {
          return s.BatchInequality(queries, deadlines, &exec_stats);
        });
    const double execute_millis = execute_timer.ElapsedMillis();
    metrics_.OnBatchExecuted(live.size(), exec_stats.RowsSharedPerQuery());
    for (size_t li = 0; li < live.size(); ++li) {
      const size_t m = live[li];
      Pending& pending = batch[members[m]];
      EngineResponse response;
      if (results[li].ok()) {
        response.inequality = std::move(results[li]).value();
      } else {
        response.status = results[li].status();
      }
      response.queue_millis = queue_millis[m];
      response.execute_millis = execute_millis;
      metrics_.OnCompleted(response.status, response.queue_millis,
                           response.execute_millis);
      pending.promise.set_value(std::move(response));
    }
  }
  // relaxed-ok: monitoring gauge (see the fetch_add above).
  in_flight_.fetch_sub(members.size(), std::memory_order_relaxed);
}

void Engine::WorkerLoop() {
  const auto linger = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(options_.batch_linger_millis));
  std::vector<Pending> batch;
  batch.reserve(options_.max_batch);
  while (queue_.PopBatchLinger(&batch, options_.max_batch, linger) > 0) {
    RunBatch(batch);
    batch.clear();
  }
}

}  // namespace planar
