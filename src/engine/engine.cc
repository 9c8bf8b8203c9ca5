// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "engine/engine.h"

#include <string>
#include <utility>
#include <vector>

#include "core/fold.h"

namespace planar {

namespace {

// Requests a worker (or RunPending) claims per queue pop. Popping one at
// a time measured the same end to end (perfbench, both workloads).
constexpr size_t kRequestsPerPop = 16;

// Rows the exact scalar product verified for one answer: what the
// shard-fanout metrics account.
template <typename T>
uint64_t RowsVerifiedBy(const Result<T>& result) {
  return result.ok() ? RowsVerified(result.value()) : 0;
}

}  // namespace

Engine::Engine(Catalog* catalog, const EngineOptions& options)
    : catalog_(catalog),
      options_(options),
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
  batch.reserve(kRequestsPerPop);
  if (queue_.TryPopBatch(&batch, kRequestsPerPop) == 0) return 0;
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
    target->sharded = ingest->Pin(name);
  }
  return Status::OK();
}

template <typename ReadFn>
auto Engine::Read(const Target& target, const ReadFn& read) {
  if (target.sharded == nullptr) return read(*target.set);
  auto result = read(*target.sharded);
  if (target.set == nullptr) {
    metrics_.OnShardedExecuted(target.sharded->num_shards(),
                               RowsVerifiedBy(result));
  }
  return result;
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
  for (Pending& pending : batch) {
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

void Engine::WorkerLoop() {
  std::vector<Pending> batch;
  batch.reserve(kRequestsPerPop);
  while (queue_.PopBatch(&batch, kRequestsPerPop) > 0) {
    RunBatch(batch);
    batch.clear();
  }
}

}  // namespace planar
