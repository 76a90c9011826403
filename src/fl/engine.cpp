#include "fl/engine.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "fl/byzantine.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

namespace {

/// Adapter turning a plain callback into a RoundObserver (the convenience
/// face of the observer API).
class CallbackObserver : public RoundObserver {
 public:
  explicit CallbackObserver(std::function<void(const RoundRecord&)> fn)
      : fn_(std::move(fn)) {}
  void on_round_end(const RoundRecord& rec) override { fn_(rec); }

 private:
  std::function<void(const RoundRecord&)> fn_;
};

/// Wire width of a weight payload relative to fp32: 0.5 in mixed-precision
/// sessions (tensors ship 2 bytes/element), 1 otherwise. Strategies quote
/// model_bytes as fp32 param_bytes; billing rescales here so CostMeter
/// matches what actually crosses the (real or simulated) wire.
double wire_dtype_scale(const SessionConfig& cfg) {
  const Precision& p = cfg.local.precision;
  return p.enabled() ? static_cast<double>(dtype_bytes(p.dtype)) / 4.0 : 1.0;
}

/// Snap a weight copy onto the session's storage grid so its fabric
/// serialization is half-width (and exactly what local_train would produce
/// by quantizing on entry — keeping fabric and in-process rounds in parity).
WeightSet quantized_for_wire(WeightSet ws, const Precision& p) {
  if (p.enabled())
    for (auto& t : ws) t.quantize_storage(p.dtype);
  return ws;
}

}  // namespace

void bill_trained_update(RoundContext& ctx, int client, double model_bytes,
                         double model_macs, const LocalTrainResult& res,
                         double& slowest, double up_bytes) {
  model_bytes *= wire_dtype_scale(ctx.session);
  ctx.costs.add_training_macs(res.macs_used);
  ctx.costs.add_transfer(model_bytes, up_bytes < 0.0 ? model_bytes : up_bytes);
  const double t = client_round_time_s(
      ctx.fleet[static_cast<std::size_t>(client)], model_macs,
      ctx.session.local.steps, ctx.session.local.batch, model_bytes);
  ctx.costs.add_client_round_time(t);
  slowest = std::max(slowest, t);
}

void bill_lost_update(RoundContext& ctx, ClientOutcome outcome,
                      double model_bytes, double model_macs) {
  if (outcome != ClientOutcome::LostDown)
    ctx.costs.add_training_macs(3.0 * model_macs * ctx.session.local.steps *
                                ctx.session.local.batch);
  ctx.costs.add_transfer(model_bytes * wire_dtype_scale(ctx.session), 0.0);
}

std::vector<ClientTask> Strategy::plan_round(RoundContext& ctx, Rng& rng) {
  auto selected = ctx.selector.select(ctx.data.num_clients(),
                                      ctx.session.clients_per_round, rng);
  std::vector<ClientTask> tasks;
  tasks.reserve(selected.size());
  for (int c : selected) tasks.push_back(ClientTask{c, 0});
  return tasks;
}

void Strategy::absorb_metrics(const ClientTask&, const LocalTrainResult&,
                              RoundContext&) {
  FT_CHECK_MSG(false, "strategy '"
                          << name()
                          << "' does not support numeric partial "
                             "aggregation (absorb_metrics not implemented)");
}

void Strategy::absorb_reduced(const ClientTask&, Model*, WeightSet&, double,
                              int, RoundContext&) {
  FT_CHECK_MSG(false, "strategy '"
                          << name()
                          << "' does not support numeric partial "
                             "aggregation (absorb_reduced not implemented)");
}

FederationEngine::FederationEngine(std::unique_ptr<Strategy> strategy,
                                   const ClientDataProvider& data,
                                   std::vector<DeviceProfile> fleet,
                                   SessionConfig cfg)
    : strategy_(std::move(strategy)),
      data_(data),
      fleet_(std::move(fleet)),
      cfg_(cfg),
      rng_(cfg.seed) {
  FT_CHECK_MSG(strategy_ != nullptr, "engine requires a strategy");
  FT_CHECK_MSG(static_cast<int>(fleet_.size()) == data_.num_clients(),
               "fleet size must match client count");
  // Validate the fabric topology and the partial-aggregation/strategy
  // combination here, at session build time, instead of letting the first
  // round (which builds the fabric lazily) throw. A numeric tree can only
  // pre-sum weighted-linear-sum reductions. Strategies that reduce
  // non-linearly (robust aggregators, compressed uplinks) still compose
  // with trees of any depth — in the default verbatim-bundle mode, where
  // interior aggregators forward updates untouched.
  if (cfg_.use_fabric) {
    validate_topology(cfg_.topology);
    if (cfg_.topology.partial_aggregation && cfg_.mode == SessionMode::Sync)
      FT_CHECK_MSG(
          strategy_->supports_partial_aggregation(),
          "SessionConfig: topology.partial_aggregation=true needs a "
          "strategy whose reduction is a weighted linear sum, but strategy '"
              << strategy_->name()
              << "' reduces non-linearly (supports_partial_aggregation() is "
                 "false). Drop with_partial_aggregation() — verbatim bundles "
                 "compose with aggregation trees of any depth — or pick a "
                 "linear strategy (FedAvg without compression, FedTrans, "
                 "HeteroFL).");
  }
  selector_ = make_selector(cfg_.selector);
  {
    RoundContext ctx = make_context();
    strategy_->attach(ctx, rng_);
  }
  costs_.note_storage(strategy_->initial_storage_bytes());
}

FederationEngine::~FederationEngine() = default;

void FederationEngine::set_selector(std::unique_ptr<ClientSelector> selector) {
  FT_CHECK_MSG(selector != nullptr, "null selector");
  FT_CHECK_MSG(round_ == 0 && version_ == 0,
               "selector swap after rounds have run");
  selector_ = std::move(selector);
}

void FederationEngine::on_round(std::function<void(const RoundRecord&)> fn) {
  owned_observers_.push_back(
      std::make_unique<CallbackObserver>(std::move(fn)));
  observers_.push_back(owned_observers_.back().get());
}

RoundContext FederationEngine::make_context() {
  return RoundContext{data_, fleet_, cfg_,   costs_, *selector_,
                      rng_,  round_, 0,      0};
}

bool FederationEngine::numeric_rounds() const {
  if (!cfg_.use_fabric || !cfg_.topology.partial_aggregation ||
      cfg_.mode != SessionMode::Sync)
    return false;
  FT_CHECK_MSG(strategy_->supports_partial_aggregation(),
               "partial_aggregation topology configured, but strategy '"
                   << strategy_->name()
                   << "' is not a weighted-linear-sum reduction");
  return true;
}

ExchangeResult FederationEngine::exchange(
    const std::vector<ClientTask>& tasks, std::vector<Rng>& client_rngs,
    std::vector<std::optional<Model>>& payloads,
    std::vector<Model*>& task_models) {
  ExchangeResult ex;
  if (cfg_.use_fabric) {
    // Message-passing path: payload models and forked Rngs ride ModelDown
    // frames over the simulated transport; ClientAgent workers train on
    // receipt and upload UpdateUp. The fixed-order reduction in run_round
    // is shared with the in-process path, so a fault-free fabric round is
    // bitwise identical to it — for every strategy.
    if (!fabric_)
      fabric_ = std::make_unique<FederationServer>(
          strategy_->reference_model(), data_, fleet_, cfg_.local,
          cfg_.fabric_faults, cfg_.topology, cfg_.transport, cfg_.socket);
    std::vector<int> clients;
    clients.reserve(tasks.size());
    for (const ClientTask& t : tasks) clients.push_back(t.client);

    // Numeric partial aggregation: hand the tree one reduce key per slot
    // so leaves know which updates sum into the same accumulator.
    std::vector<std::int32_t> reduce_keys;
    if (numeric_rounds()) {
      reduce_keys.reserve(tasks.size());
      for (const ClientTask& t : tasks)
        reduce_keys.push_back(strategy_->reduce_key(t));
    }

    if (Model* shared = strategy_->shared_model()) {
      // Single-global-model strategies broadcast one encoded weight blob
      // (snapped to the session's storage grid for half-width ModelDown).
      ex = fabric_->run_round(
          static_cast<std::uint32_t>(round_),
          quantized_for_wire(shared->weights(), cfg_.local.precision), clients,
          client_rngs, reduce_keys);
    } else {
      // Heterogeneous strategies ship per-task architectures on the wire.
      // Tasks sharing a payload_key reuse one materialized model (ladder
      // strategies: one submodel per capacity level, not per client); the
      // server then encodes each distinct instance once.
      std::vector<Model*> ptrs;
      ptrs.reserve(tasks.size());
      std::unordered_map<int, Model*> by_key;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const int key = strategy_->payload_key(tasks[i]);
        Model* m = nullptr;
        if (key >= 0) {
          auto it = by_key.find(key);
          if (it != by_key.end()) m = it->second;
        }
        if (m == nullptr) {
          payloads[i].emplace(strategy_->client_payload(tasks[i]));
          m = &*payloads[i];
          if (cfg_.local.precision.enabled())
            for (auto& pr : m->params())
              pr.value->quantize_storage(cfg_.local.precision.dtype);
          if (key >= 0) by_key.emplace(key, m);
        }
        task_models[i] = m;
        ptrs.push_back(m);
      }
      ex = fabric_->run_round(static_cast<std::uint32_t>(round_), ptrs,
                              clients, client_rngs, reduce_keys);
    }
    // Retry-policy resends and leaf-failover redirects are real network
    // traffic the strategies never see (they bill one down + one up per
    // update); the engine bills them directly. Zero without faults, so
    // parity with in-process runs holds.
    if (ex.retry_down_bytes > 0.0 || ex.retry_up_bytes > 0.0 ||
        ex.failover_down_bytes > 0.0)
      costs_.add_transfer(ex.retry_down_bytes + ex.failover_down_bytes,
                          ex.retry_up_bytes);
    // Delta downlinks shipped fewer bytes than the full ModelDown the
    // strategies billed — credit the difference back so the meter matches
    // what actually crossed the wire.
    if (ex.delta_saved_bytes > 0.0)
      costs_.add_transfer(-ex.delta_saved_bytes, 0.0);
    return ex;
  }

  // In-process path. Tasks are embarrassingly parallel: the Rngs were
  // pre-forked in task order, each worker trains a private payload model,
  // and the reduction afterwards runs in fixed task order — so every
  // metric is bitwise-independent of the thread count. Shared-model
  // strategies train on transient copies (absorb hooks never read them);
  // heterogeneous strategies keep each payload alive for absorb's
  // structural walks.
  Model* shared = strategy_->shared_model();
  ex.results.resize(tasks.size());
  ex.outcomes.assign(tasks.size(), ClientOutcome::Trained);
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(tasks.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          // Byzantine behavior is a *client* property (drawn per (seed,
          // round, client)), so it applies on this path exactly as it does
          // on the fabric — keeping adversarial runs path-independent.
          if (shared != nullptr) {
            Model local = *shared;
            ex.results[idx] = byzantine_local_train(
                local, data_.client(tasks[idx].client), data_.num_classes(),
                cfg_.local, client_rngs[idx], cfg_.fabric_faults,
                static_cast<std::uint32_t>(round_), tasks[idx].client);
          } else {
            payloads[idx].emplace(strategy_->client_payload(tasks[idx]));
            ex.results[idx] = byzantine_local_train(
                *payloads[idx], data_.client(tasks[idx].client),
                data_.num_classes(), cfg_.local, client_rngs[idx],
                cfg_.fabric_faults, static_cast<std::uint32_t>(round_),
                tasks[idx].client);
          }
        }
      });
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (payloads[i].has_value()) task_models[i] = &*payloads[i];
  return ex;
}

double FederationEngine::run_round() {
  FT_CHECK_MSG(cfg_.mode == SessionMode::Sync,
               "run_round requires a synchronous session");
  FT_SPAN_ARG("engine", "round", "round", round_);
  for (RoundObserver* obs : observers_) obs->on_round_start(round_);
  RoundContext ctx = make_context();

  std::vector<ClientTask> tasks;
  std::vector<Rng> client_rngs;
  {
    FT_SPAN("engine", "select");
    tasks = strategy_->plan_round(ctx, rng_);
    client_rngs.reserve(tasks.size());
    for (ClientTask& t : tasks) {
      strategy_->prepare_task(t, rng_, ctx);
      client_rngs.push_back(rng_.fork());
    }
  }

  std::vector<std::optional<Model>> payloads(tasks.size());
  std::vector<Model*> task_models(tasks.size(), nullptr);
  ExchangeResult ex;
  {
    FT_SPAN_ARG("engine", "exchange", "tasks", tasks.size());
    ex = exchange(tasks, client_rngs, payloads, task_models);
  }

  // Byzantine accounting before aggregation (strategies may consume the
  // deltas): re-derive the pure (seed, round, client) attack draw per
  // trained task — no wire metadata needed — and record attacker identity
  // plus an L2 damage proxy on the round. In numeric tree rounds the
  // per-update deltas were pre-summed in-tree, so the proxy stays 0.
  int byz_updates = 0;
  double byz_l2 = 0.0;
  std::vector<std::int32_t> byz_clients;
  if (cfg_.fabric_faults.byzantine_prob > 0.0) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (ex.outcomes[i] != ClientOutcome::Trained) continue;
      if (!byzantine_client(cfg_.fabric_faults,
                            static_cast<std::uint32_t>(round_),
                            tasks[i].client))
        continue;
      ++byz_updates;
      byz_clients.push_back(tasks[i].client);
      byz_l2 += ws_l2_norm(ex.results[i].delta);
    }
  }

  FT_SPAN("engine", "aggregate");
  if (ex.reduced) {
    // Numeric tree round: per-task metrics arrived verbatim (billing,
    // selector feedback, loss bookkeeping stay per-client, in task order);
    // the deltas arrive pre-summed per reduce group, folded in ascending
    // min-slot order — the same canonical order the tree reduced them in.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (ex.outcomes[i] != ClientOutcome::Trained) {
        strategy_->lost_update(tasks[i], ex.outcomes[i], ctx);
        ++ctx.lost;
        continue;
      }
      strategy_->absorb_metrics(tasks[i], ex.results[i], ctx);
      ++ctx.trained;
    }
    for (ReducedGroup& g : ex.groups) {
      const auto slot = static_cast<std::size_t>(g.min_slot);
      FT_CHECK_MSG(slot < tasks.size(), "reduce group references slot "
                                            << g.min_slot << " of "
                                            << tasks.size());
      strategy_->absorb_reduced(tasks[slot], task_models[slot], g.sum,
                                g.weight, g.count, ctx);
    }
  } else {
    // Fixed task-order reduction: absorb arrived updates, bill casualties.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (ex.outcomes[i] != ClientOutcome::Trained) {
        strategy_->lost_update(tasks[i], ex.outcomes[i], ctx);
        ++ctx.lost;
        continue;
      }
      strategy_->absorb_update(tasks[i], task_models[i], ex.results[i], ctx);
      ++ctx.trained;
    }
  }

  RoundRecord rec;
  strategy_->finish_round(ctx, rec);
  rec.round = round_;
  rec.cum_macs = costs_.total_macs();
  rec.participants = ctx.trained;
  rec.lost_updates += ctx.lost;  // strategies may pre-add deadline drops
  rec.leaf_failovers = ex.leaf_failovers;
  rec.byzantine_updates = byz_updates;
  rec.byzantine_l2 = byz_l2;
  rec.byzantine_clients = std::move(byz_clients);
  if (byz_updates > 0) {
    static Counter byz_total("fedtrans_byzantine_updates_total");
    byz_total.add(byz_updates);
    static Counter byz_rounds("fedtrans_byzantine_rounds_total");
    byz_rounds.inc();
    static Histogram byz_damage("fedtrans_byzantine_round_l2");
    byz_damage.observe(byz_l2);
  }

  maybe_probe(round_, ctx, rec);
  static Counter rounds_total("fedtrans_engine_rounds_total");
  rounds_total.inc();
  if (trace_virtual_on()) {
    // Round envelope on the simulated timeline: rounds run back to back,
    // each lasting its slowest participant.
    double start_s = 0.0;
    for (const RoundRecord& h : history_) start_s += h.round_time_s;
    FT_VSPAN_ARG("engine", "round", start_s, rec.round_time_s, kTrackEngine,
                 "participants", rec.participants);
  }
  history_.push_back(rec);
  for (RoundObserver* obs : observers_) obs->on_round_end(rec);
  ++round_;
  return rec.avg_loss;
}

void FederationEngine::maybe_probe(int tick, RoundContext& ctx,
                                   RoundRecord& rec) {
  if (cfg_.eval_every <= 0 || tick % cfg_.eval_every != 0) return;
  FT_SPAN_ARG("engine", "eval", "tick", tick);
  // Subsampled accuracy probe for learning curves; the probe Rng and id
  // draw are engine-owned so every strategy probes the same cohort.
  Rng erng(cfg_.seed + 977 + static_cast<std::uint64_t>(tick));
  const int k = cfg_.eval_clients > 0
                    ? std::min(cfg_.eval_clients, data_.num_clients())
                    : data_.num_clients();
  auto eval_ids = uniform_select(data_.num_clients(), k, erng);
  rec.accuracy = strategy_->probe_accuracy(eval_ids, ctx);
}

void FederationEngine::run() {
  {
    FT_SPAN("engine", "run");
    if (cfg_.mode == SessionMode::Async) {
      run_async();
    } else {
      for (int r = 0; r < cfg_.rounds; ++r) run_round();
    }
  }
  maybe_write_run_report_env(*this);
}

void FederationEngine::dispatch_async() {
  const int c = rng_.uniform_int(0, data_.num_clients() - 1);
  const DeviceProfile& dev = fleet_[static_cast<std::size_t>(c)];
  Model* m = strategy_->shared_model();
  FT_CHECK_MSG(m != nullptr,
               "async scheduling requires a shared-model strategy");
  const double model_bytes = static_cast<double>(m->param_bytes()) *
                             wire_dtype_scale(cfg_);
  const double t =
      client_round_time_s(dev, static_cast<double>(m->macs()),
                          cfg_.local.steps, cfg_.local.batch, model_bytes);
  in_flight_.push(InFlight{now_s_ + t, c, version_, next_async_job_++});
  costs_.add_client_round_time(t);
}

void FederationEngine::run_async() {
  FT_CHECK(cfg_.async.concurrency > 0 && cfg_.async.buffer_size > 0 &&
           cfg_.async.aggregations > 0 &&
           cfg_.async.staleness_exponent >= 0.0);
  if (cfg_.use_fabric) {
    run_async_fabric();
    return;
  }
  RoundContext ctx = make_context();
  for (int i = 0; i < cfg_.async.concurrency; ++i) dispatch_async();
  while (version_ < cfg_.async.aggregations) {
    FT_CHECK_MSG(!in_flight_.empty(), "async scheduler starved");
    const InFlight job = in_flight_.top();
    in_flight_.pop();
    now_s_ = job.finish_s;

    // The client trains from the weights it downloaded at dispatch time.
    // The simulation trains lazily at completion instead of keeping
    // per-client snapshots; staleness enters through the FedBuff discount.
    Model local = strategy_->client_payload(ClientTask{job.client, 0});
    Rng crng = rng_.fork();
    LocalTrainResult res = byzantine_local_train(
        local, data_.client(job.client), data_.num_classes(), cfg_.local,
        crng, cfg_.fabric_faults, job.job, job.client);

    const int staleness = version_ - job.version;
    staleness_sum_ += staleness;
    ++async_updates_;
    const double discount =
        std::pow(1.0 + staleness, -cfg_.async.staleness_exponent);

    ctx.round = version_;
    const auto shipped =
        strategy_->absorb_async(job.client, res, discount, ctx);
    if (shipped.has_value()) {
      ++version_;
      RoundRecord rec;
      rec.round = version_;
      rec.avg_loss = *shipped;
      rec.cum_macs = costs_.total_macs();
      rec.round_time_s = now_s_;  // wall-clock at which this version shipped
      FT_VSPAN_ARG("engine", "version_shipped", now_s_, 0.0, kTrackEngine,
                   "version", version_);
      maybe_probe(version_, ctx, rec);
      history_.push_back(rec);
      for (RoundObserver* obs : observers_) obs->on_round_end(rec);
    }
    dispatch_async();
  }
}

void FederationEngine::run_async_fabric() {
  // FedBuff over real messages: every dispatch is a wire-level ModelDown /
  // UpdateUp round trip through the FederationServer, and the event loop
  // orders completions by the *server-side delivery instant* of each
  // UpdateUp — uplink latency, retries and reordering all shift when an
  // update is folded in, unlike the in-process approximation (which orders
  // by client finish time and forks Rngs at completion; the two modes are
  // deliberately distinct simulations, not bitwise twins). The staleness
  // here is also more faithful: weights ride the ModelDown frame, so a
  // client trains on the snapshot it downloaded at dispatch time.
  Model* shared = strategy_->shared_model();
  FT_CHECK_MSG(shared != nullptr,
               "async scheduling requires a shared-model strategy");
  if (!fabric_)
    fabric_ = std::make_unique<FederationServer>(
        strategy_->reference_model(), data_, fleet_, cfg_.local,
        cfg_.fabric_faults, cfg_.topology, cfg_.transport, cfg_.socket);
  RoundContext ctx = make_context();
  const double model_bytes = static_cast<double>(shared->param_bytes()) *
                             wire_dtype_scale(cfg_);
  // The server waits one ack-timeout per allowed uplink attempt: resend k
  // leaves the device ~k·ack_timeout_s after training ends, so a deadline
  // of a single timeout could never admit a retried update — the budget
  // would be billed traffic with zero recovery.
  const double deadline_s =
      static_cast<double>(cfg_.topology.max_retries + 1) *
      cfg_.topology.ack_timeout_s;

  // One pending server-side event per in-flight client: either the arrival
  // of its UpdateUp, or the ack-timeout at which the server gives up on it
  // (the update was lost despite retries, or lands too late to count).
  struct Pending {
    double t = 0.0;
    std::uint32_t job = 0;
    int client = 0;
    int version = 0;
    bool arrival = false;
    double macs_wasted = 0.0;
    LocalTrainResult res;  // valid iff arrival
  };
  auto later = [](const Pending& a, const Pending& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.job > b.job;  // deterministic tie-break: dispatch order
  };
  std::priority_queue<Pending, std::vector<Pending>, decltype(later)>
      pending(later);
  std::uint32_t next_job = 0;
  int lost_since_ship = 0;
  int failovers_since_ship = 0;

  auto dispatch = [&] {
    const int c = rng_.uniform_int(0, data_.num_clients() - 1);
    Rng crng = rng_.fork();
    AsyncTurnaround turn = fabric_->async_exchange(
        next_job, c, quantized_for_wire(shared->weights(), cfg_.local.precision),
        crng, now_s_);
    if (turn.retry_up_bytes > 0.0)
      costs_.add_transfer(0.0, turn.retry_up_bytes);
    costs_.add_client_round_time(turn.busy_s);
    // A dead leaf re-routed this job through a sibling; surface it on the
    // next shipped version's record, mirroring the sync path's accounting.
    if (turn.failed_over) ++failovers_since_ship;
    Pending p;
    p.job = next_job++;
    p.client = c;
    p.version = version_;
    if (turn.outcome == ClientOutcome::Trained &&
        turn.update_at_s <= now_s_ + deadline_s) {
      p.arrival = true;
      p.t = turn.update_at_s;
      p.res = std::move(turn.res);
    } else {
      p.arrival = false;
      p.t = now_s_ + deadline_s;
      p.macs_wasted = turn.outcome == ClientOutcome::LostDown
                          ? 0.0
                          : turn.res.macs_used;
    }
    pending.push(std::move(p));
  };

  // Zero-progress guard: if the deadline is shorter than every client's
  // round trip (slow fleet, huge model, tiny ack_timeout_s), every event
  // is a timeout and version_ never advances — fail loudly instead of
  // looping forever. Legitimate faulty runs fold arrivals in long before
  // this bound.
  const int max_consecutive_timeouts =
      std::max(1000, 64 * cfg_.async.concurrency);
  int consecutive_timeouts = 0;

  for (int i = 0; i < cfg_.async.concurrency; ++i) dispatch();
  while (version_ < cfg_.async.aggregations) {
    FT_CHECK_MSG(!pending.empty(), "async scheduler starved");
    // Move the event out (top() is const only to protect heap order, which
    // pop() discards anyway) — the delta is model-sized, a copy per
    // absorbed update would be pure memcpy waste.
    Pending ev = std::move(const_cast<Pending&>(pending.top()));
    pending.pop();
    now_s_ = ev.t;

    if (ev.arrival) {
      consecutive_timeouts = 0;
      const int staleness = version_ - ev.version;
      staleness_sum_ += staleness;
      ++async_updates_;
      const double discount =
          std::pow(1.0 + staleness, -cfg_.async.staleness_exponent);
      ctx.round = version_;
      const auto shipped =
          strategy_->absorb_async(ev.client, ev.res, discount, ctx);
      if (shipped.has_value()) {
        ++version_;
        RoundRecord rec;
        rec.round = version_;
        rec.avg_loss = *shipped;
        rec.cum_macs = costs_.total_macs();
        rec.round_time_s = now_s_;
        rec.lost_updates = lost_since_ship;
        rec.leaf_failovers = failovers_since_ship;
        lost_since_ship = 0;
        failovers_since_ship = 0;
        FT_VSPAN_ARG("engine", "version_shipped", now_s_, 0.0, kTrackEngine,
                     "version", version_);
        maybe_probe(version_, ctx, rec);
        history_.push_back(rec);
        for (RoundObserver* obs : observers_) obs->on_round_end(rec);
      }
    } else {
      // Ack-timeout: bill the spent downlink and any wasted device compute
      // (the strategies only bill updates they absorb), count the loss
      // against the next shipped version, and replace the client.
      ++lost_since_ship;
      costs_.add_transfer(model_bytes, 0.0);
      if (ev.macs_wasted > 0.0) costs_.add_training_macs(ev.macs_wasted);
      FT_CHECK_MSG(++consecutive_timeouts < max_consecutive_timeouts,
                   "fabric-backed async session makes no progress: no "
                   "update arrived within (max_retries + 1) * ack_timeout_s"
                   " — raise topology.ack_timeout_s above the fleet's round"
                   "-trip time");
    }
    dispatch();
  }
}

double FederationEngine::mean_staleness() const {
  return async_updates_ > 0
             ? staleness_sum_ / static_cast<double>(async_updates_)
             : 0.0;
}

}  // namespace fedtrans
