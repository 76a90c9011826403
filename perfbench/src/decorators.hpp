#pragma once

// Timing decorators for the engine's pluggable seats. Each forwards every
// virtual of the seat it wraps to the wrapped object unchanged and adds only
// a steady_clock reading around the call, so a decorated session computes
// exactly what an undecorated one does (the benchmark checks this bitwise
// before every measured run).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fl/engine.hpp"
#include "fl/selection.hpp"

namespace perfbench {

/// Busy time and call count of one hook. Atomic because some hooks
/// (client_payload, ClientDataProvider::client) run on pool workers.
struct HookMeter {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::int64_t> calls{0};

  double ms() const { return static_cast<double>(ns.load()) * 1e-6; }
  void reset() {
    ns.store(0);
    calls.store(0);
  }
};

/// Adds the wall time of its own lifetime to a HookMeter.
class HookTimer {
 public:
  explicit HookTimer(HookMeter& m)
      : m_(m), t0_(std::chrono::steady_clock::now()) {}
  ~HookTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    m_.ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count(),
        std::memory_order_relaxed);
    m_.calls.fetch_add(1, std::memory_order_relaxed);
  }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  HookMeter& m_;
  std::chrono::steady_clock::time_point t0_;
};

/// Per-hook meters of one decorated session.
struct StrategyMeters {
  HookMeter plan, prepare, payload, absorb, finish, probe, absorb_async;
  /// Tasks planned by the most recent plan_round (the round's task count).
  std::atomic<int> last_tasks{0};
  /// absorb_async calls since the last shipped server version.
  std::atomic<int> async_since_ship{0};
};

class TimedStrategy : public fedtrans::Strategy {
 public:
  TimedStrategy(std::unique_ptr<fedtrans::Strategy> inner, StrategyMeters& m)
      : inner_(std::move(inner)), m_(m) {}

  std::string name() const override { return inner_->name(); }
  void attach(fedtrans::RoundContext& ctx, fedtrans::Rng& rng) override {
    inner_->attach(ctx, rng);
  }
  std::vector<fedtrans::ClientTask> plan_round(fedtrans::RoundContext& ctx,
                                               fedtrans::Rng& rng) override {
    HookTimer t(m_.plan);
    auto tasks = inner_->plan_round(ctx, rng);
    m_.last_tasks.store(static_cast<int>(tasks.size()));
    return tasks;
  }
  void prepare_task(fedtrans::ClientTask& task, fedtrans::Rng& rng,
                    fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.prepare);
    inner_->prepare_task(task, rng, ctx);
  }
  fedtrans::Model client_payload(const fedtrans::ClientTask& task) override {
    HookTimer t(m_.payload);
    return inner_->client_payload(task);
  }
  fedtrans::Model* shared_model() override { return inner_->shared_model(); }
  int payload_key(const fedtrans::ClientTask& task) const override {
    return inner_->payload_key(task);
  }
  const fedtrans::Model& reference_model() const override {
    return inner_->reference_model();
  }
  double initial_storage_bytes() const override {
    return inner_->initial_storage_bytes();
  }
  void absorb_update(const fedtrans::ClientTask& task, fedtrans::Model* trained,
                     fedtrans::LocalTrainResult& res,
                     fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.absorb);
    inner_->absorb_update(task, trained, res, ctx);
  }
  void lost_update(const fedtrans::ClientTask& task,
                   fedtrans::ClientOutcome outcome,
                   fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.absorb);
    inner_->lost_update(task, outcome, ctx);
  }
  bool supports_partial_aggregation() const override {
    return inner_->supports_partial_aggregation();
  }
  int reduce_key(const fedtrans::ClientTask& task) const override {
    return inner_->reduce_key(task);
  }
  void absorb_metrics(const fedtrans::ClientTask& task,
                      const fedtrans::LocalTrainResult& res,
                      fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.absorb);
    inner_->absorb_metrics(task, res, ctx);
  }
  void absorb_reduced(const fedtrans::ClientTask& task,
                      fedtrans::Model* payload, fedtrans::WeightSet& sum,
                      double weight, int count,
                      fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.absorb);
    inner_->absorb_reduced(task, payload, sum, weight, count, ctx);
  }
  void finish_round(fedtrans::RoundContext& ctx,
                    fedtrans::RoundRecord& rec) override {
    HookTimer t(m_.finish);
    inner_->finish_round(ctx, rec);
  }
  double probe_accuracy(const std::vector<int>& ids,
                        fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.probe);
    return inner_->probe_accuracy(ids, ctx);
  }
  std::optional<double> absorb_async(int client,
                                     fedtrans::LocalTrainResult& res,
                                     double discount,
                                     fedtrans::RoundContext& ctx) override {
    HookTimer t(m_.absorb_async);
    m_.async_since_ship.fetch_add(1);
    return inner_->absorb_async(client, res, discount, ctx);
  }

 private:
  std::unique_ptr<fedtrans::Strategy> inner_;
  StrategyMeters& m_;
};

class TimedSelector : public fedtrans::ClientSelector {
 public:
  TimedSelector(std::unique_ptr<fedtrans::ClientSelector> inner, HookMeter& m)
      : inner_(std::move(inner)), m_(m) {}

  std::vector<int> select(int population, int k, fedtrans::Rng& rng) override {
    HookTimer t(m_);
    return inner_->select(population, k, rng);
  }
  void report(int client, double loss, int samples) override {
    inner_->report(client, loss, samples);
  }
  std::string name() const override { return inner_->name(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<fedtrans::ClientSelector> inner_;
  HookMeter& m_;
};

class TimedDataProvider : public fedtrans::ClientDataProvider {
 public:
  TimedDataProvider(const fedtrans::ClientDataProvider& inner, HookMeter& m)
      : inner_(inner), m_(m) {}

  int num_clients() const override { return inner_.num_clients(); }
  int num_classes() const override { return inner_.num_classes(); }
  const fedtrans::ClientData& client(int c) const override {
    HookTimer t(m_);
    return inner_.client(c);
  }

 private:
  const fedtrans::ClientDataProvider& inner_;
  HookMeter& m_;
};

}  // namespace perfbench
