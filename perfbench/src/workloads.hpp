#pragma once

// The benchmark's workloads: each builds one complete federated session
// (inputs, fleet, strategy, engine) from a seed, through public seams only.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "decorators.hpp"
#include "fl/engine.hpp"
#include "pop/population.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Accuracy the mean of the last three probes must reach.
  double target = 0.0;
  /// Length of a measured session: sync rounds, or async server versions.
  int rounds = 0;
  /// Length of the short sessions the self-checks compare.
  int check_rounds = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// Null when no workload has this name.
const WorkloadSpec* find_workload(const std::string& name);

/// Meters shared by the decorators of one session.
struct SessionMeters {
  StrategyMeters strategy;
  HookMeter select;
  HookMeter data;

  void reset();
};

/// One built session. Members are declared so that the engine is destroyed
/// first, before the data and population it borrows.
struct Session {
  std::unique_ptr<fedtrans::FederatedDataset> dataset;
  std::unique_ptr<fedtrans::Population> pop;
  std::unique_ptr<fedtrans::PopulationDataView> view;
  std::unique_ptr<TimedDataProvider> timed_data;
  std::unique_ptr<fedtrans::FederationEngine> engine;
  /// The undecorated strategy (owned by the engine, possibly through a
  /// TimedStrategy).
  fedtrans::Strategy* algo = nullptr;
  /// Same object as `algo` when the workload runs FedTrans, else null.
  fedtrans::FedTransStrategy* fedtrans = nullptr;
  int num_classes = 0;
  bool async = false;
  int buffer_size = 0;

  fedtrans::CohortPool* pool() { return view ? &view->pool() : nullptr; }
};

/// Build workload `w` from `seed` with a session of `rounds` rounds (or
/// server versions). With `meters` the strategy, selector and data seats
/// are wrapped in the timing decorators; without, the session is exactly
/// what a user of the library would build.
std::unique_ptr<Session> build_session(const WorkloadSpec& w,
                                       std::uint64_t seed, int rounds,
                                       SessionMeters* meters);

}  // namespace perfbench
