#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/serial.hpp"
#include "obs/metrics.hpp"

namespace fedtrans {

/// Cost accounting matching the paper's Table 2 columns: training MACs,
/// network transfer volume, and peak server-side model storage.
class CostMeter {
 public:
  /// Raw per-client round-time samples kept verbatim for percentile /
  /// distribution views; past the cap a long async run would otherwise
  /// grow this vector one entry per dispatch forever, so the tail is
  /// folded into the running stats and the registry's
  /// `fedtrans_client_train_time_seconds` histogram instead.
  static constexpr std::size_t kMaxClientTimeSamples = 4096;

  void add_training_macs(double macs) { total_macs_ += macs; }
  void add_transfer(double down_bytes, double up_bytes) {
    bytes_down_ += down_bytes;
    bytes_up_ += up_bytes;
  }
  /// Record the current server-resident model footprint; the peak is kept.
  void note_storage(double bytes) {
    if (bytes > storage_peak_) storage_peak_ = bytes;
  }
  void add_client_round_time(double seconds) {
    ++time_count_;
    time_sum_ += seconds;
    // Round the product before adding it: left to the compiler, whether it
    // is contracted into a fused multiply-add depends on the build's flags
    // and inlining (the sanitizer build fuses it, Release does not), and
    // the checkpointed sum would differ by an ulp between builds.
    const volatile double square = seconds * seconds;
    time_sumsq_ += square;
    if (client_times_s_.size() < kMaxClientTimeSamples)
      client_times_s_.push_back(seconds);
    client_time_histogram().observe(seconds);
  }

  double total_macs() const { return total_macs_; }
  double bytes_down() const { return bytes_down_; }
  double bytes_up() const { return bytes_up_; }
  double network_bytes() const { return bytes_down_ + bytes_up_; }
  double network_mb() const { return network_bytes() / (1024.0 * 1024.0); }
  double storage_bytes() const { return storage_peak_; }
  double storage_mb() const { return storage_peak_ / (1024.0 * 1024.0); }
  /// Retained raw samples (the first kMaxClientTimeSamples of the run);
  /// use the exact accessors below for whole-run statistics.
  const std::vector<double>& client_times_s() const { return client_times_s_; }
  /// Exact whole-run per-client round-time statistics (running count /
  /// sum / sum-of-squares — unaffected by the raw-sample cap).
  std::uint64_t client_time_count() const { return time_count_; }
  double client_time_mean() const {
    return time_count_ != 0 ? time_sum_ / static_cast<double>(time_count_)
                            : 0.0;
  }
  double client_time_std() const {  // population std, matching stddev()
    if (time_count_ < 2) return 0.0;
    const double m = client_time_mean();
    const double var = time_sumsq_ / static_cast<double>(time_count_) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  /// Checkpointing: persist/restore all accumulated counters.
  void save(std::ostream& os) const {
    write_pod(os, total_macs_);
    write_pod(os, bytes_down_);
    write_pod(os, bytes_up_);
    write_pod(os, storage_peak_);
    write_pod(os, time_count_);
    write_pod(os, time_sum_);
    write_pod(os, time_sumsq_);
    write_vec(os, client_times_s_);
  }
  void load(std::istream& is) {
    total_macs_ = read_pod<double>(is);
    bytes_down_ = read_pod<double>(is);
    bytes_up_ = read_pod<double>(is);
    storage_peak_ = read_pod<double>(is);
    time_count_ = read_pod<std::uint64_t>(is);
    time_sum_ = read_pod<double>(is);
    time_sumsq_ = read_pod<double>(is);
    client_times_s_ = read_vec<double>(is);
  }

 private:
  static Histogram& client_time_histogram() {
    static Histogram h("fedtrans_client_train_time_seconds");
    return h;
  }

  double total_macs_ = 0.0;
  double bytes_down_ = 0.0;
  double bytes_up_ = 0.0;
  double storage_peak_ = 0.0;
  std::uint64_t time_count_ = 0;
  double time_sum_ = 0.0;
  double time_sumsq_ = 0.0;
  std::vector<double> client_times_s_;
};

/// Per-round log entry for cost-to-accuracy curves (Fig. 7).
struct RoundRecord {
  int round = 0;
  double avg_loss = 0.0;
  double cum_macs = 0.0;
  /// Mean client accuracy at this round; -1 when not evaluated.
  double accuracy = -1.0;
  /// Simulated wall-clock of the synchronous round (slowest participant).
  double round_time_s = 0.0;
  /// Clients whose updates were aggregated this round.
  int participants = 0;
  /// Updates selected but never aggregated: deadline-dropped stragglers
  /// plus (on the federation fabric) message loss and client dropouts.
  int lost_updates = 0;
  /// Leaf-aggregator fault domains that failed over this round: dead
  /// leaves whose client partition was redirected to an alive sibling
  /// (tree fabrics only; see FabricTopology).
  int leaf_failovers = 0;
  /// Byzantine participants whose (corrupted) updates reached aggregation
  /// this round (FaultConfig::byzantine_prob; docs/robustness.md). The
  /// engine re-derives the pure (seed, round, client) attack draw, so this
  /// is exact, not inferred from the updates.
  int byzantine_updates = 0;
  /// Damage proxy: summed L2 norm of the absorbed Byzantine deltas (0 in
  /// numeric partial-aggregation rounds, where deltas are pre-summed
  /// in-tree and per-update norms no longer exist at the root).
  double byzantine_l2 = 0.0;
  /// Attacker identity: the client ids behind byzantine_updates.
  std::vector<std::int32_t> byzantine_clients;
};

}  // namespace fedtrans
