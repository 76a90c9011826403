#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "fl/local_train.hpp"
#include "fl/session.hpp"
#include "model/model.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace fedtrans {

/// Ground-truth outcome of one task of a fabric round (indexed like the
/// coordinator's task list). Billing needs the truth even when the
/// corresponding message never reached the server.
enum class ClientOutcome : std::uint8_t {
  Trained,   ///< update arrived; eligible for aggregation
  LostDown,  ///< invitation/model lost on the downlink — no compute burned
  LostUp,    ///< trained, but the update was lost on the uplink
  Dropout,   ///< trained, then the device went offline before uploading
};

/// What one fabric exchange produced, per task slot — plus the round's
/// retry-policy resend traffic (FabricTopology::max_retries) and leaf
/// failover traffic, split by direction so the engine can bill them
/// through CostMeter.
///
/// In numeric partial-aggregation rounds (`reduced == true`) the per-slot
/// results carry metrics only (empty delta): the deltas were pre-summed in
/// the tree and arrive as `groups`, one per reduce key, for the strategy's
/// `absorb_reduced` hook.
struct ExchangeResult {
  std::vector<LocalTrainResult> results;  ///< valid iff outcome == Trained
  std::vector<ClientOutcome> outcomes;
  bool reduced = false;
  std::vector<ReducedGroup> groups;  ///< reduced mode only, merged at root
  double retry_down_bytes = 0.0;
  double retry_up_bytes = 0.0;
  double failover_down_bytes = 0.0;
  int leaf_failovers = 0;
  /// Downlink bytes the round's delta ModelDowns saved vs full payloads
  /// (FabricTopology::delta_downlink); credited back through CostMeter.
  double delta_saved_bytes = 0.0;
};

/// Checks a FabricTopology once, where a session is built: levels in
/// [1, 6], shards >= 1, branching >= 0, partial aggregation only on a tree
/// (levels >= 2), quantized partials only with partial aggregation, and a
/// retry policy with max_retries >= 0 and a positive ack timeout. Throws
/// `Error` naming the offending field.
void validate_topology(const FabricTopology& topo);

/// Deterministic shape of the aggregation tree implied by a FabricTopology:
/// tier 0 is the root (`kServerId`), tiers 1..levels-1 are aggregator
/// tiers, and the bottom tier holds the leaves. Interior tiers shrink by
/// the branching factor going up (node (t, j)'s children are tier-(t+1)
/// nodes [j·b, (j+1)·b) clamped). A flat topology (levels = 1) is the root
/// alone: no aggregators, and the root is its own single leaf. Every
/// participant of the simulated fabric derives the same tree from the same
/// topology, so routing needs no wire-level discovery — bundles only carry
/// the leaf range they cover.
class FabricTree {
 public:
  explicit FabricTree(const FabricTopology& topo);

  int levels() const { return levels_; }
  int leaves() const { return width_.back(); }
  int branching() const { return branching_; }
  int num_aggregators() const { return total_; }
  /// Nodes on tier `tier` (tier 0, the root, has one).
  int tier_width(int tier) const {
    return width_[static_cast<std::size_t>(tier)];
  }
  /// Endpoint id of node j of tier t: the root for t == 0, else an
  /// aggregator (leaves are the bottom tier and keep the historical ids
  /// aggregator_id(0..L-1)).
  std::int32_t node_id(int tier, int j) const;
  std::int32_t leaf_id(int leaf) const { return node_id(levels_ - 1, leaf); }
  /// Endpoint of node (t, j)'s parent — the root for t == 1.
  std::int32_t parent_id(int tier, int j) const;
  /// Children of node (t, j) as indices [lo, hi) into tier t + 1.
  std::pair<int, int> child_range(int tier, int j) const;
  /// Leaf partitions covered by the subtree under node (t, j) as [lo, hi).
  std::pair<int, int> leaf_range(int tier, int j) const;
  /// The tier-`tier` node whose subtree covers `leaf`.
  int node_covering(int tier, int leaf) const;
  /// Siblings of leaf `s` (its parent's child range, including itself).
  std::pair<int, int> sibling_range(int leaf) const;

 private:
  int levels_ = 1;
  int branching_ = 1;
  std::vector<int> width_;   ///< width_[t] = nodes on tier t (width_[0] = 1)
  std::vector<int> offset_;  ///< offset_[t] = first aggregator index of t
  int total_ = 0;
};

/// One asynchronous (FedBuff-mode) fabric round trip: ModelDown to one
/// client, local training on receipt, UpdateUp back — with the retry
/// policy applied to the uplink. `update_at_s` is the server-side delivery
/// instant of the UpdateUp, which is what orders completions in the
/// engine's fabric-backed async event loop.
struct AsyncTurnaround {
  ClientOutcome outcome = ClientOutcome::LostDown;
  double update_at_s = 0.0;  ///< UpdateUp delivery time; valid iff Trained
  double busy_s = 0.0;       ///< device time burned (downlink + train + up)
  double retry_up_bytes = 0.0;  ///< resend traffic of this turnaround
  /// This job's leaf was dead and the round trip was routed through a
  /// sibling (tree sessions only; counted into RoundRecord by the engine).
  bool failed_over = false;
  LocalTrainResult res;      ///< metrics always; delta valid iff Trained
};

/// Per-client memory of the last model each client decoded from a
/// ModelDown, shared between the downlink senders (who diff the next
/// round's payload against it, FabricTopology::delta_downlink) and the
/// ClientAgent pollers (who record what actually got decoded). The store
/// is only advanced after a client's poll completes — every delta sent
/// within a round is diffed against the same base — and only when the
/// client decoded exactly one ModelDown that round: a multi-slot client
/// decodes several models per round, so its slot is erased rather than
/// left ambiguous (it simply keeps receiving full payloads). Entries are
/// versioned; the version rides the wire and a mismatch rejects the frame,
/// so a desynchronized diff can never silently corrupt client weights.
class DeltaStore {
 public:
  struct Entry {
    std::uint64_t version = 0;
    std::uint64_t spec_digest = 0;  ///< fnv1a64 of the model's spec text
    WeightSet weights;
  };

  /// The client's current entry (shared snapshot; senders and the client's
  /// own poll may read concurrently), or nullptr when none is held.
  std::shared_ptr<const Entry> peek(int client) const;
  void update(int client, std::shared_ptr<const Entry> e);
  void erase(int client);

 private:
  mutable std::mutex m_;
  std::unordered_map<int, std::shared_ptr<const Entry>> map_;
};

/// Edge-device worker: owns one client's fabric endpoint. On receipt of a
/// (JoinRound, ModelDown) pair for a task slot it materializes the payload
/// model — the round prototype for shared-blob broadcasts, or the
/// architecture serialized into the frame for heterogeneous strategies —
/// replays the coordinator-forked Rng, runs local_train, and uploads
/// UpdateUp per task to the coordinator that sent the model (the root, or
/// a shard aggregator in hierarchical topologies) — or Abort, if the fault
/// injector says the device dropped out mid-round. A lost UpdateUp is
/// resent `ack_timeout_s` apart, up to `max_retries` times.
class ClientAgent {
 public:
  ClientAgent(int id, const ClientDataProvider& data, LocalTrainConfig local,
              FabricTopology policy);

  /// Drain this client's mailbox for `round`, train every task whose
  /// invitation and model both arrived, and record each task's outcome in
  /// its slot of `outcomes` (slots are disjoint across agents, so workers
  /// write concurrently without coordination). `store`, when given, is the
  /// fabric's DeltaStore: delta-flagged ModelDowns decode against the
  /// client's entry, and the entry advances to what this poll decoded.
  void poll(std::uint32_t round, const Model& prototype, Transport& net,
            std::vector<ClientOutcome>& outcomes, DeltaStore* store = nullptr);

 private:
  int id_;
  const ClientDataProvider* data_;
  LocalTrainConfig local_;
  FabricTopology policy_;
};

/// Multithreaded federation coordinator: executes the per-round protocol
/// over an aggregation tree of any depth (FabricTopology::levels 1–6)
///
///   Broadcast — the root packs the round's tasks into ShardDown bundles
///               (body table + task list), interior tiers split them among
///               their children, and each leaf fans its bundle out as one
///               JoinRound + ModelDown frame per task slot (slot i belongs
///               to leaf i % leaves)
///   Collect   — ClientAgent workers run concurrently on the shared
///               ThreadPool; each leaf drains its mailbox, deduplicates,
///               matches UpdateUp frames to the slots it served and
///               forwards one PartialUp bundle upstream, merged tier by tier
///               (node-parallel) back into the root's task list
///   (Aggregation stays with the caller — the FederationEngine folds the
///    collected deltas with exactly the same fixed-order reduction as its
///    in-process path, which is what makes fault-free fabric runs bitwise
///    identical.)
///
/// A flat topology (levels = 1) is the same round on a tree whose root is
/// its only leaf: the root builds that leaf's bundle in memory and fans it
/// out itself, and matches its own mailbox with the leaf code, feeding the
/// matched updates straight into the root merge — no ShardDown or PartialUp
/// frame exists on a flat fabric. By default bundles carry the per-task
/// updates verbatim, so fault-free rounds of every depth are bitwise
/// identical. With FabricTopology::partial_aggregation (trees only) the
/// aggregators instead reduce their updates numerically (per reduce group:
/// Σ num_samples·Δ + the weight total, folded in ascending min-slot order
/// at every merge point) and only per-task metrics ride verbatim.
///
/// Leaf aggregators are per-shard fault domains: a leaf dead for the round
/// (FaultConfig::leaf_death_prob) has its partition's bundle redirected to
/// an alive sibling one ack-timeout later — billed as failover traffic and
/// counted in FabricStats::leaf_failovers. With no alive sibling the
/// partition is lost for the round (LostDown). The root is never a fault
/// domain, so leaf deaths do not touch a flat fabric.
///
/// Straggler policy (overcommit/deadline) is applied by the strategy before
/// broadcast from predicted completion times, FedScale-style, so the task
/// list the fabric sees is already deadline-trimmed.
class FederationServer {
 public:
  enum class Phase : std::uint8_t { Idle, Broadcast, Collect, Aggregate };

  FederationServer(const Model& prototype, const ClientDataProvider& data,
                   std::vector<DeviceProfile> fleet, LocalTrainConfig local,
                   FaultConfig faults, FabricTopology topology = {},
                   TransportKind transport = TransportKind::Sim,
                   SocketOptions socket = {});

  /// Shared-model exchange: every task downloads the same `global` weight
  /// snapshot (encoded once) into the prototype architecture. `clients[i]`
  /// is task slot i's client; `client_rngs[i]` is the coordinator-forked
  /// generator it must train with. Slot order is preserved in the result.
  /// `reduce_keys` (one per slot) turns on the numeric reduction for this
  /// round when the topology opts in; empty = verbatim bundles.
  ExchangeResult run_round(std::uint32_t round, const WeightSet& global,
                           const std::vector<int>& clients,
                           const std::vector<Rng>& client_rngs,
                           const std::vector<std::int32_t>& reduce_keys = {});

  /// Heterogeneous exchange: task slot i downloads `payloads[i]` —
  /// architecture and weights ride the wire, so clients may train
  /// different submodels (and one client may appear in several slots).
  ExchangeResult run_round(std::uint32_t round,
                           const std::vector<Model*>& payloads,
                           const std::vector<int>& clients,
                           const std::vector<Rng>& client_rngs,
                           const std::vector<std::int32_t>& reduce_keys = {});

  /// One asynchronous round trip for the engine's fabric-backed FedBuff
  /// loop: send `global` to `client` as a ModelDown at simulated instant
  /// `now_s` (round field = `job`), let the agent train on receipt and
  /// upload UpdateUp under the retry policy, and collect it from the
  /// server mailbox. The frames hop through the tree's nodes above the
  /// client's leaf partition (leaf = client % leaves, failover applied) on
  /// the zero-latency backbone — none on a flat fabric — so the server-side
  /// delivery order the engine folds completions in does not depend on the
  /// tree's depth.
  /// Pure message passing — no aggregation state here.
  AsyncTurnaround async_exchange(std::uint32_t job, int client,
                                 const WeightSet& global, const Rng& rng,
                                 double now_s);

  Phase phase() const { return phase_; }
  const Transport& transport() const { return *net_; }
  const FabricStats& stats() const { return net_->stats(); }
  int num_clients() const { return net_->num_clients(); }
  const FabricTopology& topology() const { return topo_; }
  const FabricTree& tree() const { return tree_; }

 private:
  void send_join(std::uint32_t round, std::int32_t task, int client,
                 std::int32_t coordinator, double sent_at_s = 0.0);
  /// One exchange: task slot i downloads the [spec][weights] body
  /// `*slot_body[i]`; broadcast, collect, and the round's traffic deltas.
  ExchangeResult exchange(std::uint32_t round,
                          const std::vector<int>& clients,
                          const std::vector<Rng>& client_rngs,
                          const std::vector<std::int32_t>& reduce_keys,
                          const std::vector<const std::string*>& slot_body);
  /// Per root child, one ShardDown bundle referencing `slot_body[i]`;
  /// interior tiers split bundles downward; leaves fan out. On a flat
  /// fabric the root fans its own bundle out directly.
  void broadcast(std::uint32_t round, const std::vector<int>& clients,
                 const std::vector<Rng>& client_rngs,
                 const std::vector<const std::string*>& slot_body);
  /// Send one pre-filtered bundle down to node (tier, j): leaf bundles
  /// apply the failover policy, interior bundles go straight down with the
  /// retry policy.
  void send_bundle(std::uint32_t round, std::int32_t src, int tier, int j,
                   const ShardDownlink& d, double sent_at_s);
  /// Interior downlink pass for tiers 1..levels-2: split each received
  /// bundle among the node's children (node-parallel per tier).
  void route_tiers_down(std::uint32_t round);
  /// Aggregator leaves decode their ShardDown bundles and fan them out
  /// (node-parallel).
  void fan_out_shards(std::uint32_t round);
  /// Leaf `s` sends JoinRound + ModelDown per task of bundle `d` at
  /// `sent_at_s` and records the slots it served for its collect pass.
  void fan_out(std::uint32_t round, int s, const ShardDownlink& d,
               double sent_at_s);
  /// Concurrent ClientAgent polling (one worker per distinct client).
  void poll_agents(std::uint32_t round, const std::vector<int>& clients,
                   ExchangeResult& out);
  /// Leaves match their partition(s) and forward PartialUp bundles (the
  /// root, when it is its own leaf, keeps its match); interior tiers merge
  /// child bundles upward (node-parallel); the root merges into the task
  /// list (or, reduced, the group list).
  void collect(std::uint32_t round, const std::vector<int>& clients,
               ExchangeResult& out);
  /// Append `node`'s PartialUp bundles of `round` to `bundles` (first
  /// arrival per (sender, partition)); returns the last delivery time.
  double drain_bundles(std::uint32_t round, std::int32_t node,
                       std::vector<PartialUpdate>& bundles);
  /// Forward `p` from `node` to `parent` under the retry policy; a bundle
  /// lost despite retries flips its trained tasks to LostUp.
  void send_partial(std::uint32_t round, std::int32_t node,
                    std::int32_t parent, PartialUpdate& p, double sent_at_s,
                    ExchangeResult& out);
  /// The leaf serving partition `s` in `round` under the failover policy
  /// (itself when alive, else the next alive sibling, wrapping; -1 when
  /// the whole sibling group is dead).
  int owner_leaf(std::uint32_t round, int s) const;

  // Wire v6 broadcast-cache bookkeeping (topo_.broadcast_cache). Aggregator
  // state is indexed by aggregator index (aggregator_id(k) → k); each
  // node's cache and known-map are touched only by the single worker that
  // drains or feeds that node, so no locking is needed.
  /// Elision mask for sending bundle `d` to aggregator `dst`: marks every
  /// body the receiver's cache is known to hold, and bills the elided bytes
  /// into FabricStats. Empty when caching is off or nothing can be elided.
  std::vector<std::uint8_t> elide_mask_for(std::int32_t dst,
                                           const ShardDownlink& d);
  /// After a confirmed delivery of `d` to `dst`, replay the receiver's
  /// cache-eviction rule into its known-map (bodies in table order).
  void note_bundle_known(std::int32_t dst, const ShardDownlink& d);
  /// Drop tasks referencing bodies the decode left missing (elided bodies
  /// absent from this node's cache) — they surface as LostDown.
  static void drop_missing_bodies(ShardDownlink& d, std::int32_t node);

  /// Sender-side view of a broadcast body (what a client will decode) for
  /// delta-downlink diffing.
  struct ParsedBody {
    std::uint64_t spec_digest = 0;
    std::string spec;
    WeightSet weights;
  };
  static ParsedBody parse_body(const std::string& body);
  /// Encode task `slot`'s ModelDown payload for `client`: a delta against
  /// the client's DeltaStore entry when the topology opts in, the store
  /// matches and the diff is smaller — else the full `body`-backed payload.
  /// Savings are billed into FabricStats at the decision point.
  std::string model_down_for(std::int32_t slot, int client,
                             const std::string& body,
                             const ParsedBody* parsed,
                             const std::array<std::uint64_t, 4>& rng_state,
                             std::uint8_t& flags);

  Model prototype_;
  const ClientDataProvider* data_;
  LocalTrainConfig local_;
  FabricTopology topo_;  ///< validated before tree_ is built from it
  FabricTree tree_;
  std::unique_ptr<Transport> net_;
  /// Per-round, per-leaf fan-out memory: slot → reduce key of the tasks
  /// this leaf served (written only by the owning leaf's worker), plus the
  /// round's numeric-mode flag and per-slot reduce keys. Consumed by the
  /// leaf's collect pass.
  std::vector<std::map<std::int32_t, std::int32_t>> leaf_served_;
  std::vector<std::int32_t> round_reduce_;
  bool reduced_round_ = false;
  Phase phase_ = Phase::Idle;
  /// Receiver-side broadcast caches, one per aggregator (broadcast_cache).
  std::vector<BroadcastCache> bcast_cache_;
  /// Sender-side mirror of each aggregator's cache contents: spec digest →
  /// body hash, advanced only after a confirmed-delivered send, consulted
  /// by elide_mask_for.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> child_known_;
  /// Per-client last-decoded-model memory for delta downlinks.
  DeltaStore delta_store_;
};

}  // namespace fedtrans
