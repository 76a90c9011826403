#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "fl/byzantine.hpp"
#include "fl/weights.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

void validate_topology(const FabricTopology& topo) {
  FT_CHECK_MSG(topo.levels >= 1 && topo.levels <= 6,
               "fabric topology supports 1 (flat) up to 6 aggregation "
               "levels, got " << topo.levels);
  FT_CHECK_MSG(topo.shards >= 1, "fabric topology needs >= 1 shard");
  FT_CHECK_MSG(topo.branching >= 0, "negative fabric branching factor");
  FT_CHECK_MSG(!topo.partial_aggregation || topo.levels >= 2,
               "partial aggregation needs an aggregation tree (levels >= 2)");
  FT_CHECK_MSG(topo.quantize_partials == PartialQuant::None ||
                   topo.partial_aggregation,
               "quantized partials (with_quantized_partials) require the "
               "numeric reduction (with_partial_aggregation) — verbatim "
               "bundles must stay bit-exact");
  FT_CHECK_MSG(topo.max_retries >= 0 && topo.ack_timeout_s > 0.0,
               "fabric retry policy needs max_retries >= 0 and a positive "
               "ack timeout");
}

FabricTree::FabricTree(const FabricTopology& topo) : levels_(topo.levels) {
  FT_CHECK_MSG(levels_ >= 1, "a fabric tree needs at least its root");
  const int tiers = levels_ - 1;
  const int leaves = tiers == 0 ? 1 : topo.shards;
  branching_ = topo.branching;
  if (branching_ <= 0) {
    // Auto fan-out: the smallest branching whose (levels-1)-fold power
    // covers the leaves, so every tier (including the root's) shrinks
    // about evenly.
    branching_ =
        tiers >= 2 ? std::max(2, static_cast<int>(std::ceil(std::pow(
                                     static_cast<double>(leaves),
                                     1.0 / static_cast<double>(tiers)))))
                   : leaves;
  }
  width_.assign(static_cast<std::size_t>(levels_), 1);
  width_.back() = leaves;
  for (int t = tiers - 1; t >= 1; --t)
    width_[static_cast<std::size_t>(t)] =
        (width_[static_cast<std::size_t>(t + 1)] + branching_ - 1) /
        branching_;
  // Leaves keep the historical endpoint ids aggregator_id(0..shards-1);
  // interior tiers take the ids above them, bottom-up.
  offset_.assign(static_cast<std::size_t>(levels_), 0);
  for (int t = tiers - 1; t >= 1; --t)
    offset_[static_cast<std::size_t>(t)] =
        offset_[static_cast<std::size_t>(t + 1)] +
        width_[static_cast<std::size_t>(t + 1)];
  total_ = 0;
  for (int t = 1; t < levels_; ++t)
    total_ += width_[static_cast<std::size_t>(t)];
}

std::int32_t FabricTree::node_id(int tier, int j) const {
  if (tier == 0) return kServerId;
  return aggregator_id(offset_[static_cast<std::size_t>(tier)] + j);
}

std::int32_t FabricTree::parent_id(int tier, int j) const {
  if (tier == 1) return kServerId;
  return node_id(tier - 1, j / branching_);
}

std::pair<int, int> FabricTree::child_range(int tier, int j) const {
  const int below = tier_width(tier + 1);
  return {std::min(below, j * branching_),
          std::min(below, (j + 1) * branching_)};
}

std::pair<int, int> FabricTree::leaf_range(int tier, int j) const {
  // Tiers nest by powers of the branching factor: node (t, j) covers
  // leaves [j·b^(tiers-t), (j+1)·b^(tiers-t)) clamped to the leaf count.
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  const auto n = static_cast<std::int64_t>(leaves());
  return {static_cast<int>(std::min<std::int64_t>(n, j * span)),
          static_cast<int>(std::min<std::int64_t>(n, (j + 1) * span))};
}

std::pair<int, int> FabricTree::sibling_range(int leaf) const {
  if (levels_ <= 2) return {0, leaves()};  // all leaves share the root
  return child_range(levels_ - 2, leaf / branching_);
}

int FabricTree::node_covering(int tier, int leaf) const {
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  return static_cast<int>(leaf / span);
}

namespace {

/// Send `encode(0)`; on loss resend `encode(kFlagRetry)` every
/// `ack_timeout_s` simulated seconds, up to `max_retries` times. Returns
/// whether any attempt was delivered. Every resend is counted in
/// FabricStats (frames_retried + the directional retry-byte counter the
/// engine bills through CostMeter).
bool send_with_retry(Transport& net, std::int32_t src, std::int32_t dst,
                     double first_at_s, const FabricTopology& policy,
                     bool downlink,
                     const std::function<std::string(std::uint8_t)>& encode) {
  std::string frame = encode(0);
  const std::size_t bytes = frame.size();
  if (net.send(src, dst, std::move(frame), first_at_s)) return true;
  static Histogram retry_latency_h("fedtrans_retry_latency_seconds");
  for (int k = 1; k <= policy.max_retries; ++k) {
    net.stats_mutable().frames_retried.fetch_add(1,
                                                 std::memory_order_relaxed);
    auto& counter = downlink ? net.stats_mutable().retry_bytes_down
                             : net.stats_mutable().retry_bytes_up;
    counter.fetch_add(bytes, std::memory_order_relaxed);
    const double resend_s =
        first_at_s + static_cast<double>(k) * policy.ack_timeout_s;
    FT_VSPAN_ARG("server", "retry", resend_s, 0.0, track_of_endpoint(dst),
                 "attempt", k);
    if (net.send(src, dst, encode(kFlagRetry), resend_s)) {
      // Latency the retry policy added before this frame finally left:
      // k ack-timeouts from the first (lost) attempt.
      retry_latency_h.observe(resend_s - first_at_s);
      return true;
    }
  }
  return false;
}

/// The [slot][spec][weights] head shared by every ModelDown payload: the
/// `body` argument is the [spec string][weights] section (encoded once per
/// distinct payload), the Rng state is appended per task.
std::string model_down_payload(std::int32_t slot, const std::string& body,
                               const std::array<std::uint64_t, 4>& rng_state) {
  std::ostringstream head(std::ios::binary);
  write_pod<std::int32_t>(head, slot);
  std::string payload = head.str();
  payload.reserve(payload.size() + body.size() + sizeof(rng_state));
  payload.append(body);
  payload.append(reinterpret_cast<const char*>(rng_state.data()),
                 sizeof(rng_state));
  return payload;
}

/// Encode the [empty spec][weight blob] body of a shared-model broadcast.
std::string shared_body(const WeightSet& global) {
  std::ostringstream os(std::ios::binary);
  write_string(os, std::string{});  // empty spec: use the prototype
  write_weight_set(os, global);
  return os.str();
}

/// Slot/sender validation shared by every update consumer (leaf match,
/// root merge): a task id is admissible iff it indexes the
/// round's task list and was reported by the client owning that slot.
/// First-arrival dedup stays with the caller — the structures differ.
bool admissible_slot(std::int32_t task, std::int32_t sender,
                     const std::vector<int>& clients) {
  return task >= 0 && task < static_cast<std::int32_t>(clients.size()) &&
         clients[static_cast<std::size_t>(task)] == sender;
}

/// Encode the [spec][weights] body of a heterogeneous payload model
/// (params() walks mutably, hence the non-const ref).
std::string task_body(Model& payload) {
  std::ostringstream os(std::ios::binary);
  write_string(os, payload.spec().serialize());
  auto ps = payload.params();
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(ps.size()));
  for (auto& p : ps) p.value->save(os);
  return os.str();
}

/// Filter a downlink bundle to the tasks of leaf range [lo, hi),
/// rebuilding the body table with only the bodies that range references —
/// how interior nodes split a bundle among their children (and how the
/// root builds its per-child bundles from the full task list).
ShardDownlink subset_bundle(const ShardDownlink& d, int shards, int lo,
                            int hi) {
  ShardDownlink out;
  out.leaf_lo = lo;
  out.leaf_hi = hi;
  out.shard = hi - lo == 1 ? lo : -1;
  std::unordered_map<std::uint32_t, std::uint32_t> body_map;
  for (const DownlinkTask& t : d.tasks) {
    const int leaf = static_cast<int>(t.task) % shards;
    if (leaf < lo || leaf >= hi) continue;
    auto [it, fresh] = body_map.emplace(
        t.body, static_cast<std::uint32_t>(out.bodies.size()));
    if (fresh) out.bodies.push_back(d.bodies[t.body]);
    DownlinkTask nt = t;
    nt.body = it->second;
    out.tasks.push_back(nt);
  }
  return out;
}

/// Aggregator-state index of an aggregator endpoint (aggregator_id(k) → k).
std::size_t agg_index(std::int32_t endpoint) {
  return static_cast<std::size_t>(-2 - endpoint);
}

/// Per-tensor shape equality (delta downlinks may only diff a client's
/// stored model against a payload of identical geometry).
bool ws_shapes_match(const WeightSet& a, const WeightSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!a[i].same_shape(b[i])) return false;
  return true;
}

/// The smallest task slot a PartialUp covers (entries are present in both
/// verbatim and reduced mode; empty bundles are never sent).
std::int32_t bundle_min_slot(const PartialUpdate& p) {
  std::int32_t lo = std::numeric_limits<std::int32_t>::max();
  for (const UpdateEntry& e : p.entries) lo = std::min(lo, e.task);
  return lo;
}

/// Merge child bundles into one upstream bundle. Entries concatenate; in
/// reduced mode the per-key groups fold element-wise. Bundles are merged
/// in ascending min-slot order — the canonical order that keeps the
/// numeric reduction deterministic for a given tree shape, and independent
/// of the shape altogether when every bundle holds a single update.
PartialUpdate merge_bundles(std::vector<PartialUpdate> bundles,
                            bool reduced) {
  std::sort(bundles.begin(), bundles.end(),
            [](const PartialUpdate& a, const PartialUpdate& b) {
              const auto sa = bundle_min_slot(a), sb = bundle_min_slot(b);
              if (sa != sb) return sa < sb;
              return a.shard < b.shard;
            });
  PartialUpdate m;
  m.reduced = reduced;
  std::map<std::int32_t, std::size_t> by_key;  // reduce key → m.groups slot
  for (PartialUpdate& p : bundles) {
    for (UpdateEntry& e : p.entries) m.entries.push_back(std::move(e));
    for (ReducedGroup& g : p.groups) {
      auto it = by_key.find(g.key);
      if (it == by_key.end()) {
        by_key.emplace(g.key, m.groups.size());
        m.groups.push_back(std::move(g));
        continue;
      }
      ReducedGroup& dst = m.groups[it->second];
      ws_axpy(dst.sum, 1.0f, g.sum);
      dst.weight += g.weight;
      dst.count += g.count;
      dst.min_slot = std::min(dst.min_slot, g.min_slot);
    }
  }
  std::sort(m.groups.begin(), m.groups.end(),
            [](const ReducedGroup& a, const ReducedGroup& b) {
              return a.min_slot < b.min_slot;
            });
  return m;
}

/// A frame a hop of an async round trip received, with its delivery time.
struct Arrival {
  FabricMessage msg;
  double at_s = 0.0;
};

/// Drain `node`'s mailbox and keep the first `type` frame of async job
/// `job` (duplicates: first arrival wins; undecodable frames are counted).
/// Only called after a confirmed delivery, so the frame must be there.
Arrival first_arrival(Transport& net, std::int32_t node, std::uint32_t job,
                      MsgType type) {
  Arrival a;
  bool got = false;
  for (Envelope& env : net.drain(node)) {
    FabricMessage msg;
    try {
      msg = decode_message(env.frame);
    } catch (const Error&) {
      net.stats_mutable().frames_rejected.fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    if (msg.round != job || msg.type != type || got) continue;
    got = true;
    a.msg = std::move(msg);
    a.at_s = env.deliver_at_s;
  }
  FT_CHECK_MSG(got, "delivered async frame missing from the mailbox of "
                    "endpoint " << node);
  return a;
}

}  // namespace

std::shared_ptr<const DeltaStore::Entry> DeltaStore::peek(int client) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(client);
  return it == map_.end() ? nullptr : it->second;
}

void DeltaStore::update(int client, std::shared_ptr<const Entry> e) {
  std::lock_guard<std::mutex> lk(m_);
  map_[client] = std::move(e);
}

void DeltaStore::erase(int client) {
  std::lock_guard<std::mutex> lk(m_);
  map_.erase(client);
}

ClientAgent::ClientAgent(int id, const ClientDataProvider& data,
                         LocalTrainConfig local, FabricTopology policy)
    : id_(id), data_(&data), local_(local), policy_(policy) {}

void ClientAgent::poll(std::uint32_t round, const Model& prototype,
                       Transport& net,
                       std::vector<ClientOutcome>& outcomes,
                       DeltaStore* store) {
  FT_SPAN_ARG("client", "poll", "client", id_);
  // The model this device decoded last round — the base every delta-flagged
  // ModelDown of this round was diffed against. Snapshotted once up front:
  // the store only advances after this poll, so all of the round's frames
  // (duplicates included) decode against the same base.
  std::shared_ptr<const DeltaStore::Entry> prev;
  if (store != nullptr) prev = store->peek(id_);

  // Drain the mailbox first: duplicates and reordered frames all land here.
  // Invitations and models are paired per task slot; the agent keeps the
  // first arrival of each and ignores the rest.
  std::set<std::int32_t> invited;
  std::map<std::int32_t, FabricMessage> downs;  // task -> first ModelDown
  std::map<std::int32_t, double> down_at_s;

  for (Envelope& env : net.drain(id_)) {
    FabricMessage msg;
    try {
      msg = decode_message(env.frame, prev ? &prev->weights : nullptr,
                           prev ? prev->version : 0);
    } catch (const Error&) {
      // Treated as loss, but counted: the transport never corrupts bytes,
      // so frames_rejected > 0 means a codec bug (asserted 0 in tests).
      net.stats_mutable().frames_rejected.fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    if (msg.round != round) continue;
    if (msg.type == MsgType::JoinRound) {
      if (invited.insert(msg.task).second) {
        FabricMessage ack;
        ack.type = MsgType::Ack;
        ack.round = round;
        ack.sender = id_;
        ack.receiver = msg.sender;
        net.send(id_, msg.sender, encode_message(ack), env.deliver_at_s);
      }
    } else if (msg.type == MsgType::ModelDown) {
      if (downs.find(msg.task) == downs.end()) {
        down_at_s[msg.task] = env.deliver_at_s;
        downs.emplace(msg.task, std::move(msg));
      }
    }
  }

  // Mid-round dropout is a per-(round, client) device event: if it fires,
  // every task trains (burning real compute) and then vanishes unsent.
  const bool dropped_out = net.client_dropped_out(round, id_);
  bool trained_any = false;
  double last_done_s = 0.0;
  std::set<std::int32_t> coordinators;  // distinct ModelDown senders

  for (auto& [task, msg] : downs) {
    // The invitation is load-bearing: a task whose JoinRound never arrived
    // does not participate even if the model frame made it through.
    if (invited.find(task) == invited.end()) continue;
    if (task < 0 || task >= static_cast<std::int32_t>(outcomes.size()))
      continue;

    // Train exactly as the in-process path would: the payload architecture
    // (prototype or on-the-wire spec), the weights, and the coordinator-
    // forked Rng all arrived on the wire.
    Rng spawn(0);  // init weights are overwritten below
    Model local = msg.spec_text.empty()
                      ? prototype
                      : Model(ModelSpec::deserialize(msg.spec_text), spawn);
    local.set_weights(msg.weights);
    Rng rng;
    rng.set_state(msg.rng_state);
    LocalTrainResult res =
        byzantine_local_train(local, data_->client(id_), data_->num_classes(),
                              local_, rng, net.faults(), round, id_);

    const double compute_s =
        res.macs_used / net.device(id_).compute_macs_per_s;
    const double done_s = down_at_s[task] + compute_s;
    // The device's train window on the simulated timeline: model arrival
    // to upload-ready, on the client's own track.
    FT_VSPAN_ARG("client", "train", down_at_s[task], compute_s,
                 kTrackClients + id_, "task", task);
    trained_any = true;
    last_done_s = std::max(last_done_s, done_s);
    coordinators.insert(msg.sender);

    if (dropped_out) {
      outcomes[static_cast<std::size_t>(task)] = ClientOutcome::Dropout;
      continue;
    }

    // Upload to the coordinator that sent the model (the root, or the
    // shard aggregator owning this slot), resending a lost frame under the
    // retry policy. A dropped-out device never retries — it is gone.
    FabricMessage up;
    up.type = MsgType::UpdateUp;
    up.round = round;
    up.sender = id_;
    up.receiver = msg.sender;
    up.task = task;
    up.weights = std::move(res.delta);
    up.avg_loss = res.avg_loss;
    up.num_samples = res.num_samples;
    up.macs_used = res.macs_used;
    const bool delivered = send_with_retry(
        net, id_, msg.sender, done_s, policy_, /*downlink=*/false,
        [&up](std::uint8_t flags) {
          up.flags = flags;
          return encode_message(up);
        });
    outcomes[static_cast<std::size_t>(task)] =
        delivered ? ClientOutcome::Trained : ClientOutcome::LostUp;
  }

  if (dropped_out && trained_any) {
    // The device vanished after training. It attempts a courtesy Abort to
    // each coordinator it trained for, riding the same lossy links as
    // everything else.
    for (std::int32_t coord : coordinators) {
      FabricMessage abort_msg;
      abort_msg.type = MsgType::Abort;
      abort_msg.round = round;
      abort_msg.sender = id_;
      abort_msg.receiver = coord;
      abort_msg.reason = "dropout";
      net.send(id_, coord, encode_message(abort_msg), last_done_s);
    }
    net.stats_mutable().client_dropouts.fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  // Advance the delta store to what this device actually decoded — even on
  // dropout or a missing invitation, the bytes were decoded and are what
  // the next round's diff must be based on. Exactly one ModelDown: record
  // it. Several (a multi-slot round): the "previous model" is ambiguous,
  // so the entry is erased and the client goes back to full payloads. None
  // decoded: the old entry (still what the device last saw) stands.
  if (store != nullptr) {
    if (downs.size() == 1) {
      auto e = std::make_shared<DeltaStore::Entry>();
      FabricMessage& only = downs.begin()->second;
      e->version = prev ? prev->version + 1 : 1;
      e->spec_digest =
          fnv1a64(only.spec_text.data(), only.spec_text.size());
      e->weights = std::move(only.weights);
      store->update(id_, std::move(e));
    } else if (downs.size() > 1) {
      store->erase(id_);
    }
  }
}

namespace {

const FabricTopology& validated(const FabricTopology& topo) {
  validate_topology(topo);
  return topo;
}

}  // namespace

FederationServer::FederationServer(const Model& prototype,
                                   const ClientDataProvider& data,
                                   std::vector<DeviceProfile> fleet,
                                   LocalTrainConfig local, FaultConfig faults,
                                   FabricTopology topology,
                                   TransportKind transport,
                                   SocketOptions socket)
    : prototype_(prototype),
      data_(&data),
      local_(local),
      topo_(validated(topology)),
      tree_(topo_) {
  FT_CHECK_MSG(static_cast<int>(fleet.size()) == data.num_clients(),
               "fabric fleet size must match client count");
  if (topo_.broadcast_cache) {
    // One receiver cache + one sender-side known-map per aggregator; sized
    // once so the per-node state never reallocates under the node-parallel
    // routing workers.
    bcast_cache_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
    child_known_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
  }
  net_ = make_transport(transport, std::move(fleet), faults,
                        tree_.num_aggregators(), socket);
}

int FederationServer::owner_leaf(std::uint32_t round, int s) const {
  // The root is never a fault domain: a flat fabric's only leaf never dies.
  if (tree_.leaf_id(s) == kServerId || !net_->leaf_dead(round, s)) return s;
  const auto [lo, hi] = tree_.sibling_range(s);
  for (int k = 1; k < hi - lo; ++k) {
    const int cand = lo + (s - lo + k) % (hi - lo);
    if (!net_->leaf_dead(round, cand)) return cand;
  }
  return -1;  // the whole fault domain is down this round
}

std::vector<std::uint8_t> FederationServer::elide_mask_for(
    std::int32_t dst, const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return {};
  const auto& known = child_known_[agg_index(dst)];
  std::vector<std::uint8_t> mask(d.bodies.size(), 0);
  // Decide per body against the receiver cache as it will evolve while it
  // decodes this bundle in table order (a later same-spec body evicts an
  // earlier one), so replay the eviction rule alongside the decisions.
  std::unordered_map<std::uint64_t, std::uint64_t> view = known;
  std::uint64_t hits = 0, saved = 0;
  for (std::size_t i = 0; i < d.bodies.size(); ++i) {
    const std::uint64_t hash = broadcast_body_hash(d.bodies[i]);
    const std::uint64_t spec = broadcast_body_spec_digest(d.bodies[i]);
    const auto it = view.find(spec);
    if (it != view.end() && it->second == hash) {
      mask[i] = 1;
      ++hits;
      saved += d.bodies[i].size();  // elided entry ships the hash instead
    }
    view[spec] = hash;
  }
  if (hits > 0) {
    net_->stats_mutable().cache_hits.fetch_add(hits,
                                               std::memory_order_relaxed);
    net_->stats_mutable().cache_saved_bytes.fetch_add(
        saved, std::memory_order_relaxed);
  }
  return mask;
}

void FederationServer::note_bundle_known(std::int32_t dst,
                                         const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return;
  auto& known = child_known_[agg_index(dst)];
  for (const std::string& b : d.bodies)
    known[broadcast_body_spec_digest(b)] = broadcast_body_hash(b);
}

void FederationServer::drop_missing_bodies(ShardDownlink& d,
                                           std::int32_t node) {
  bool any = false;
  for (const std::uint8_t m : d.missing) any = any || m != 0;
  if (!any) return;
  const std::size_t before = d.tasks.size();
  d.tasks.erase(std::remove_if(d.tasks.begin(), d.tasks.end(),
                               [&d](const DownlinkTask& t) {
                                 return d.missing[t.body] != 0;
                               }),
                d.tasks.end());
  FT_LOG_WARN("aggregator " << node << " round " << d.round << ": dropped "
                            << before - d.tasks.size()
                            << " downlink task(s) whose elided broadcast "
                               "body was missing from the cache (lost for "
                               "the round)");
}

FederationServer::ParsedBody FederationServer::parse_body(
    const std::string& body) {
  std::istringstream is(body, std::ios::binary);
  ParsedBody p;
  p.spec = read_string(is);
  p.spec_digest = fnv1a64(p.spec.data(), p.spec.size());
  p.weights = read_weight_set(is);
  return p;
}

std::string FederationServer::model_down_for(
    std::int32_t slot, int client, const std::string& body,
    const ParsedBody* parsed, const std::array<std::uint64_t, 4>& rng_state,
    std::uint8_t& flags) {
  flags = 0;
  if (topo_.delta_downlink && parsed != nullptr) {
    const auto entry = delta_store_.peek(client);
    if (entry && entry->spec_digest == parsed->spec_digest &&
        ws_shapes_match(entry->weights, parsed->weights)) {
      std::ostringstream os(std::ios::binary);
      write_pod<std::int32_t>(os, slot);
      write_string(os, parsed->spec);
      write_weight_delta(os, entry->version, entry->weights, parsed->weights);
      os.write(reinterpret_cast<const char*>(rng_state.data()),
               sizeof(rng_state));
      std::string delta_payload = os.str();
      // A diff that is not actually smaller (every tensor changed) falls
      // back to the full payload, so the saving is never negative.
      const std::size_t full =
          sizeof(slot) + body.size() + sizeof(rng_state);
      if (delta_payload.size() < full) {
        flags = kFlagDelta;
        net_->stats_mutable().delta_downlinks.fetch_add(
            1, std::memory_order_relaxed);
        net_->stats_mutable().delta_saved_bytes.fetch_add(
            full - delta_payload.size(), std::memory_order_relaxed);
        return delta_payload;
      }
    }
  }
  return model_down_payload(slot, body, rng_state);
}

void FederationServer::send_join(std::uint32_t round, std::int32_t task,
                                 int client, std::int32_t coordinator,
                                 double sent_at_s) {
  FabricMessage join;
  join.type = MsgType::JoinRound;
  join.round = round;
  join.sender = coordinator;
  join.receiver = client;
  join.task = task;
  net_->send(coordinator, client, encode_message(join), sent_at_s);
}

void FederationServer::broadcast(
    std::uint32_t round, const std::vector<int>& clients,
    const std::vector<Rng>& client_rngs,
    const std::vector<const std::string*>& slot_body) {
  FT_SPAN_ARG("server", "broadcast", "tasks", clients.size());
  // One bundle per node of the tier below the root — or, on a flat fabric,
  // the root's own bundle — built in a single pass over the task list
  // (each distinct payload body copied once per bundle that references it;
  // the broadcast hot path never materializes a full-tree bundle).
  // Interior tiers split their bundle further; a bundle lost despite
  // retries leaves its whole subtree's tasks at LostDown.
  const int top = std::min(1, tree_.levels() - 1);
  const int kids = tree_.tier_width(top);
  const int leaves = tree_.leaves();
  std::vector<ShardDownlink> bundles(static_cast<std::size_t>(kids));
  std::vector<std::unordered_map<const std::string*, std::uint32_t>>
      body_idx(static_cast<std::size_t>(kids));
  for (int j = 0; j < kids; ++j) {
    auto& b = bundles[static_cast<std::size_t>(j)];
    const auto [lo, hi] = tree_.leaf_range(top, j);
    b.leaf_lo = lo;
    b.leaf_hi = hi;
    b.shard = hi - lo == 1 ? lo : -1;
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const int leaf = static_cast<int>(i) % leaves;
    const auto j = static_cast<std::size_t>(tree_.node_covering(top, leaf));
    auto& b = bundles[j];
    auto [it, fresh] = body_idx[j].emplace(
        slot_body[i], static_cast<std::uint32_t>(b.bodies.size()));
    if (fresh) b.bodies.push_back(*slot_body[i]);
    DownlinkTask t;
    t.task = static_cast<std::int32_t>(i);
    t.client = clients[i];
    t.body = it->second;
    t.reduce = round_reduce_.empty() ? -1 : round_reduce_[i];
    t.rng_state = client_rngs[i].state();
    b.tasks.push_back(t);
  }
  leaf_served_.assign(static_cast<std::size_t>(leaves), {});
  if (top == 0) {
    // The root is its own only leaf: it fans its bundle out itself, at the
    // round's start — no ShardDown frame.
    fan_out(round, 0, bundles[0], /*sent_at_s=*/0.0);
    return;
  }
  for (int j = 0; j < kids; ++j)
    send_bundle(round, kServerId, 1, j, bundles[static_cast<std::size_t>(j)],
                /*sent_at_s=*/0.0);
  route_tiers_down(round);
  fan_out_shards(round);
}

void FederationServer::send_bundle(std::uint32_t round, std::int32_t src,
                                   int tier, int j, const ShardDownlink& d,
                                   double sent_at_s) {
  if (d.tasks.empty()) return;
  // Ship `d` to `dst` under the retry policy. The elide mask is computed
  // once per destination decision — retries reuse it, so cache savings are
  // counted once even when the frame is resent; a confirmed delivery
  // advances the sender-side mirror of the receiver's cache.
  const auto ship = [&](std::int32_t dst, double at_s) {
    const std::vector<std::uint8_t> elide = elide_mask_for(dst, d);
    const bool delivered = send_with_retry(
        *net_, src, dst, at_s, topo_, /*downlink=*/true,
        [&](std::uint8_t flags) {
          return encode_shard_down(round, src, dst, d, flags,
                                   elide.empty() ? nullptr : &elide);
        });
    if (delivered) note_bundle_known(dst, d);
  };
  // Interior destination: straight down.
  if (tier < topo_.levels - 1) return ship(tree_.node_id(tier, j), sent_at_s);
  // Leaf destination: the per-shard fault domain. An alive leaf gets its
  // partition's bundle; a dead one costs the parent the first (wasted)
  // send, and one ack-timeout later the partition is redirected to the
  // alive sibling — billed as failover traffic. With the whole sibling
  // group down the partition is lost for the round.
  const int owner = owner_leaf(round, j);
  if (owner == j) return ship(tree_.leaf_id(j), sent_at_s);
  // The wasted frame elides against the dead leaf's known-map (the sender
  // cannot know the leaf is dead yet), but never advances it — the mail
  // rots undecoded, so the leaf's cache saw nothing.
  const std::vector<std::uint8_t> dead_elide =
      elide_mask_for(tree_.leaf_id(j), d);
  std::string wasted =
      encode_shard_down(round, src, tree_.leaf_id(j), d, 0,
                        dead_elide.empty() ? nullptr : &dead_elide);
  const std::size_t bytes = wasted.size();
  net_->send(src, tree_.leaf_id(j), std::move(wasted), sent_at_s);
  if (owner < 0) return;
  FT_VSPAN_ARG("server", "leaf_failover", sent_at_s + topo_.ack_timeout_s,
               0.0, track_of_endpoint(tree_.leaf_id(owner)), "dead_leaf", j);
  net_->stats_mutable().leaf_failovers.fetch_add(1,
                                                 std::memory_order_relaxed);
  net_->stats_mutable().failover_bytes_down.fetch_add(
      bytes, std::memory_order_relaxed);
  ship(tree_.leaf_id(owner), sent_at_s + topo_.ack_timeout_s);
}

void FederationServer::route_tiers_down(std::uint32_t round) {
  FT_SPAN("server", "route_tiers_down");
  // Interior downlink passes, one tier at a time (node-parallel within a
  // tier: nodes own disjoint subtrees and mailboxes are thread-safe).
  for (int t = 1; t + 1 <= topo_.levels - 1; ++t) {
    ThreadPool::global().parallel_for(
        tree_.tier_width(t), 1, [&](std::int64_t nlo, std::int64_t nhi) {
          for (std::int64_t jj = nlo; jj < nhi; ++jj) {
            const int j = static_cast<int>(jj);
            const std::int32_t node = tree_.node_id(t, j);
            std::set<std::int32_t> handled;  // first arrival per leaf range
            for (Envelope& env : net_->drain(node)) {
              ShardDownlink d;
              try {
                d = decode_shard_down(env.frame,
                                      topo_.broadcast_cache
                                          ? &bcast_cache_[agg_index(node)]
                                          : nullptr);
              } catch (const Error&) {
                net_->stats_mutable().frames_rejected.fetch_add(
                    1, std::memory_order_relaxed);
                continue;
              }
              if (d.round != round) continue;
              if (!handled.insert(d.leaf_lo).second) continue;
              drop_missing_bodies(d, node);
              const auto [clo, chi] = tree_.child_range(t, j);
              for (int c = clo; c < chi; ++c) {
                const auto [llo, lhi] = tree_.leaf_range(t + 1, c);
                send_bundle(round, tree_.node_id(t, j), t + 1, c,
                            subset_bundle(d, tree_.leaves(), llo, lhi),
                            env.deliver_at_s);
              }
            }
          }
        });
  }
}

void FederationServer::fan_out_shards(std::uint32_t round) {
  FT_SPAN("server", "fan_out_shards");
  // Leaves fan their bundle(s) out to the client partition, node-parallel
  // on the shared ThreadPool: a leaf may serve several partitions after a
  // failover, but partitions are disjoint and the transport mailboxes are
  // thread-safe. A leaf dead this round fans out nothing.
  ThreadPool::global().parallel_for(
      tree_.leaves(), 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const std::int32_t leaf = tree_.leaf_id(static_cast<int>(s));
          if (net_->leaf_dead(round, static_cast<std::int32_t>(s))) {
            net_->drain(leaf);  // dead for the round: the mail rots
            continue;
          }
          std::set<std::int32_t> handled;  // first arrival per partition
          for (Envelope& env : net_->drain(leaf)) {
            ShardDownlink d;
            try {
              d = decode_shard_down(env.frame,
                                    topo_.broadcast_cache
                                        ? &bcast_cache_[agg_index(leaf)]
                                        : nullptr);
            } catch (const Error&) {
              net_->stats_mutable().frames_rejected.fetch_add(
                  1, std::memory_order_relaxed);
              continue;
            }
            if (d.round != round) continue;
            if (!handled.insert(d.shard).second) continue;
            drop_missing_bodies(d, leaf);
            // Both per-client frames leave when the bundle arrived — a
            // retried ShardDown must not invite clients retroactively.
            fan_out(round, static_cast<int>(s), d, env.deliver_at_s);
          }
        }
      });
}

void FederationServer::fan_out(std::uint32_t round, int s,
                               const ShardDownlink& d, double sent_at_s) {
  // JoinRound + ModelDown per task, with the same payload bytes from every
  // leaf (only the coordinator id differs), so agents train bit-identically
  // at any depth. The leaf records what it fanned out (slot → reduce key)
  // for its collect pass.
  const std::int32_t leaf = tree_.leaf_id(s);
  auto& served = leaf_served_[static_cast<std::size_t>(s)];
  // One parse per distinct body in the bundle, built lazily — rounds
  // without delta downlinks never deserialize here.
  std::vector<std::unique_ptr<ParsedBody>> parsed(d.bodies.size());
  for (const DownlinkTask& t : d.tasks) {
    send_join(round, t.task, t.client, leaf, sent_at_s);
    const ParsedBody* pb = nullptr;
    if (topo_.delta_downlink) {
      auto& slot = parsed[t.body];
      if (!slot)
        slot = std::make_unique<ParsedBody>(parse_body(d.bodies[t.body]));
      pb = slot.get();
    }
    std::uint8_t flags = 0;
    const std::string payload = model_down_for(
        t.task, t.client, d.bodies[t.body], pb, t.rng_state, flags);
    net_->send(leaf, t.client,
               encode_frame(MsgType::ModelDown, round, leaf, t.client,
                            payload, flags),
               sent_at_s);
    served[t.task] = t.reduce;
  }
}

void FederationServer::poll_agents(std::uint32_t round,
                                   const std::vector<int>& clients,
                                   ExchangeResult& out) {
  FT_SPAN_ARG("server", "poll_agents", "tasks", clients.size());
  // ClientAgent workers run concurrently on the shared ThreadPool — one
  // poll per *distinct* client (an agent drains its whole mailbox, which
  // may hold several task slots). Each task slot is written by exactly one
  // agent, so the result is independent of the thread schedule; nested
  // parallel_for inside local_train runs inline.
  std::vector<int> distinct;
  distinct.reserve(clients.size());
  std::set<int> seen_clients;
  for (int c : clients)
    if (seen_clients.insert(c).second) distinct.push_back(c);

  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(distinct.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          // Agents are stateless per-round workers (id + config + borrowed
          // data): build one on the stack per distinct client instead of
          // keeping a live object per population member. At a million
          // clients the always-materialized agent vector is exactly the
          // kind of resident cost the descriptor population avoids.
          ClientAgent(distinct[static_cast<std::size_t>(i)], *data_, local_,
                      topo_)
              .poll(round, prototype_, *net_, out.outcomes,
                    topo_.delta_downlink ? &delta_store_ : nullptr);
      });
}

void FederationServer::collect(std::uint32_t round,
                               const std::vector<int>& clients,
                               ExchangeResult& out) {
  FT_SPAN("server", "collect");
  poll_agents(round, clients, out);

  // Leaf pass: each alive leaf matches the partitions it served at fan-out
  // and forwards one PartialUp per partition upstream — node-parallel on
  // the shared ThreadPool (partitions are disjoint, so outcome flips never
  // race). Duplicates are dropped here (first arrival wins); stale rounds,
  // unknown slots and sender/slot mismatches are ignored, and Ack/Abort
  // frames are bookkeeping only (the agents' ground-truth outcomes already
  // account for dropouts). In a numeric round the leaf folds its updates
  // into per-key partial sums in slot order and ships metrics-only
  // entries; a bundle lost despite the retry policy takes its partition's
  // trained updates down with it. The root, when it is its own only leaf,
  // hands its match straight to the root merge below (`root_in`, written
  // by that single leaf only).
  const int leaves = tree_.leaves();
  std::vector<PartialUpdate> root_in;
  ThreadPool::global().parallel_for(
      leaves, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          const std::int32_t leaf = tree_.leaf_id(static_cast<int>(s));
          const auto& served = leaf_served_[static_cast<std::size_t>(s)];
          if (served.empty()) {
            net_->drain(leaf);  // dead or idle: nothing was fanned out
            continue;
          }
          std::map<std::int32_t, UpdateEntry> matched;  // slot -> first win
          std::map<std::int32_t, double> up_at;  // partition -> last deliver
          for (Envelope& env : net_->drain(leaf)) {
            FabricMessage msg;
            try {
              msg = decode_message(env.frame);
            } catch (const Error&) {
              net_->stats_mutable().frames_rejected.fetch_add(
                  1, std::memory_order_relaxed);
              continue;
            }
            if (msg.round != round || msg.type != MsgType::UpdateUp)
              continue;
            const std::int32_t i = msg.task;
            if (!admissible_slot(i, msg.sender, clients)) continue;
            // This leaf only owns slots it fanned out itself.
            if (served.find(i) == served.end()) continue;
            if (matched.count(i) != 0) continue;
            UpdateEntry e;
            e.task = i;
            e.client = msg.sender;
            e.delta = std::move(msg.weights);
            e.avg_loss = msg.avg_loss;
            e.num_samples = msg.num_samples;
            e.macs_used = msg.macs_used;
            matched.emplace(i, std::move(e));
            auto& at = up_at[i % leaves];
            at = std::max(at, env.deliver_at_s);
          }
          if (matched.empty()) continue;

          // One bundle per served partition, slots in ascending order
          // (matched is slot-sorted); numeric rounds fold the deltas into
          // per-key groups as they go and keep the metrics verbatim.
          std::map<std::int32_t, PartialUpdate> parts;
          for (auto& [slot, e] : matched) {
            PartialUpdate& p = parts[slot % leaves];
            if (reduced_round_) {
              const std::int32_t key = served.at(slot);
              ReducedGroup* g = nullptr;
              for (ReducedGroup& cand : p.groups)
                if (cand.key == key) g = &cand;
              if (g == nullptr) {
                ReducedGroup fresh;
                fresh.key = key;
                fresh.min_slot = slot;
                fresh.sum = ws_zeros_like(e.delta);
                p.groups.push_back(std::move(fresh));
                g = &p.groups.back();
              }
              ws_axpy(g->sum, static_cast<float>(e.num_samples), e.delta);
              g->weight += static_cast<double>(e.num_samples);
              g->count += 1;
              g->min_slot = std::min(g->min_slot, slot);
              e.delta.clear();  // the sum rides instead; metrics stay
            }
            p.entries.push_back(std::move(e));
          }
          for (auto& [part, p] : parts) {
            p.shard = part;
            p.reduced = reduced_round_;
            if (leaf == kServerId)
              root_in.push_back(std::move(p));
            else
              send_partial(round, leaf,
                           tree_.parent_id(topo_.levels - 1,
                                           static_cast<int>(s)),
                           p, up_at[part], out);
          }
        }
      });

  // Interior tiers merge child bundles upward, tier by tier (node-parallel
  // within a tier; nodes cover disjoint subtrees). Duplicate deliveries
  // dedup at bundle granularity (first arrival per (sender, partition)).
  FT_SPAN("server", "partial_merge");
  for (int t = topo_.levels - 2; t >= 1; --t) {
    ThreadPool::global().parallel_for(
        tree_.tier_width(t), 1, [&](std::int64_t nlo, std::int64_t nhi) {
          for (std::int64_t jj = nlo; jj < nhi; ++jj) {
            const int j = static_cast<int>(jj);
            const std::int32_t node = tree_.node_id(t, j);
            std::vector<PartialUpdate> bundles;
            const double last_s = drain_bundles(round, node, bundles);
            if (bundles.empty()) continue;
            PartialUpdate m = merge_bundles(std::move(bundles),
                                            reduced_round_);
            m.shard = j;
            send_partial(round, node, tree_.parent_id(t, j), m, last_s, out);
          }
        });
  }

  // Root: merge the surviving bundles back into the task list — the same
  // slot/sender validation and first-arrival dedup as the leaf match, just
  // over bundled entries (and, in a numeric round, the merged reduce groups
  // the engine's absorb_reduced path consumes).
  std::vector<PartialUpdate> bundles = std::move(root_in);
  drain_bundles(round, kServerId, bundles);
  PartialUpdate merged = merge_bundles(std::move(bundles), reduced_round_);

  std::vector<bool> seen(clients.size(), false);
  for (UpdateEntry& e : merged.entries) {
    if (!admissible_slot(e.task, e.client, clients)) continue;
    const auto slot = static_cast<std::size_t>(e.task);
    if (seen[slot]) continue;
    seen[slot] = true;
    LocalTrainResult& res = out.results[slot];
    res.delta = std::move(e.delta);
    res.avg_loss = e.avg_loss;
    res.num_samples = e.num_samples;
    res.macs_used = e.macs_used;
  }
  if (reduced_round_) out.groups = std::move(merged.groups);
  for (std::size_t i = 0; i < clients.size(); ++i)
    if (out.outcomes[i] == ClientOutcome::Trained)
      FT_CHECK_MSG(seen[i], "delivered update missing from root mailbox");
}

double FederationServer::drain_bundles(std::uint32_t round,
                                       std::int32_t node,
                                       std::vector<PartialUpdate>& bundles) {
  std::set<std::pair<std::int32_t, std::int32_t>> seen_b;
  double last_s = 0.0;
  for (Envelope& env : net_->drain(node)) {
    PartialUpdate p;
    try {
      if (frame_type(env.frame) != MsgType::PartialUp)
        continue;  // Ack/Abort: bookkeeping only
      p = decode_partial_up(env.frame);
    } catch (const Error&) {
      net_->stats_mutable().frames_rejected.fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    if (p.round != round) continue;
    if (!seen_b.insert({p.sender, p.shard}).second) continue;
    last_s = std::max(last_s, env.deliver_at_s);
    bundles.push_back(std::move(p));
  }
  return last_s;
}

void FederationServer::send_partial(std::uint32_t round, std::int32_t node,
                                    std::int32_t parent, PartialUpdate& p,
                                    double sent_at_s, ExchangeResult& out) {
  p.quant = reduced_round_
                ? static_cast<std::uint8_t>(topo_.quantize_partials)
                : kPartialQuantF32;
  const bool delivered = send_with_retry(
      *net_, node, parent, sent_at_s, topo_, /*downlink=*/false,
      [&](std::uint8_t flags) {
        return encode_partial_up(round, node, parent, p, flags);
      });
  if (delivered) return;
  // The partial aggregate never reached the parent: its trained updates
  // are lost on the (backbone) uplink.
  for (const UpdateEntry& e : p.entries) {
    auto& o = out.outcomes[static_cast<std::size_t>(e.task)];
    if (o == ClientOutcome::Trained) o = ClientOutcome::LostUp;
  }
}

ExchangeResult FederationServer::exchange(
    std::uint32_t round, const std::vector<int>& clients,
    const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys,
    const std::vector<const std::string*>& slot_body) {
  FT_CHECK_MSG(clients.size() == client_rngs.size(),
               "one forked Rng per task slot required");
  FT_CHECK_MSG(reduce_keys.empty() || reduce_keys.size() == clients.size(),
               "one reduce key per task slot required");
  round_reduce_ = reduce_keys;
  reduced_round_ = topo_.partial_aggregation && !round_reduce_.empty();
  ExchangeResult out;
  out.results.resize(clients.size());
  out.outcomes.assign(clients.size(), ClientOutcome::LostDown);
  out.reduced = reduced_round_;
  const std::uint64_t retry_down0 = net_->stats().retry_bytes_down.load();
  const std::uint64_t retry_up0 = net_->stats().retry_bytes_up.load();
  const std::uint64_t failovers0 = net_->stats().leaf_failovers.load();
  const std::uint64_t failover_b0 = net_->stats().failover_bytes_down.load();
  const std::uint64_t delta_saved0 = net_->stats().delta_saved_bytes.load();

  phase_ = Phase::Broadcast;
  broadcast(round, clients, client_rngs, slot_body);
  phase_ = Phase::Collect;
  collect(round, clients, out);
  phase_ = Phase::Aggregate;  // aggregation happens in the caller

  out.retry_down_bytes = static_cast<double>(
      net_->stats().retry_bytes_down.load() - retry_down0);
  out.retry_up_bytes = static_cast<double>(
      net_->stats().retry_bytes_up.load() - retry_up0);
  out.leaf_failovers = static_cast<int>(
      net_->stats().leaf_failovers.load() - failovers0);
  out.failover_down_bytes = static_cast<double>(
      net_->stats().failover_bytes_down.load() - failover_b0);
  out.delta_saved_bytes = static_cast<double>(
      net_->stats().delta_saved_bytes.load() - delta_saved0);
  round_reduce_.clear();
  return out;
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const WeightSet& global,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys) {
  FT_SPAN_ARG("server", "exchange", "tasks", clients.size());
  // Serialize the weight set once; per task only the (tiny) slot id and
  // Rng-state sections of the ModelDown payload differ.
  const std::string body = shared_body(global);
  return exchange(round, clients, client_rngs, reduce_keys,
                  std::vector<const std::string*>(clients.size(), &body));
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const std::vector<Model*>& payloads,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys) {
  FT_SPAN_ARG("server", "exchange", "tasks", clients.size());
  FT_CHECK_MSG(payloads.size() == clients.size(),
               "one payload model per task slot required");
  // Architecture + weights ride the frame: the agent rebuilds the exact
  // submodel this task trains, no shared prototype required. The engine
  // hands tasks in the same payload_key group one Model instance, so the
  // (large) spec + weights section is encoded once per distinct instance.
  std::unordered_map<const Model*, std::string> encoded;
  std::vector<const std::string*> slot_body(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    std::string& body = encoded[payloads[i]];
    if (body.empty()) body = task_body(*payloads[i]);
    slot_body[i] = &body;
  }
  return exchange(round, clients, client_rngs, reduce_keys, slot_body);
}

AsyncJob FederationServer::async_downlink(std::uint32_t job, int client,
                                          const WeightSet& global,
                                          const Rng& rng, double now_s) {
  FT_SPAN_ARG("server", "async_downlink", "client", client);
  FT_CHECK_MSG(client >= 0 && client < num_clients(),
               "async dispatch to unknown client " << client);
  AsyncJob j;
  j.job = job;
  j.client = client;
  j.sent_at_s = now_s;

  // Route: hop through the tree's nodes from tier 1 down to the client's
  // leaf partition (leaf = client % leaves, failover applied per job) on
  // the zero-latency backbone — so the server-side delivery order the
  // engine folds completions in does not depend on the depth. On a flat
  // fabric the root is the leaf and the chain is empty.
  const int part = client % tree_.leaves();
  const int owner = owner_leaf(job, part);
  if (owner < 0) return j;  // whole fault domain down: LostDown
  if (owner != part) {
    j.failed_over = true;
    net_->stats_mutable().leaf_failovers.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  for (int tier = 1; tier < tree_.levels(); ++tier)
    j.chain.push_back(tree_.node_id(tier, tree_.node_covering(tier, owner)));

  // Downlink: one ModelDown (task slot 0, round field = job id) carrying
  // the dispatch-time weight snapshot and the forked Rng — hop by hop down
  // the chain, then over the client's radio link, the real wire path, so
  // the client trains on exactly what it downloaded. Any lost hop is
  // LostDown: async dispatches are not retried downward — the engine
  // replaces timed-out clients instead.
  const std::string payload =
      model_down_payload(0, shared_body(global), rng.state());
  Arrival down;
  down.at_s = now_s;
  std::int32_t src = kServerId;
  for (std::size_t k = 0; k <= j.chain.size(); ++k) {
    const std::int32_t dst = k < j.chain.size() ? j.chain[k] : client;
    if (!net_->send(src, dst,
                    encode_frame(MsgType::ModelDown, job, src, dst, payload),
                    down.at_s))
      return j;  // LostDown: the device never saw the job
    down = first_arrival(*net_, dst, job, MsgType::ModelDown);
    src = dst;
  }
  j.delivered = true;
  j.down_at_s = down.at_s;
  j.compute_s = local_train_macs(prototype_, local_) /
                net_->device(client).compute_macs_per_s;
  j.weights = std::move(down.msg.weights);
  j.rng_state = down.msg.rng_state;
  return j;
}

std::vector<AsyncTurnaround> FederationServer::async_complete(
    std::vector<AsyncJob>& jobs) {
  FT_SPAN_ARG("server", "async_exchange", "jobs", jobs.size());
  std::vector<AsyncTurnaround> turns(jobs.size());
  // Client side: every delivered job trains on receipt, one client per
  // pool task. Inputs were fixed at dispatch and each task writes only
  // its own slot, so the results do not depend on the thread schedule.
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(jobs.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          AsyncJob& j = jobs[static_cast<std::size_t>(i)];
          if (!j.delivered) continue;
          Model local = prototype_;
          local.set_weights(j.weights);
          j.weights = WeightSet{};
          Rng crng;
          crng.set_state(j.rng_state);
          turns[static_cast<std::size_t>(i)].res = byzantine_local_train(
              local, data_->client(j.client), data_->num_classes(), local_,
              crng, net_->faults(), j.job, j.client);
        }
      });
  for (std::size_t i = 0; i < jobs.size(); ++i) async_uplink(jobs[i], turns[i]);
  return turns;
}

void FederationServer::async_uplink(const AsyncJob& j, AsyncTurnaround& t) {
  if (!j.delivered) return;  // LostDown
  const std::uint64_t retry0 = net_->stats().retry_bytes_up.load();
  const double done_s = j.down_at_s + j.compute_s;
  FT_VSPAN_ARG("client", "train", j.down_at_s, j.compute_s,
               kTrackClients + j.client, "job", j.job);
  t.busy_s = done_s - j.sent_at_s;

  if (net_->client_dropped_out(j.job, j.client)) {
    t.outcome = ClientOutcome::Dropout;
    net_->stats_mutable().client_dropouts.fetch_add(
        1, std::memory_order_relaxed);
    return;  // trained, then vanished — no upload, no retries
  }

  // Uplink under the retry policy: client → its leaf, then hop by hop back
  // up the chain to the root, each leg under the same retry policy; every
  // hop forwards the UpdateUp it decoded, re-addressed.
  Arrival up;
  up.msg.type = MsgType::UpdateUp;
  up.msg.round = j.job;
  up.msg.task = 0;
  up.msg.weights = std::move(t.res.delta);
  up.msg.avg_loss = t.res.avg_loss;
  up.msg.num_samples = t.res.num_samples;
  up.msg.macs_used = t.res.macs_used;
  up.at_s = done_s;
  std::int32_t src = j.client;
  for (std::size_t k = j.chain.size() + 1; k-- > 0;) {
    const std::int32_t dst = k == 0 ? kServerId : j.chain[k - 1];
    FabricMessage& msg = up.msg;
    msg.sender = src;
    msg.receiver = dst;
    const bool delivered = send_with_retry(
        *net_, src, dst, up.at_s, topo_, /*downlink=*/false,
        [&msg](std::uint8_t flags) {
          msg.flags = flags;
          return encode_message(msg);
        });
    if (!delivered) {
      t.retry_up_bytes = static_cast<double>(
          net_->stats().retry_bytes_up.load() - retry0);
      t.outcome = ClientOutcome::LostUp;
      return;
    }
    up = first_arrival(*net_, dst, j.job, MsgType::UpdateUp);
    src = dst;
  }
  t.retry_up_bytes = static_cast<double>(
      net_->stats().retry_bytes_up.load() - retry0);
  t.update_at_s = up.at_s;
  t.res.delta = std::move(up.msg.weights);
  t.outcome = ClientOutcome::Trained;
  t.busy_s = std::max(t.busy_s, t.update_at_s - j.sent_at_s);
}

}  // namespace fedtrans
