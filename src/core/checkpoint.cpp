// FedTrans checkpoint/resume. The checkpoint captures every piece of
// dynamic coordinator state so a restored engine continues bit-identically:
// planet-scale FL runs span days and preemptible infrastructure, so the
// coordinator must be restartable without perturbing the training
// trajectory (FedScale and production systems like Papaya checkpoint the
// same way). Since the engine refactor the state is split between the
// FedTransStrategy (model family, utilities, DoC/activeness, transform
// counters) and the FederationEngine (Rng, costs, selector, round counter,
// history); the checkpoint serializes both.

#include "common/check.hpp"
#include "common/serial.hpp"
#include "core/trainer.hpp"
#include "model/serialize.hpp"

namespace fedtrans {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0xfed72a45c8c9ULL;
// v2: RoundRecord grew participants/lost_updates (PR 2 federation fabric).
// v3: the engine refactor (PR 3) moved Rng/costs/round/history into the
// FederationEngine; the layout is unchanged but the compatibility break is
// versioned so older checkpoints fail loudly instead of misparsing.
// v4: RoundRecord grew leaf_failovers (PR 5 deep aggregation trees), which
// changes the POD history layout.
// v5: CostMeter caps its raw client-time samples and serializes the exact
// running stats (count / sum / sum-of-squares) ahead of the capped vector.
// v6: RoundRecord grew the Byzantine accounting (byzantine_updates /
// byzantine_l2 / byzantine_clients) — the attacker list makes the record
// non-POD, so history entries now serialize field by field.
constexpr std::uint32_t kCheckpointVersion = 6;

void write_record(std::ostream& os, const RoundRecord& r) {
  write_pod(os, r.round);
  write_pod(os, r.avg_loss);
  write_pod(os, r.cum_macs);
  write_pod(os, r.accuracy);
  write_pod(os, r.round_time_s);
  write_pod(os, r.participants);
  write_pod(os, r.lost_updates);
  write_pod(os, r.leaf_failovers);
  write_pod(os, r.byzantine_updates);
  write_pod(os, r.byzantine_l2);
  write_vec(os, r.byzantine_clients);
}

RoundRecord read_record(std::istream& is) {
  RoundRecord r;
  r.round = read_pod<int>(is);
  r.avg_loss = read_pod<double>(is);
  r.cum_macs = read_pod<double>(is);
  r.accuracy = read_pod<double>(is);
  r.round_time_s = read_pod<double>(is);
  r.participants = read_pod<int>(is);
  r.lost_updates = read_pod<int>(is);
  r.leaf_failovers = read_pod<int>(is);
  r.byzantine_updates = read_pod<int>(is);
  r.byzantine_l2 = read_pod<double>(is);
  r.byzantine_clients = read_vec<std::int32_t>(is);
  return r;
}

/// The engine's strategy as FedTrans; anything else has no checkpoint
/// format, so refuse loudly instead of writing or reading garbage.
FedTransStrategy& fedtrans_strategy(FederationEngine& engine) {
  auto* s = dynamic_cast<FedTransStrategy*>(&engine.strategy());
  FT_CHECK_MSG(s != nullptr, "checkpointing needs a FedTransStrategy engine, "
                             "but the engine runs strategy '"
                                 << engine.strategy().name() << "'");
  return *s;
}

}  // namespace

void save_checkpoint(FederationEngine& engine, std::ostream& os) {
  FedTransStrategy& s = fedtrans_strategy(engine);
  write_pod(os, kCheckpointMagic);
  write_pod(os, kCheckpointVersion);
  // Compatibility fingerprint: restoring into an engine with a different
  // fleet/dataset/seed would silently diverge, so fail loudly instead.
  write_pod<std::uint64_t>(os, s.cfg_.seed);
  write_pod<std::uint32_t>(os,
                           static_cast<std::uint32_t>(engine.fleet().size()));

  // Model family.
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.models_.size()));
  for (auto& e : s.models_) {
    write_pod<std::int32_t>(os, e.id);
    write_pod<std::int32_t>(os, e.created_round);
    save_model(*e.model, os);
    e.opt->save_state(os);
  }

  s.cm_->save(os);
  s.doc_.save(os);
  s.act_->save(os);
  engine.costs().save(os);
  engine.selector().save_state(os);

  write_pod(os, engine.rng().state());
  write_pod<std::int32_t>(os, engine.rounds_done());
  write_pod<std::int32_t>(os, s.transforms_);
  write_pod<std::int32_t>(os, s.next_model_id_);
  write_pod<std::uint8_t>(os, s.exhausted_ ? 1 : 0);

  write_pod<std::uint64_t>(os, engine.history().size());
  for (const auto& rec : engine.history()) write_record(os, rec);
  FT_CHECK_MSG(os.good(), "checkpoint write failed");
}

void load_checkpoint(FederationEngine& engine, std::istream& is) {
  FedTransStrategy& s = fedtrans_strategy(engine);
  FT_CHECK_MSG(read_pod<std::uint64_t>(is) == kCheckpointMagic,
               "not a FedTrans checkpoint");
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == kCheckpointVersion,
               "unsupported checkpoint version");
  FT_CHECK_MSG(read_pod<std::uint64_t>(is) == s.cfg_.seed,
               "checkpoint was written with a different seed");
  FT_CHECK_MSG(read_pod<std::uint32_t>(is) == engine.fleet().size(),
               "checkpoint was written with a different fleet");

  const auto n_models = read_pod<std::uint32_t>(is);
  FT_CHECK_MSG(n_models >= 1, "checkpoint holds no models");
  s.models_.clear();
  for (std::uint32_t i = 0; i < n_models; ++i) {
    ModelEntry e;
    e.id = read_pod<std::int32_t>(is);
    e.created_round = read_pod<std::int32_t>(is);
    e.model = std::make_unique<Model>(load_model(is));
    e.opt = make_server_opt(s.cfg_.server_opt);
    e.opt->load_state(is);
    s.models_.push_back(std::move(e));
  }

  s.cm_->load(is);
  FT_CHECK_MSG(s.cm_->num_models() == static_cast<int>(n_models),
               "checkpoint client-manager/model count mismatch");
  s.doc_.load(is);
  s.act_ = std::make_unique<ActivenessTracker>(
      s.models_.back().model->num_cells(), s.cfg_.act_window);
  s.act_->load(is);
  engine.costs_mutable().load(is);
  engine.selector().load_state(is);

  engine.rng().set_state(read_pod<std::array<std::uint64_t, 4>>(is));
  engine.set_rounds_done(read_pod<std::int32_t>(is));
  s.transforms_ = read_pod<std::int32_t>(is);
  s.next_model_id_ = read_pod<std::int32_t>(is);
  s.exhausted_ = read_pod<std::uint8_t>(is) != 0;

  // A record is at least its fixed fields plus an empty client list's
  // count; a history count the remaining bytes cannot hold is corrupt and
  // fails here, before anything is reserved for it.
  constexpr std::uint64_t kMinRecordBytes =
      5 * sizeof(std::int32_t) + 5 * sizeof(double) + sizeof(std::uint64_t);
  const auto n_hist = read_pod<std::uint64_t>(is);
  FT_CHECK_MSG(n_hist <= stream_remaining(is) / kMinRecordBytes,
               "checkpoint history count " << n_hist
                                           << " exceeds the remaining bytes");
  auto& history = engine.history_mutable();
  history.clear();
  history.reserve(static_cast<std::size_t>(n_hist));
  for (std::uint64_t i = 0; i < n_hist; ++i)
    history.push_back(read_record(is));
}

}  // namespace fedtrans
