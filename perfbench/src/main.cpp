// perfbench — one measured run of a named workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Phases of a run:
//   1. self-checks on short sessions: a decorated session must be bitwise
//      identical to an undecorated one, and an undecorated one at 1 thread
//      to one at kThreads;
//   2. warm-up: short throwaway sessions for kWarmupS of wall time (the
//      first second of a process after an idle gap can run rounds several
//      times slower than steady state);
//   3. measured sessions, one per kSessionS of --seconds: session k runs
//      the workload built from sub-seed k of --seed, set up afresh (timed —
//      set-up) and run for every round. Rotating sub-seeds averages each
//      run over several data sets, so one seed's unusual data (FedTrans
//      growing its family early, say) moves a run's figures less.
//      With --trace 1 one more session, of sub-seed 0, is recorded with
//      wall-clock tracing and exported to --trace-out.
// The last line of stdout is one JSON object with the raw numbers; run.py
// turns it into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fedtrans;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pool size of every measured session: half the cores of the shared 4-core
/// host the workloads were sized on (there, fedavg-pop-tree's p90 ranged
/// 47% over 8 runs at 4 threads against 30% over 10 runs at 2).
constexpr int kThreads = 2;
/// Set-ups timed per run, counting those of the measured sessions. At
/// 8-25 ms each, forty add under a second and steady their median.
constexpr int kSetups = 40;
/// Wall time of throwaway sessions run before anything is timed.
constexpr double kWarmupS = 1.0;
/// Nominal wall time of one measured session; --seconds / kSessionS
/// sessions make a run, so the work a run measures does not depend on
/// how fast the program is.
constexpr double kSessionS = 4.0;

/// Seed of a run's k-th session.
std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return seed * 64 + static_cast<std::uint64_t>(k);
}

/// Linear-interpolated quantile (numpy's default; q = 0.5 is the median).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Everything a session computes that a faster program must reproduce
/// exactly: per-round loss / accuracy / billing, final costs, final
/// accuracy and the trained weights.
struct Fingerprint {
  std::vector<double> loss, accuracy, cum_macs;
  std::vector<int> participants, lost;
  double network_bytes = 0.0;
  double macs = 0.0;
  double storage_bytes = 0.0;
  double final_accuracy = 0.0;
  std::uint64_t weights_hash = 0;

  bool operator==(const Fingerprint& o) const {
    return same_bits(loss, o.loss) && same_bits(accuracy, o.accuracy) &&
           same_bits(cum_macs, o.cum_macs) && participants == o.participants &&
           lost == o.lost && same_bits(network_bytes, o.network_bytes) &&
           same_bits(macs, o.macs) &&
           same_bits(storage_bytes, o.storage_bytes) &&
           same_bits(final_accuracy, o.final_accuracy) &&
           weights_hash == o.weights_hash;
  }
};

std::uint64_t hash_weights(const std::vector<Tensor>& ws, std::uint64_t h) {
  for (const Tensor& t : ws) {
    const auto* p = reinterpret_cast<const unsigned char*>(t.data());
    const std::size_t n = static_cast<std::size_t>(t.numel()) * sizeof(float);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Final accuracy of a finished session: FedTrans's deployment evaluation
/// (every client on its best compatible model), otherwise the mean of the
/// last three accuracy probes.
double final_accuracy(Session& s) {
  if (s.fedtrans != nullptr) return s.fedtrans->evaluate_final().mean_accuracy;
  std::vector<double> probes;
  for (const RoundRecord& r : s.engine->history())
    if (r.accuracy >= 0.0) probes.push_back(r.accuracy);
  const std::size_t k = std::min<std::size_t>(3, probes.size());
  double sum = 0.0;
  for (std::size_t i = probes.size() - k; i < probes.size(); ++i)
    sum += probes[i];
  return k > 0 ? sum / static_cast<double>(k) : 0.0;
}

Fingerprint fingerprint(Session& s, double final_acc) {
  Fingerprint f;
  for (const RoundRecord& r : s.engine->history()) {
    f.loss.push_back(r.avg_loss);
    f.accuracy.push_back(r.accuracy);
    f.cum_macs.push_back(r.cum_macs);
    f.participants.push_back(r.participants);
    f.lost.push_back(r.lost_updates);
  }
  const CostMeter& c = s.engine->costs();
  f.network_bytes = c.network_bytes();
  f.macs = c.total_macs();
  f.storage_bytes = c.storage_bytes();
  f.final_accuracy = final_acc;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (s.fedtrans != nullptr) {
    for (int i = 0; i < s.fedtrans->num_models(); ++i)
      h = hash_weights(s.fedtrans->model(i).weights(), h);
  } else {
    h = hash_weights(s.algo->shared_model()->weights(), h);
  }
  f.weights_hash = h;
  return f;
}

/// A short session, decorated or not; returns its fingerprint.
Fingerprint run_short(const WorkloadSpec& w, std::uint64_t seed,
                      bool decorated) {
  SessionMeters meters;
  auto s = build_session(w, seed, w.check_rounds,
                         decorated ? &meters : nullptr);
  s->engine->run();
  return fingerprint(*s, final_accuracy(*s));
}

/// Result of one measured session.
struct SessionResult {
  std::vector<double> round_s;
  double wall_s = 0.0;
  bool reached = false;  ///< false: the target figures are censored
  int rounds_to_target = 0;
  double time_to_target_s = 0.0;
  int num_classes = 0;
  Fingerprint fp;
  std::int64_t attempted = 0;
  std::int64_t absorbed = 0;
  std::int64_t lost = 0;
  std::string gate_error;  ///< first per-round gate violation, if any
  // Fabric and cohort-pool counters at session end.
  double frames_sent = 0.0, bytes_sent = 0.0, bytes_root_in = 0.0;
  double frames_rejected = 0.0;
  double materializations = 0.0, pool_hits = 0.0, resident_bytes = 0.0;
};

/// Per-round observation of a running session: wall time per round (or per
/// shipped server version), the target crossing, and the per-round gate.
struct RoundLog {
  double t0 = 0.0, last = 0.0;
  double target = 0.0;
  std::vector<double> probes;
  SessionResult* out = nullptr;
  SessionMeters* meters = nullptr;
  bool async = false;
  int buffer_size = 0;

  void on_round_end(const RoundRecord& rec) {
    const double t = now_s();
    out->round_s.push_back(t - last);
    last = t;
    const int rounds = static_cast<int>(out->round_s.size());
    std::ostringstream err;
    if (!std::isfinite(rec.avg_loss))
      err << "round " << rounds << ": non-finite loss " << rec.avg_loss;
    if (async) {
      const int absorbed = meters->strategy.async_since_ship.exchange(0);
      out->absorbed += absorbed;
      out->lost += rec.lost_updates;
      out->attempted += absorbed + rec.lost_updates;
      if (absorbed != buffer_size)
        err << "version " << rounds << ": " << absorbed
            << " updates folded, buffer holds " << buffer_size;
    } else {
      const int tasks = meters->strategy.last_tasks.load();
      out->absorbed += rec.participants;
      out->lost += rec.lost_updates;
      out->attempted += tasks;
      if (rec.participants + rec.lost_updates != tasks)
        err << "round " << rounds << ": participants " << rec.participants
            << " + lost " << rec.lost_updates << " != tasks " << tasks;
    }
    if (out->gate_error.empty()) out->gate_error = err.str();
    if (rec.accuracy >= 0.0) {
      probes.push_back(rec.accuracy);
      const std::size_t n = probes.size();
      if (!out->reached && n >= 3 &&
          (probes[n - 1] + probes[n - 2] + probes[n - 3]) / 3.0 >= target) {
        out->reached = true;
        out->rounds_to_target = rounds;
        out->time_to_target_s = t - t0;
      }
    }
  }
};

SessionResult run_measured(Session& s, SessionMeters& meters,
                           const WorkloadSpec& w) {
  SessionResult res;
  auto log = std::make_shared<RoundLog>();
  log->target = w.target;
  log->out = &res;
  log->meters = &meters;
  log->async = s.async;
  log->buffer_size = s.buffer_size;
  s.engine->on_round([log](const RoundRecord& rec) { log->on_round_end(rec); });
  meters.reset();
  log->t0 = log->last = now_s();
  s.engine->run();
  res.wall_s = now_s() - log->t0;
  log->out = nullptr;
  res.num_classes = s.num_classes;
  if (!res.reached) {  // censored at the session's end
    res.rounds_to_target = static_cast<int>(res.round_s.size());
    res.time_to_target_s = res.wall_s;
  }
  res.fp = fingerprint(s, final_accuracy(s));
  if (const FederationServer* f = s.engine->fabric()) {
    const FabricStats& st = f->stats();
    res.frames_sent = static_cast<double>(st.frames_sent.load());
    res.bytes_sent = static_cast<double>(st.bytes_sent.load());
    res.bytes_root_in = static_cast<double>(st.bytes_root_in.load());
    res.frames_rejected = static_cast<double>(st.frames_rejected.load());
  }
  if (CohortPool* pool = s.pool()) {
    res.materializations = static_cast<double>(pool->materializations());
    res.pool_hits = static_cast<double>(pool->hits());
    res.resident_bytes = static_cast<double>(pool->resident_bytes());
  }
  return res;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 28.0;
  bool trace = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v != "0";
    else if (a == "--trace-out") o.trace_out = v;
    else throw std::invalid_argument("unknown option " + a);
  }
  if (find_workload(o.workload) == nullptr)
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (o.trace && o.trace_out.empty())
    throw std::invalid_argument("--trace 1 needs --trace-out");
  return o;
}

/// Flat JSON object writer (numbers with all their digits). A non-finite
/// number is written as null and remembered, so the run can fail on it.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    if (!std::isfinite(v)) {
      non_finite_.push_back(k);
      return raw(k, "null");
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  JsonObject& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    return raw(k, q + "\"");
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }
  const std::vector<std::string>& non_finite() const { return non_finite_; }

 private:
  std::string body_;
  std::vector<std::string> non_finite_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

int run(const Options& o) {
  const WorkloadSpec& w = *find_workload(o.workload);
  auto say = [&](const std::string& msg) {
    std::cerr << "[perfbench " << w.name << " seed " << o.seed << "] " << msg
              << "\n";
  };
  ThreadPool::set_global_threads(kThreads);

  // 1. Self-checks. They also start warming the process up.
  const std::uint64_t seed0 = sub_seed(o.seed, 0);
  const Fingerprint decorated = run_short(w, seed0, true);
  const Fingerprint plain = run_short(w, seed0, false);
  ThreadPool::set_global_threads(1);
  const Fingerprint one_thread = run_short(w, seed0, false);
  ThreadPool::set_global_threads(kThreads);
  std::map<std::string, bool> checks;
  checks["decorated_bitwise"] = decorated == plain;
  checks["thread_count_bitwise"] = plain == one_thread;

  // 2. Warm-up.
  const double warm0 = now_s();
  int warm_sessions = 0;
  while (now_s() - warm0 < kWarmupS) {
    run_short(w, seed0, true);
    ++warm_sessions;
  }
  say("checks done, warm-up " + std::to_string(warm_sessions) + " sessions");

  // 3. Measured sessions, each set up afresh. Extra set-ups of the same
  // sub-seed before each session give setup_s a median of kSetups samples,
  // spread over the whole run so one short host hiccup cannot set it.
  const int sessions =
      std::max(1, static_cast<int>(std::lround(o.seconds / kSessionS)));
  SessionMeters meters;
  std::vector<double> setup_s;
  auto timed_build = [&](int k) {
    const double t0 = now_s();
    auto s = build_session(w, sub_seed(o.seed, k), w.rounds, &meters);
    setup_s.push_back(now_s() - t0);
    return s;
  };
  const int extra = std::max(0, kSetups - sessions);

  std::vector<SessionResult> results;
  double rss_mb = 0.0;
  for (int k = 0; k < sessions; ++k) {
    for (int i = k * extra / sessions; i < (k + 1) * extra / sessions; ++i)
      timed_build(k);
    auto s = timed_build(k);
    results.push_back(run_measured(*s, meters, w));
    // Read after sub-seed 0 only: the peak is process-wide and monotone,
    // and a later sub-seed whose FedTrans family grows wide would set it.
    if (k == 0) rss_mb = peak_rss_mb();
    const SessionResult& r = results.back();
    std::ostringstream msg;
    msg << "session " << k << ": " << r.wall_s << " s, target "
        << (r.reached ? "reached" : "missed") << " at round "
        << r.rounds_to_target << ", probes";
    for (double a : r.fp.accuracy)
      if (a >= 0.0) msg << ' ' << std::round(a * 100.0) / 100.0;
    say(msg.str());
  }

  // Every figure is the median over the sessions of that session's value,
  // so one sub-seed's unusual data (a wide FedTrans family) cannot set it.
  std::vector<double> p50, p90, ups, ttt, rtt, acc, net_mb, gmacs, storage_mb;
  std::int64_t timed_rounds = 0, attempted = 0, lost = 0;
  bool gates_ok = true, above_chance = true;
  double rejected = 0.0;
  for (const SessionResult& r : results) {
    p50.push_back(quantile(r.round_s, 0.5));
    p90.push_back(quantile(r.round_s, 0.9));
    ups.push_back(static_cast<double>(r.absorbed) / r.wall_s);
    ttt.push_back(r.time_to_target_s);
    rtt.push_back(r.rounds_to_target);
    acc.push_back(r.fp.final_accuracy);
    net_mb.push_back(r.fp.network_bytes / (1024.0 * 1024.0));
    gmacs.push_back(r.fp.macs * 1e-9);
    storage_mb.push_back(r.fp.storage_bytes / (1024.0 * 1024.0));
    timed_rounds += static_cast<std::int64_t>(r.round_s.size());
    attempted += r.attempted;
    lost += r.lost;
    rejected += r.frames_rejected;
    if (!r.gate_error.empty()) {
      gates_ok = false;
      say("gate: " + r.gate_error);
    }
    above_chance = above_chance &&
                   r.fp.final_accuracy > 1.0 / static_cast<double>(r.num_classes);
  }
  const SessionResult& first = results.front();
  checks["round_gates"] = gates_ok;
  checks["no_rejected_frames"] = rejected == 0.0;
  checks["above_chance"] = above_chance;

  JsonObject e2e;
  e2e.num("setup_s", quantile(setup_s, 0.5))
      .num("round_s_p50", quantile(p50, 0.5))
      .num("round_s_p90", quantile(p90, 0.5))
      .num("updates_per_s", quantile(ups, 0.5))
      .num("time_to_target_s", quantile(ttt, 0.5))
      .num("rounds_to_target", quantile(rtt, 0.5))
      .num("final_accuracy", quantile(acc, 0.5))
      .num("network_mb", quantile(net_mb, 0.5))
      .num("train_gmacs", quantile(gmacs, 0.5))
      .num("storage_mb", quantile(storage_mb, 0.5))
      .num("peak_rss_mb", rss_mb);

  JsonObject layer;
  if (o.trace) {
    // One more session of sub-seed 0, recorded with wall-clock tracing.
    auto s = build_session(w, seed0, w.rounds, &meters);
    trace_clear();
    trace_start(TraceClock::Wall);
    SessionResult traced = run_measured(*s, meters, w);
    trace_stop();
    const double dropped = static_cast<double>(trace_dropped_count());
    const double events = static_cast<double>(trace_event_count());
    trace_export_json_file(o.trace_out);
    trace_clear();
    checks["trace_complete"] = dropped == 0.0;
    checks["traced_bitwise"] = traced.fp == first.fp;
    if (!traced.gate_error.empty()) {
      checks["round_gates"] = false;
      say("gate: " + traced.gate_error);
    }
    checks["no_rejected_frames"] =
        checks["no_rejected_frames"] && traced.frames_rejected == 0.0;

    const double n = static_cast<double>(traced.round_s.size());
    const StrategyMeters& sm = meters.strategy;
    const std::pair<const char*, const HookMeter*> hooks[] = {
        {"plan", &sm.plan},       {"prepare", &sm.prepare},
        {"payload", &sm.payload}, {"absorb", &sm.absorb},
        {"finish", &sm.finish},   {"probe", &sm.probe},
        {"absorb_async", &sm.absorb_async}};
    for (const auto& [name, m] : hooks) {
      layer.num(std::string("fl.strategy.") + name + "_ms", m->ms() / n);
      layer.num(std::string("fl.strategy.") + name + "_calls",
                static_cast<double>(m->calls.load()) / n);
    }
    const double pool_gets = traced.materializations + traced.pool_hits;
    layer.num("pop.select_ms", meters.select.ms() / n)
        .num("data.client_ms", meters.data.ms() / n)
        .num("data.client_calls", static_cast<double>(meters.data.calls) / n)
        .num("pop.materializations", traced.materializations / n)
        .num("pop.pool_hit_frac",
             pool_gets > 0.0 ? traced.pool_hits / pool_gets : 0.0)
        .num("pop.resident_bytes", traced.resident_bytes)
        .num("net.frames_per_round", traced.frames_sent / n)
        .num("net.bytes_per_round", traced.bytes_sent / n)
        .num("net.root_in_bytes_per_round", traced.bytes_root_in / n)
        .num("net.frames_rejected", traced.frames_rejected)
        .num("obs.trace_overhead_frac",
             quantile(traced.round_s, 0.5) / quantile(first.round_s, 0.5) -
                 1.0)
        .num("obs.trace_dropped_events", dropped)
        .num("obs.trace_events", events)
        .num("failed_update_frac",
             traced.attempted > 0 ? static_cast<double>(traced.lost) /
                                        static_cast<double>(traced.attempted)
                                  : 0.0);
    layer.num("traced_rounds", n);
  }

  std::vector<std::string> non_finite = e2e.non_finite();
  non_finite.insert(non_finite.end(), layer.non_finite().begin(),
                    layer.non_finite().end());
  for (const std::string& k : non_finite) say("non-finite metric " + k);
  checks["finite_metrics"] = non_finite.empty();

  bool correct = true;
  JsonObject checks_json;
  for (const auto& [name, ok] : checks) {
    checks_json.boolean(name, ok);
    if (!ok) {
      correct = false;
      say("check failed: " + name);
    }
  }
  JsonObject out;
  out.str("workload", w.name)
      .num("seed", static_cast<double>(o.seed))
      .num("threads", kThreads)
      .boolean("correct", correct)
      .raw("checks", checks_json.done())
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(lost))
      .num("sessions", static_cast<double>(results.size()))
      .num("timed_rounds", static_cast<double>(timed_rounds))
      .num("setup_samples", static_cast<double>(setup_s.size()))
      .raw("end_to_end", e2e.done())
      .raw("per_layer", layer.done());
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
