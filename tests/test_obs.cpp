// Observability tests: (1) wall spans nest correctly and per-thread
// buffers merge into one export; (2) the virtual-clock export is an exact,
// byte-stable golden independent of recording order/thread; (3) the
// metrics registry merges per-thread shards without losing increments and
// buckets values onto the shared log2 ladder correctly; (4) JSON and
// Prometheus expositions are byte-exact goldens; (5) a fabric run's
// registry snapshot reconciles exactly with CostMeter / FabricStats and
// the transport-level histograms tie out against the frame counters;
// (6) enabling tracing (virtual mode) does not perturb a chaos fabric run
// bitwise, across seeds and thread counts; (7) with tracing compiled in
// but disabled, span/metric sites allocate nothing and record nothing;
// (8) CostMeter caps its raw client-time samples while keeping exact
// whole-run statistics, and checkpoints round-trip the capped form;
// (9) wall spans export on the tid of the thread that recorded them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "fl/metrics.hpp"
#include "fl/runner.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"

namespace {

// Allocation counter for the disabled-mode zero-cost check. Counting every
// global new in the binary is coarse but exact: a delta of zero across the
// measured loop proves the disabled span/metric sites never allocate.
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// The replacement allocator intentionally pairs malloc/free across the
// new/delete overloads; the diagnostic cannot see the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The nothrow forms (std::get_temporary_buffer, used by std::stable_sort)
// must come from the same allocator as the delete that frees them.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace fedtrans {
namespace {

DatasetConfig tiny_data(int clients = 12) {
  DatasetConfig cfg;
  cfg.num_classes = 4;
  cfg.channels = 1;
  cfg.hw = 8;
  cfg.num_clients = clients;
  cfg.mean_train_samples = 16;
  cfg.min_train_samples = 10;
  cfg.eval_samples = 8;
  cfg.noise = 0.35;
  cfg.seed = 17;
  return cfg;
}

std::vector<DeviceProfile> tiny_fleet(int n, std::uint64_t seed = 9) {
  FleetConfig cfg;
  cfg.num_devices = n;
  cfg.seed = seed;
  cfg.with_median_capacity(5e6);
  return sample_fleet(cfg);
}

ModelSpec tiny_model() { return ModelSpec::conv(1, 8, 4, 4, {6, 8}); }

FlRunConfig base_cfg(std::uint64_t seed) {
  FlRunConfig cfg;
  cfg.rounds = 3;
  cfg.clients_per_round = 4;
  cfg.local.steps = 3;
  cfg.local.batch = 6;
  cfg.eval_every = 2;
  cfg.eval_clients = 6;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(FedAvgRunner& a, FedAvgRunner& b) {
  auto wa = a.model().weights();
  auto wb = b.model().weights();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i)
    EXPECT_EQ(testing::max_abs_diff(wa[i], wb[i]), 0.0) << "tensor " << i;
  ASSERT_EQ(a.history().size(), b.history().size());
  for (std::size_t r = 0; r < a.history().size(); ++r) {
    EXPECT_EQ(a.history()[r].avg_loss, b.history()[r].avg_loss) << r;
    EXPECT_EQ(a.history()[r].round_time_s, b.history()[r].round_time_s) << r;
    EXPECT_EQ(a.history()[r].participants, b.history()[r].participants) << r;
    EXPECT_EQ(a.history()[r].lost_updates, b.history()[r].lost_updates) << r;
    EXPECT_EQ(a.history()[r].leaf_failovers, b.history()[r].leaf_failovers)
        << r;
  }
  EXPECT_EQ(a.costs().total_macs(), b.costs().total_macs());
  EXPECT_EQ(a.costs().network_bytes(), b.costs().network_bytes());
}

/// Extract (ts, dur) of the first exported event with this name.
bool find_event(const std::string& json, const std::string& name, double* ts,
                double* dur) {
  const std::string key = "\"name\":\"" + name + "\",\"ts\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return false;
  const char* p = json.c_str() + pos + key.size();
  char* end = nullptr;
  *ts = std::strtod(p, &end);
  const char* d = std::strstr(end, "\"dur\":");
  if (d == nullptr) return false;
  *dur = std::strtod(d + 6, nullptr);
  return true;
}

// Span-recording tests only exist when the macros are compiled in; a
// -DFEDTRANS_TRACE_DISABLED=ON build turns every span site into a no-op
// (which TraceTest.DisabledModeRecordsNothingAndAllocatesNothing still
// covers).
#ifndef FEDTRANS_TRACE_DISABLED

TEST(TraceTest, WallSpansNestAndThreadBuffersMerge) {
  trace_clear();
  trace_start(TraceClock::Wall);
  {
    FT_SPAN("test", "outer");
    FT_SPAN("test", "inner");
    // inner closes before outer (reverse construction order), so the
    // exported spans must nest: inner inside [outer.ts, outer.ts + dur].
  }
  const int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) FT_SPAN("test", "worker");
    });
  for (auto& w : workers) w.join();
  trace_stop();

  EXPECT_EQ(trace_event_count(),
            static_cast<std::size_t>(2 + kThreads * kPerThread));
  EXPECT_EQ(trace_dropped_count(), 0u);

  std::ostringstream os;
  EXPECT_EQ(trace_export_json(os), trace_event_count());
  const std::string json = os.str();
  double ots = 0, odur = 0, its = 0, idur = 0;
  ASSERT_TRUE(find_event(json, "outer", &ots, &odur));
  ASSERT_TRUE(find_event(json, "inner", &its, &idur));
  EXPECT_LE(ots, its);
  EXPECT_LE(its + idur, ots + odur);
  trace_clear();
  EXPECT_EQ(trace_event_count(), 0u);
}

// Wall spans carry the recording thread's track, so spans of concurrent
// threads land on separate tids and nesting (hence self time) is per
// thread.
TEST(TraceTest, WallSpansExportOnTheirThreadsTid) {
  trace_clear();
  trace_start(TraceClock::Wall);
  std::int32_t tracks[2] = {-1, -1};
  for (int t = 0; t < 2; ++t) {
    std::thread([&tracks, t] {
      FT_SPAN("test", "per_thread");
      tracks[t] = trace_thread_track();
    }).join();
  }
  trace_stop();
  ASSERT_NE(tracks[0], tracks[1]);

  std::ostringstream os;
  ASSERT_EQ(trace_export_json(os), 2u);
  const std::string json = os.str();
  for (std::int32_t track : tracks) {
    const std::string span = "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                             std::to_string(track) +
                             ",\"cat\":\"test\",\"name\":\"per_thread\"";
    EXPECT_NE(json.find(span), std::string::npos) << json;
  }
  trace_clear();
}

TEST(TraceTest, VirtualExportIsAByteStableGolden) {
  trace_clear();
  trace_start(TraceClock::Virtual);
  // Deliberately recorded out of timestamp order and across two threads:
  // the export must sort and serialize identically regardless.
  FT_VSPAN("net", "frame", 2.0, 1.0, kTrackRoot);
  FT_VSPAN_ARG("client", "train", 1.0, 2.5, kTrackClients + 3, "task", 7);
  std::thread([] { FT_VSPAN("engine", "round", 0.0, 4.0, kTrackEngine); })
      .join();
  trace_stop();

  std::ostringstream os;
  EXPECT_EQ(trace_export_json(os), 3u);
  EXPECT_EQ(
      os.str(),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"engine\"}},"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"server/root\"}},"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":100003,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"client 3\"}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"cat\":\"engine\","
      "\"name\":\"round\",\"ts\":0,\"dur\":4000000},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":100003,\"cat\":\"client\","
      "\"name\":\"train\",\"ts\":1000000,\"dur\":2500000,"
      "\"args\":{\"task\":7}},"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"net\","
      "\"name\":\"frame\",\"ts\":2000000,\"dur\":1000000}"
      "]}\n");
  trace_clear();
}

#endif  // FEDTRANS_TRACE_DISABLED

TEST(TraceTest, EndpointTrackMapping) {
  EXPECT_EQ(track_of_endpoint(-1), kTrackRoot);
  EXPECT_EQ(track_of_endpoint(0), kTrackClients);
  EXPECT_EQ(track_of_endpoint(17), kTrackClients + 17);
  EXPECT_EQ(track_of_endpoint(-2), kTrackAggregators);
  EXPECT_EQ(track_of_endpoint(-5), kTrackAggregators + 3);
}

TEST(MetricsTest, ShardedCountersMergeExactly) {
  MetricsRegistry::global().reset();
  static Counter c("fedtrans_test_merge_total");
  const int kThreads = 4, kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("fedtrans_test_merge_total"),
            static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsTest, HistogramBucketsOnTheLog2Ladder) {
  MetricsRegistry::global().reset();
  static Histogram h("fedtrans_test_ladder_seconds");
  h.observe(0.75);  // -> le 1 (smallest power of two >= v)
  h.observe(1.0);   // exact power of two -> its own inclusive bucket, le 1
  h.observe(3.0);   // -> le 4
  h.observe(1e-9);  // below the ladder -> first bucket
  h.observe(2e12);  // above the ladder -> +Inf
  auto snap = MetricsRegistry::global().snapshot();
  const HistogramSnapshot& hs =
      snap.histograms.at("fedtrans_test_ladder_seconds");
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.75 + 1.0 + 3.0 + 1e-9 + 2e12);
  EXPECT_EQ(hs.min, 1e-9);
  EXPECT_EQ(hs.max, 2e12);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < hs.bucket_le.size(); ++b) {
    total += hs.bucket_count[b];
    if (hs.bucket_le[b] == 1.0) {
      EXPECT_EQ(hs.bucket_count[b], 2u);
    }
    if (hs.bucket_le[b] == 4.0) {
      EXPECT_EQ(hs.bucket_count[b], 1u);
    }
  }
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(hs.bucket_count.front(), 1u);  // 1e-9
  EXPECT_EQ(hs.bucket_count.back(), 1u);   // 2e12 -> +Inf
}

TEST(MetricsTest, JsonAndPrometheusExpositionGoldens) {
  // Hand-built snapshot: the serializer goldens must not depend on which
  // instruments other tests (or the library) happened to register.
  MetricsSnapshot snap;
  snap.counters["fedtrans_test_events_total"] = 3;
  snap.gauges["fedtrans_test_gauge"] = 7.5;
  HistogramSnapshot h;
  h.bucket_le = {0.5, 1.0, 2.0,
                 std::numeric_limits<double>::infinity()};
  h.bucket_count = {0, 1, 0, 2};
  h.count = 3;
  h.sum = 12.5;
  h.min = 0.75;
  h.max = 3.0;
  snap.histograms["fedtrans_test_seconds"] = h;

  EXPECT_EQ(snap.to_json(),
            "{\"counters\":{\"fedtrans_test_events_total\":3},"
            "\"gauges\":{\"fedtrans_test_gauge\":7.5},"
            "\"histograms\":{\"fedtrans_test_seconds\":"
            "{\"count\":3,\"sum\":12.5,\"min\":0.75,\"max\":3,"
            "\"buckets\":[[1,1],[\"+Inf\",2]]}}}");
  EXPECT_EQ(snap.to_prometheus(),
            "# TYPE fedtrans_test_events_total counter\n"
            "fedtrans_test_events_total 3\n"
            "# TYPE fedtrans_test_gauge gauge\n"
            "fedtrans_test_gauge 7.5\n"
            "# TYPE fedtrans_test_seconds histogram\n"
            "fedtrans_test_seconds_bucket{le=\"1\"} 1\n"
            "fedtrans_test_seconds_bucket{le=\"+Inf\"} 3\n"
            "fedtrans_test_seconds_sum 12.5\n"
            "fedtrans_test_seconds_count 3\n");
}

TEST(MetricsTest, FabricRunReconcilesWithCostMeterAndFabricStats) {
  MetricsRegistry::global().reset();
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  Rng rng(3);
  Model init(tiny_model(), rng);

  FlRunConfig cfg = base_cfg(11);
  cfg.use_fabric = true;
  cfg.fabric_faults.drop_prob = 0.05;
  cfg.fabric_faults.dup_prob = 0.03;
  cfg.fabric_faults.seed = 77;
  FedAvgRunner b(init, data, fleet, cfg);
  b.run();
  ASSERT_NE(b.fabric(), nullptr);
  const FabricStats& st = b.fabric()->stats();

  auto& reg = MetricsRegistry::global();
  reg.export_cost_meter(b.costs());
  reg.export_fabric_stats(st);
  auto snap = reg.snapshot();

  // Legacy structs re-export verbatim: the registry view must reconcile
  // with every CostMeter / FabricStats field exactly.
  EXPECT_EQ(snap.counters.at("fedtrans_cost_training_macs_total"),
            b.costs().total_macs());
  EXPECT_EQ(snap.counters.at("fedtrans_cost_bytes_down_total"),
            b.costs().bytes_down());
  EXPECT_EQ(snap.counters.at("fedtrans_cost_bytes_up_total"),
            b.costs().bytes_up());
  EXPECT_EQ(snap.gauges.at("fedtrans_cost_storage_peak_bytes"),
            b.costs().storage_bytes());
  const auto fab = [&snap](const char* name) {
    return snap.counters.at(name);
  };
  EXPECT_EQ(fab("fedtrans_fabric_frames_sent_total"),
            static_cast<double>(st.frames_sent.load()));
  EXPECT_EQ(fab("fedtrans_fabric_frames_delivered_total"),
            static_cast<double>(st.frames_delivered.load()));
  EXPECT_EQ(fab("fedtrans_fabric_frames_dropped_total"),
            static_cast<double>(st.frames_dropped.load()));
  EXPECT_EQ(fab("fedtrans_fabric_frames_duplicated_total"),
            static_cast<double>(st.frames_duplicated.load()));
  EXPECT_EQ(fab("fedtrans_fabric_bytes_sent_total"),
            static_cast<double>(st.bytes_sent.load()));
  EXPECT_EQ(fab("fedtrans_fabric_bytes_delivered_total"),
            static_cast<double>(st.bytes_delivered.load()));
  EXPECT_EQ(fab("fedtrans_fabric_frames_retried_total"),
            static_cast<double>(st.frames_retried.load()));
  EXPECT_EQ(fab("fedtrans_fabric_bytes_root_in_total"),
            static_cast<double>(st.bytes_root_in.load()));

  // The transport's own histograms tie out against the frame counters:
  // every send observes its frame size (drops included); every accepted
  // send observes the receiving mailbox depth once.
  const auto& frames = snap.histograms.at("fedtrans_frame_bytes");
  EXPECT_EQ(frames.count, st.frames_sent.load());
  EXPECT_EQ(frames.sum, static_cast<double>(st.bytes_sent.load()));
  const auto& depth = snap.histograms.at("fedtrans_mailbox_depth");
  EXPECT_EQ(depth.count, st.frames_sent.load() - st.frames_dropped.load());

  // Per-client train-time histogram mirrors CostMeter's sample stream.
  const auto& tt = snap.histograms.at("fedtrans_client_train_time_seconds");
  EXPECT_EQ(tt.count, b.costs().client_time_count());

  EXPECT_EQ(snap.counters.at("fedtrans_engine_rounds_total"),
            static_cast<double>(cfg.rounds));
}

TEST(TraceTest, VirtualTracingDoesNotPerturbChaosRunsBitwise) {
  auto data = FederatedDataset::generate(tiny_data());
  auto fleet = tiny_fleet(data.num_clients());
  const int prev_threads = ThreadPool::global().size();

  for (std::uint64_t seed : {11ULL, 42ULL}) {
    Rng rng(3 + seed);
    Model init(tiny_model(), rng);
    for (int threads : {1, 4}) {
      ThreadPool::set_global_threads(threads);
      FlRunConfig cfg = base_cfg(seed);
      cfg.use_fabric = true;
      cfg.topology.levels = 3;
      cfg.topology.shards = 4;
      cfg.fabric_faults.drop_prob = 0.05;
      cfg.fabric_faults.dup_prob = 0.03;
      cfg.fabric_faults.reorder_prob = 0.05;
      cfg.fabric_faults.leaf_death_prob = 0.1;
      cfg.fabric_faults.seed = 77;

      FedAvgRunner a(init, data, fleet, cfg);
      a.run();

      trace_clear();
      trace_start(TraceClock::Virtual);
      FedAvgRunner b(init, data, fleet, cfg);
      b.run();
      trace_stop();
#ifndef FEDTRANS_TRACE_DISABLED
      EXPECT_GT(trace_event_count(), 0u)
          << "virtual tracing recorded nothing on a fabric run";
#endif
      trace_clear();

      expect_identical(a, b);
    }
  }
  ThreadPool::set_global_threads(prev_threads);
}

TEST(TraceTest, DisabledModeRecordsNothingAndAllocatesNothing) {
  trace_stop();  // the CI tracing leg autostarts via FEDTRANS_TRACE=1
  trace_clear();
  ASSERT_FALSE(trace_enabled());
  // Prime the thread-local metric shard so the measured loop exercises the
  // steady-state path (first write registers the shard, which allocates).
  static Counter c("fedtrans_test_disabled_total");
  static Histogram h("fedtrans_test_disabled_seconds");
  c.inc();
  h.observe(1.0);

  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 10000; ++i) {
    FT_SPAN("test", "disabled");
    FT_SPAN_ARG("test", "disabled_arg", "i", i);
    FT_VSPAN("test", "disabled_v", 1.0, 1.0, kTrackEngine);
    c.inc();
    h.observe(static_cast<double>(i));
  }
  const std::uint64_t after = g_allocs.load();
  EXPECT_EQ(after - before, 0u)
      << "disabled tracing / metric updates must not allocate";
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(CostMeterTest, ClientTimeSamplesCapWithExactRunningStats) {
  CostMeter m;
  const std::size_t n = CostMeter::kMaxClientTimeSamples + 904;  // 5000
  double sum = 0.0, sumsq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 0.5 + 0.001 * static_cast<double>(i % 97);
    m.add_client_round_time(s);
    sum += s;
    sumsq += s * s;
  }
  EXPECT_EQ(m.client_times_s().size(), CostMeter::kMaxClientTimeSamples);
  EXPECT_EQ(m.client_time_count(), n);
  const double mean = sum / static_cast<double>(n);
  EXPECT_DOUBLE_EQ(m.client_time_mean(), mean);
  const double var = sumsq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(m.client_time_std(), std::sqrt(var), 1e-12);

  // Checkpoint round-trip preserves both the capped raw samples and the
  // exact running statistics.
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  m.save(buf);
  CostMeter r;
  r.load(buf);
  EXPECT_EQ(r.client_times_s(), m.client_times_s());
  EXPECT_EQ(r.client_time_count(), m.client_time_count());
  EXPECT_EQ(r.client_time_mean(), m.client_time_mean());
  EXPECT_EQ(r.client_time_std(), m.client_time_std());
  EXPECT_EQ(r.total_macs(), m.total_macs());
}

TEST(CostMeterTest, StdMatchesStatsHelperBelowTheCap) {
  CostMeter m;
  for (double s : {1.0, 2.0, 4.0, 5.0}) m.add_client_round_time(s);
  EXPECT_DOUBLE_EQ(m.client_time_mean(), mean(m.client_times_s()));
  EXPECT_NEAR(m.client_time_std(), stddev(m.client_times_s()), 1e-12);
}

}  // namespace
}  // namespace fedtrans
