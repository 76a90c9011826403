#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/log.hpp"

namespace fedtrans {

std::atomic<int> g_trace_mode{0};

namespace {

// Clock of the most recent trace_start — export labels tracks by it even
// after trace_stop().
std::atomic<int> g_last_clock{1};

// Hard cap per thread buffer; past it events are counted as dropped so a
// FEDTRANS_TRACE=1 soak cannot grow without bound (~256k events * 56 B).
constexpr std::size_t kMaxEventsPerThread = 1u << 18;

struct ThreadBuffer {
  std::vector<TraceEvent> events;
  std::int32_t thread_index = 0;
};

struct TraceRegistry {
  std::mutex m;
  // Owned here (not thread_local) so buffers survive thread exit and a
  // single merge point sees every thread's events.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> dropped{0};
};

TraceRegistry& registry() {
  static TraceRegistry* reg = new TraceRegistry();  // leaked: outlive atexit
  return *reg;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    auto& reg = registry();
    std::lock_guard<std::mutex> lk(reg.m);
    raw->thread_index = static_cast<std::int32_t>(reg.buffers.size());
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

// Stable deterministic order for export: virtual-mode events from worker
// threads land in registration order otherwise, which depends on the
// schedule. (ts, track, name, dur, arg) is a total order for any trace the
// library emits.
bool event_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.track != b.track) return a.track < b.track;
  const int byname = std::strcmp(a.name, b.name);
  if (byname != 0) return byname < 0;
  if (a.dur_us != b.dur_us) return a.dur_us < b.dur_us;
  return a.arg_val < b.arg_val;
}

void json_escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    switch (*s) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << *s;
    }
  }
}

// Timestamps print as integer microseconds when exact (the virtual clock
// produces round values), else with enough digits to round-trip.
void put_us(std::ostream& os, double us) {
  const long long ll = static_cast<long long>(us);
  if (static_cast<double>(ll) == us) {
    os << ll;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", us);
    os << buf;
  }
}

std::string track_label(std::int32_t track, bool virt) {
  std::ostringstream os;
  if (!virt) {
    os << "thread " << track;
  } else if (track == kTrackEngine) {
    os << "engine";
  } else if (track == kTrackRoot) {
    os << "server/root";
  } else if (track >= kTrackClients) {
    os << "client " << (track - kTrackClients);
  } else if (track >= kTrackAggregators) {
    os << "aggregator " << (track - kTrackAggregators);
  } else {
    os << "track " << track;
  }
  return os.str();
}

}  // namespace

double trace_now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void trace_record(const TraceEvent& ev) {
  auto& buf = local_buffer();
  if (buf.events.size() >= kMaxEventsPerThread) {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(ev);
}

std::int32_t trace_thread_track() { return local_buffer().thread_index; }

void trace_start(TraceClock clock) {
  const int mode = clock == TraceClock::Virtual ? 2 : 1;
  g_last_clock.store(mode, std::memory_order_relaxed);
  g_trace_mode.store(mode, std::memory_order_relaxed);
}

void trace_stop() { g_trace_mode.store(0, std::memory_order_relaxed); }

void trace_clear() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.m);
  for (auto& buf : reg.buffers) buf->events.clear();
  reg.dropped.store(0, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lk(reg.m);
  std::size_t n = 0;
  for (const auto& buf : reg.buffers) n += buf->events.size();
  return n;
}

std::uint64_t trace_dropped_count() {
  return registry().dropped.load(std::memory_order_relaxed);
}

std::size_t trace_export_json(std::ostream& os) {
  const bool virt = g_last_clock.load(std::memory_order_relaxed) == 2;
  std::vector<TraceEvent> merged;
  std::vector<std::int32_t> tracks;
  {
    auto& reg = registry();
    std::lock_guard<std::mutex> lk(reg.m);
    for (const auto& buf : reg.buffers)
      merged.insert(merged.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(merged.begin(), merged.end(), event_less);
  for (const auto& ev : merged) tracks.push_back(ev.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Track metadata first so Perfetto shows readable lane names.
  for (std::int32_t track : tracks) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << track_label(track, virt) << "\"}}";
  }
  for (const auto& ev : merged) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << ev.track << ",\"cat\":\"";
    json_escape(os, ev.cat != nullptr ? ev.cat : "default");
    os << "\",\"name\":\"";
    json_escape(os, ev.name);
    os << "\",\"ts\":";
    put_us(os, ev.ts_us);
    os << ",\"dur\":";
    put_us(os, ev.dur_us);
    if (ev.arg_name != nullptr) {
      os << ",\"args\":{\"";
      json_escape(os, ev.arg_name);
      os << "\":" << ev.arg_val << "}";
    }
    os << "}";
  }
  os << "]}\n";
  return merged.size();
}

std::size_t trace_export_json_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace export: cannot open " + path);
  const std::size_t n = trace_export_json(out);
  const std::uint64_t dropped = trace_dropped_count();
  if (dropped != 0)
    FT_LOG_WARN("trace export dropped " << dropped
                                        << " events (buffer cap)");
  return n;
}

void trace_export_env() {
  const char* out = std::getenv("FEDTRANS_TRACE_OUT");
  if (out == nullptr || *out == '\0') return;
  if (trace_event_count() == 0) return;
  trace_export_json_file(out);
}

namespace {

// FEDTRANS_TRACE=1|wall|virtual autostarts tracing at load time; with
// FEDTRANS_TRACE_OUT the merged trace is written at process exit.
struct TraceEnvInit {
  TraceEnvInit() {
    const char* mode = std::getenv("FEDTRANS_TRACE");
    if (mode == nullptr || *mode == '\0' || std::strcmp(mode, "0") == 0)
      return;
    trace_start(std::strcmp(mode, "virtual") == 0 ? TraceClock::Virtual
                                                  : TraceClock::Wall);
    std::atexit([] { trace_export_env(); });
  }
};
const TraceEnvInit g_trace_env_init;

}  // namespace

}  // namespace fedtrans
