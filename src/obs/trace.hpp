#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fedtrans {

/// Lightweight structured tracing: spans recorded into per-thread buffers
/// and exported as Chrome `trace_event` JSON, loadable in Perfetto /
/// chrome://tracing. Two clock modes:
///
///   Wall     spans time the host execution (steady_clock, microseconds) —
///            the profiling view. `FT_SPAN("cat", "name")` is a scoped RAII
///            span on the current thread; tracks are physical threads.
///   Virtual  events are stamped with the *simulated* clock (seconds on the
///            SimTransport timeline) via `FT_VSPAN(...)` — frame transfers,
///            client train windows, round envelopes. Tracks are semantic
///            (endpoint / round), not physical threads, so the exported
///            trace is a deterministic function of the session: re-running
///            the same config yields a byte-identical file regardless of
///            the thread schedule. Wall-only RAII spans are skipped in this
///            mode (their durations are schedule-dependent).
///
/// Cost model: tracing is compiled out entirely under
/// -DFEDTRANS_TRACE_DISABLED; compiled in but disabled (the default at
/// runtime), every span macro is one relaxed atomic load and no
/// allocation. Enabled, a span is a thread-local bump append (~tens of ns).
/// Enable at runtime with trace_start(), or from the environment:
/// FEDTRANS_TRACE=1 (wall) / FEDTRANS_TRACE=virtual; with
/// FEDTRANS_TRACE_OUT=<path> the merged trace is written there at process
/// exit (or at trace_export_env(), whichever comes first).
enum class TraceClock : int { Wall = 0, Virtual = 1 };

/// One complete event ("ph":"X"). `name`/`cat`/`arg_name` must be string
/// literals (or otherwise outlive the tracer) — events store the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name = nullptr;  ///< optional numeric payload, e.g. bytes
  double ts_us = 0.0;              ///< start, microseconds on the trace clock
  double dur_us = 0.0;
  double arg_val = 0.0;
  std::int32_t track = 0;  ///< wall: thread index; virtual: semantic track
};

/// Semantic track ids of the virtual timeline (exported as Perfetto
/// "thread" lanes with readable names). Client endpoints map to
/// kTrackClients + client id; aggregators to kTrackAggregators + index.
inline constexpr std::int32_t kTrackEngine = 0;
inline constexpr std::int32_t kTrackRoot = 1;
inline constexpr std::int32_t kTrackAggregators = 100;
inline constexpr std::int32_t kTrackClients = 100000;

/// Track of a fabric endpoint id (wire.hpp convention: -1 = root server,
/// >= 0 = client c, <= -2 = aggregator -2 - k).
inline std::int32_t track_of_endpoint(std::int32_t endpoint) {
  if (endpoint == -1) return kTrackRoot;
  if (endpoint >= 0) return kTrackClients + endpoint;
  return kTrackAggregators + (-endpoint - 2);
}

// ---- runtime control --------------------------------------------------------

/// 0 = off, 1 = wall, 2 = virtual — one relaxed load on every span site.
extern std::atomic<int> g_trace_mode;

inline bool trace_enabled() {
  return g_trace_mode.load(std::memory_order_relaxed) != 0;
}
inline bool trace_wall_on() {
  return g_trace_mode.load(std::memory_order_relaxed) == 1;
}
inline bool trace_virtual_on() {
  return g_trace_mode.load(std::memory_order_relaxed) == 2;
}

void trace_start(TraceClock clock);
void trace_stop();
/// Drop every buffered event (buffers stay registered with their threads).
void trace_clear();
/// Events currently buffered across all threads (post-merge count).
std::size_t trace_event_count();
/// Events dropped because a thread buffer hit its cap.
std::uint64_t trace_dropped_count();

/// Microseconds on the wall trace clock (steady, process-relative).
double trace_now_us();

/// Append one event to the calling thread's buffer (enabled mode only —
/// callers go through the macros, which check the mode first).
void trace_record(const TraceEvent& ev);
/// Wall-clock track of the calling thread: its buffer's registration index.
std::int32_t trace_thread_track();

/// Merge every thread's buffer and write Chrome trace_event JSON. Events
/// are stably sorted by (ts, track, name) and virtual-mode tracks carry
/// thread_name metadata, so a virtual-mode export is deterministic for a
/// given session. Returns the number of events written.
std::size_t trace_export_json(std::ostream& os);
std::size_t trace_export_json_file(const std::string& path);
/// If FEDTRANS_TRACE_OUT is set and tracing is active, export there now
/// (also installed as an atexit hook by the env autostart).
void trace_export_env();

namespace detail {
/// RAII wall-clock span: records [construction, destruction) on the
/// current thread's track. A no-op unless wall tracing is on at entry.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name) {
    if (trace_wall_on()) {
      cat_ = cat;
      name_ = name;
      start_us_ = trace_now_us();
    }
  }
  ScopedSpan(const char* cat, const char* name, const char* arg_name,
             double arg_val)
      : ScopedSpan(cat, name) {
    arg_name_ = arg_name;
    arg_val_ = arg_val;
  }
  ~ScopedSpan() {
    if (name_ == nullptr || !trace_wall_on()) return;
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.ts_us = start_us_;
    ev.dur_us = trace_now_us() - start_us_;
    ev.arg_name = arg_name_;
    ev.arg_val = arg_val_;
    ev.track = trace_thread_track();
    trace_record(ev);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  double start_us_ = 0.0;
  double arg_val_ = 0.0;
};

/// Complete event on the virtual (simulated-seconds) timeline.
inline void vspan(const char* cat, const char* name, double start_s,
                  double dur_s, std::int32_t track,
                  const char* arg_name = nullptr, double arg_val = 0.0) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = start_s * 1e6;
  ev.dur_us = dur_s * 1e6;
  ev.track = track;
  ev.arg_name = arg_name;
  ev.arg_val = arg_val;
  trace_record(ev);
}
}  // namespace detail

#ifndef FEDTRANS_TRACE_DISABLED

#define FT_TRACE_CONCAT2(a, b) a##b
#define FT_TRACE_CONCAT(a, b) FT_TRACE_CONCAT2(a, b)

/// Scoped wall-clock span over the enclosing block.
#define FT_SPAN(cat_, name_)                                  \
  ::fedtrans::detail::ScopedSpan FT_TRACE_CONCAT(ft_span_,    \
                                                 __LINE__) {  \
    cat_, name_                                               \
  }
/// Scoped wall-clock span carrying one numeric argument.
#define FT_SPAN_ARG(cat_, name_, arg_name_, arg_val_)         \
  ::fedtrans::detail::ScopedSpan FT_TRACE_CONCAT(ft_span_,    \
                                                 __LINE__) {  \
    cat_, name_, arg_name_, static_cast<double>(arg_val_)     \
  }
/// Complete event on the virtual timeline (simulated seconds + track).
#define FT_VSPAN(cat_, name_, start_s_, dur_s_, track_)                 \
  do {                                                                  \
    if (::fedtrans::trace_virtual_on())                                 \
      ::fedtrans::detail::vspan(cat_, name_, start_s_, dur_s_, track_); \
  } while (0)
#define FT_VSPAN_ARG(cat_, name_, start_s_, dur_s_, track_, arg_name_,  \
                     arg_val_)                                          \
  do {                                                                  \
    if (::fedtrans::trace_virtual_on())                                 \
      ::fedtrans::detail::vspan(cat_, name_, start_s_, dur_s_, track_,  \
                                arg_name_,                              \
                                static_cast<double>(arg_val_));         \
  } while (0)

#else  // FEDTRANS_TRACE_DISABLED: spans compile to nothing.

#define FT_SPAN(cat_, name_) \
  do {                       \
  } while (0)
#define FT_SPAN_ARG(cat_, name_, arg_name_, arg_val_) \
  do {                                                \
  } while (0)
#define FT_VSPAN(cat_, name_, start_s_, dur_s_, track_) \
  do {                                                  \
  } while (0)
#define FT_VSPAN_ARG(cat_, name_, start_s_, dur_s_, track_, arg_name_, \
                     arg_val_)                                         \
  do {                                                                 \
  } while (0)

#endif  // FEDTRANS_TRACE_DISABLED

}  // namespace fedtrans
