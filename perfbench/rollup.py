#!/usr/bin/env python3
"""Roll up a wall-clock Chrome trace written by `trace_export_json_file`.

Standard library only. Reports, per timed round, the inclusive time of each
traced span summed over every thread that ran it, call counts, and GFLOP/s
of the GEMM kernels computed from their `macs` arguments.

    python3 perfbench/rollup.py trace.json --rounds 100 --threads 2
    python3 perfbench/rollup.py trace.json --rounds 100 --spans   # raw table

Self time (a span minus the part its children cover) is deliberately not
computed: wall spans carry no thread id in the export (every event lands on
tid 0, because the RAII span never sets TraceEvent::track), so spans from
different worker threads interleave on one track and "children" of a span
may have run on another thread. `--self` checks for that interleaving and
refuses when it finds it.
"""

import argparse
import json
import sys

# Per-layer metric -> the (category, span name) pairs it sums.
SPAN_MS = {
    "nn.conv2d_fwd_ms": [("kernel", "conv2d_fwd")],
    "nn.conv2d_bwd_ms": [("kernel", "conv2d_bwd")],
    "nn.grouped_conv2d_fwd_ms": [("kernel", "grouped_conv2d_fwd")],
    "nn.grouped_conv2d_bwd_ms": [("kernel", "grouped_conv2d_bwd")],
    "tensor.gemm_ms": [("kernel", "gemm")],
    "tensor.gemm_half_ms": [("kernel", "gemm_half")],
    "fl.round_ms": [("engine", "round")],
    "fl.select_ms": [("engine", "select")],
    "fl.exchange_ms": [("engine", "exchange")],
    "fl.aggregate_ms": [("engine", "aggregate")],
    "fl.eval_ms": [("engine", "eval")],
    "net.server.exchange_ms": [("server", "exchange")],
    # broadcast_sharded (and the routing below) runs inside broadcast.
    "net.server.broadcast_ms": [("server", "broadcast")],
    "net.server.route_ms": [("server", "route_tiers_down"),
                            ("server", "fan_out_shards")],
    "net.server.poll_agents_ms": [("server", "poll_agents")],
    "net.server.collect_ms": [("server", "collect"),
                              ("server", "collect_sharded")],
    "net.server.partial_merge_ms": [("server", "partial_merge")],
    "net.server.async_exchange_ms": [("server", "async_exchange")],
    "net.client.poll_ms": [("client", "poll")],
}

# GEMM kernels whose spans carry a `macs` argument.
GEMMS = {"tensor.gemm": ("kernel", "gemm"),
         "tensor.gemm_half": ("kernel", "gemm_half")}


class CrossThreadSpans(Exception):
    """Spans of different threads share one track; self time is undefined."""


def load_spans(path):
    """The complete ("X") events of a Chrome trace file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]


def totals(spans):
    """{(cat, name): [inclusive_us, calls, macs]} over all threads."""
    out = {}
    for e in spans:
        t = out.setdefault((e.get("cat", ""), e["name"]), [0.0, 0, 0.0])
        t[0] += float(e["dur"])
        t[1] += 1
        t[2] += float(e.get("args", {}).get("macs", 0.0))
    return out


def self_times(spans):
    """Exclusive time per (cat, name), valid only when every track holds
    properly nested spans of a single thread. Raises CrossThreadSpans on the
    first partial overlap, which can only come from two threads."""
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e.get("tid", 0), []).append(e)
    out = {}

    def close(frame):
        _, key, dur, child = frame
        out[key] = out.get(key, 0.0) + dur - child

    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
        stack = []  # open spans: [end_us, key, dur_us, child_us]
        for e in evs:
            ts, dur = float(e["ts"]), float(e["dur"])
            while stack and stack[-1][0] <= ts:
                close(stack.pop())
            if stack and ts + dur > stack[-1][0] + 1e-3:
                raise CrossThreadSpans(
                    f"tid {tid}: span {e['name']!r} at {ts:.3f} us "
                    f"overlaps {stack[-1][1][1]!r} without nesting")
            if stack:
                stack[-1][3] += dur
            stack.append([ts + dur, (e.get("cat", ""), e["name"]), dur, 0.0])
        while stack:
            close(stack.pop())
    return out


def layer_metrics(spans, rounds, threads):
    """Per-round per-layer metrics derived from the spans."""
    tot = totals(spans)

    def sum_us(pairs):
        return sum(tot.get(p, [0.0, 0, 0.0])[0] for p in pairs)

    m = {name: sum_us(pairs) / 1e3 / rounds for name, pairs in SPAN_MS.items()}
    for prefix, key in GEMMS.items():
        us, calls, macs = tot.get(key, [0.0, 0, 0.0])
        m[prefix + "_calls"] = calls / rounds
        m[prefix + "_gmacs"] = macs / 1e9 / rounds
        m[prefix + "_gflops"] = 2.0 * macs / (us * 1e3) if us > 0 else 0.0
    poll_agents = m["net.server.poll_agents_ms"]
    # Waiting: the share of the pool's thread time inside poll_agents that
    # clients spent polling (the rest is pool threads waiting for work).
    m["net.pool_busy_frac"] = (m["net.client.poll_ms"] /
                               (threads * poll_agents)
                               if poll_agents > 0 else 0.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--rounds", type=int, required=True,
                    help="timed rounds the trace covers")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--spans", action="store_true",
                    help="print every span's inclusive ms/round and calls")
    ap.add_argument("--self", dest="self_time", action="store_true",
                    help="also compute self time (refused on wall traces "
                         "whose tracks mix threads)")
    a = ap.parse_args()
    spans = load_spans(a.trace)
    if a.self_time:
        try:
            st = self_times(spans)
        except CrossThreadSpans as err:
            print(f"rollup: refusing self time: {err}", file=sys.stderr)
            return 3
        for (cat, name), us in sorted(st.items()):
            print(f"self {cat}/{name}: {us / 1e3 / a.rounds:.4f} ms/round")
    if a.spans:
        for (cat, name), (us, calls, _) in sorted(totals(spans).items()):
            print(f"{cat}/{name}: {us / 1e3 / a.rounds:.4f} ms/round, "
                  f"{calls / a.rounds:.2f} calls/round")
    else:
        print(json.dumps(layer_metrics(spans, a.rounds, a.threads),
                         sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
