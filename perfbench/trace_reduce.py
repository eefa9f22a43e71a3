#!/usr/bin/env python3
"""Trace reducer: turns the driver's span dump into the per-layer table.

    python3 perfbench/trace_reduce.py TRACE.tsv WORKLOAD

The dump (written by hfq_perfbench --trace 1, format in trace.h) holds one
line per span, per value measured inside an op, and per run-wide count.
Ops are the trees rooted at spans named "op" (serve also has "update" roots:
not ops, but part of the stream's wall time). A span's self time is its
duration minus the time its children cover. Setup spans have op -1.

Prints every per-layer metric of README.md's table, the tracing overhead
(traced minus untraced stream wall time), and the self-time check: for each
op, the self times of every span that carries its op id (the replay, which
runs outside the op, excluded) sum to the op's wall time as the driver
measured it, within the measured tracing overhead (up to 1% of ops may miss
that), and no span has a negative self time.
"""

import collections
import statistics
import sys


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 1] (the driver's definition)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(-(-p * len(ordered) // 1))))
    return ordered[rank - 1]


def mean(values):
    return statistics.fmean(values) if values else 0.0


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "children_us")

    def __init__(self, name, op, parent, start, end):
        self.name, self.op, self.parent = name, op, parent
        self.start, self.end = start, end
        self.children_us = 0.0

    @property
    def duration_us(self):
        return self.end - self.start

    @property
    def self_us(self):
        return self.duration_us - self.children_us


class Layers:
    """Per-layer numbers of one traced run."""

    def __init__(self):
        self.rows = []           # (metric, value, unit, note) for the table
        self.json = {}           # metric -> (value, unit)
        self.failed = 0          # self-time check violations

    def add(self, metric, value, unit, note="", json_metric=False):
        self.rows.append((metric, value, unit, note))
        if json_metric:
            self.json[metric] = (value, unit)

    def json_metrics(self):
        return dict(self.json)


def load(path):
    spans, values, counts = [], collections.defaultdict(list), {}
    with open(path) as f:
        for line in f:
            kind, rest = line[0], line.rstrip("\n").split("\t")[1:]
            if kind == "S":
                name, op, parent, start, end = rest
                spans.append(Span(name, int(op), int(parent), float(start),
                                  float(end)))
            elif kind == "V":
                name, op, value = rest
                values[name].append((int(op), float(value)))
            elif kind == "C":
                counts[rest[0]] = float(rest[1])
    for span in spans:
        if span.parent >= 0:
            spans[span.parent].children_us += span.duration_us
    return spans, values, counts


# Layer of each span name, for the share of stream time spent in each layer.
LAYER_OF = {
    "sql.parse": "sql",
    "exec.execute": "exec",
    "core.evaluate": "core",
    "rl.refine": "rl",
    "serve.update": "serve",
    "op": "driver",
    "update": "driver",
}
SHARE_LAYERS = ("sql", "serve", "search", "exec", "optimizer", "core", "rl",
                "driver")


def reduce_file(path, workload):
    spans, values, counts = load(path)
    layers = Layers()
    by_name = collections.defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def durations_ms(name, predicate=lambda s: True):
        return [s.duration_us / 1e3 for s in by_name.get(name, ())
                if predicate(s)]

    def total_s(name):
        return sum(durations_ms(name)) / 1e3

    def value_list(name):
        return [v for _, v in values.get(name, ())]

    # --- Setup (the traced setup only).
    setup = lambda s: s.op == -1  # noqa: E731
    for metric, name in (("storage.build_s", "storage.build"),
                         ("core.train_s", "core.train"),
                         ("rl.teacher_s", "rl.teacher"),
                         ("driver.warmup_s", "driver.warmup")):
        layers.add(metric, total_s(name), "s", json_metric=True)
    publish = durations_ms("serve.publish", setup)
    if publish:
        layers.add("serve.publish_ms", sum(publish), "ms")
    for metric, name in (("optimizer.reference_s", "optimizer.reference"),
                         ("exec.reference_s", "exec.reference")):
        calls = durations_ms(name, setup)
        if calls:
            layers.add(metric, sum(calls) / 1e3, "s", "%d calls" % len(calls))

    # --- Ops.
    ops = [s for s in spans if s.name == "op"]
    updates = [s for s in spans if s.name == "update"]
    stream_us = sum(s.duration_us for s in ops + updates)

    parse_op = durations_ms("sql.parse", lambda s: s.op >= 0)
    parse_all = durations_ms("sql.parse")
    layers.add("sql.parse_ms", mean(parse_all), "ms",
               "mean of %d calls (%d in ops)" % (len(parse_all),
                                                 len(parse_op)),
               json_metric=True)

    planning = value_list("search.planning_ms")
    layers.add("search.planning_ms", mean(planning), "ms",
               "mean of %d learned plans" % len(planning), json_metric=True)

    plan_spans = [s for s in spans if s.name.startswith("serve.plan")]
    if plan_spans:
        plan_ms = [s.duration_us / 1e3 for s in plan_spans]
        layers.add("serve.plan_ms.p50", percentile(plan_ms, 0.5), "ms",
                   "n=%d" % len(plan_ms))
        layers.add("serve.plan_ms.p99", percentile(plan_ms, 0.99), "ms",
                   "n=%d" % len(plan_ms))
        planning_by_op = dict(values.get("search.planning_ms", ()))
        cold = [s for s in plan_spans if s.name != "serve.plan.hit"]
        overhead = [s.duration_us / 1e3 - planning_by_op[s.op] for s in cold
                    if s.op in planning_by_op]
        layers.add("serve.overhead_ms", mean(overhead), "ms",
                   "mean over %d cold plans" % len(overhead))
        hits_us = [s.duration_us for s in plan_spans
                   if s.name == "serve.plan.hit"]
        if workload == "serve":
            layers.add("serve.hit_us.p50", percentile(hits_us, 0.5), "us",
                       "n=%d" % len(hits_us))
            layers.add("serve.hit_us.p99", percentile(hits_us, 0.99), "us",
                       "n=%d" % len(hits_us))
        for tier in ("greedy", "beam-4"):
            tier_ms = durations_ms("serve.plan." + tier)
            if tier_ms:
                layers.add("serve.cold_ms." + tier, percentile(tier_ms, 0.5),
                           "ms", "p50, n=%d, mean %.4f" % (len(tier_ms),
                                                          mean(tier_ms)))
        layers.add("serve.hit_rate", len(hits_us) / len(plan_spans), "ratio",
                   "%d of %d requests" % (len(hits_us), len(plan_spans)),
                   json_metric=True)
    else:
        layers.add("serve.hit_rate", 0.0, "ratio", "no plan server",
                   json_metric=True)
    layers.add("serve.stale_misses", counts.get("serve.stale_misses", 0.0),
               "count", "during the stream", json_metric=True)
    layers.add("serve.evictions", counts.get("serve.evictions", 0.0),
               "count", "during the stream", json_metric=True)

    updates_ms = durations_ms("serve.update")
    if updates_ms:
        refine_ms = durations_ms("rl.refine")
        layers.add("serve.update_ms", mean(updates_ms), "ms",
                   "mean of %d" % len(updates_ms))
        layers.add("rl.refine_ms", mean(refine_ms), "ms",
                   "mean of %d; publishing is the rest" % len(refine_ms))

    exec_ms = durations_ms("exec.execute")
    rows = sum(value_list("exec.rows"))
    cap_trips = len(values.get("exec.cap_trip", ()))
    if exec_ms:
        layers.add("exec.execute_ms.p50", percentile(exec_ms, 0.5), "ms",
                   "n=%d" % len(exec_ms))
        layers.add("exec.execute_ms.p99", percentile(exec_ms, 0.99), "ms",
                   "n=%d" % len(exec_ms))
        layers.add("exec.rows_per_s", rows / (sum(exec_ms) / 1e3), "rows/s")
    layers.add("exec.rows", rows, "count", "sum of node_output_rows",
               json_metric=True)
    layers.add("exec.cap_trips", float(cap_trips), "count", json_metric=True)

    replays = durations_ms("replay.search")
    nn_ms = value_list("nn.forward_ms")
    layers.add("nn.forward_ms", mean(nn_ms), "ms",
               "mean per replayed plan, n=%d" % len(nn_ms), json_metric=True)
    layers.add("search.env_ms", mean(replays) - mean(nn_ms), "ms",
               "search minus nn, per replayed plan", json_metric=True)
    for metric in ("nn.forward_calls", "nn.forward_rows", "search.rollouts"):
        layers.add(metric, mean(value_list(metric)), "count",
                   "mean per replayed plan", json_metric=True)

    evaluate = durations_ms("core.evaluate")
    if evaluate:
        dp = value_list("optimizer.dp_ms")
        geqo = value_list("optimizer.geqo_ms")
        layers.add("core.evaluate_ms", mean(evaluate), "ms",
                   "mean of %d" % len(evaluate))
        layers.add("optimizer.dp_ms", mean(dp), "ms")
        layers.add("optimizer.geqo_ms", mean(geqo), "ms")
        layers.add("core.evaluate_other_ms",
                   mean(evaluate) - mean(planning) - mean(dp) - mean(geqo),
                   "ms", "evaluate minus the three planners")

    # --- Share of stream time per layer, from self times. Planning time
    # the server or EvaluateOnEnv report is carved out of their spans.
    share_us = collections.Counter()
    for span in spans:
        if span.op == -1 or span.name == "replay.search":
            continue
        if span.name.startswith("serve.plan"):
            share_us["serve"] += span.self_us
        else:
            share_us[LAYER_OF.get(span.name, "driver")] += span.self_us
    planning_us = sum(planning) * 1e3
    carve_from = "core" if evaluate else "serve"
    share_us[carve_from] -= planning_us
    share_us["search"] += planning_us
    if evaluate:
        optimizer_us = (sum(value_list("optimizer.dp_ms")) +
                        sum(value_list("optimizer.geqo_ms"))) * 1e3
        share_us["core"] -= optimizer_us
        share_us["optimizer"] += optimizer_us
    for layer in SHARE_LAYERS:
        layers.add("share.%s_pct" % layer,
                   100.0 * share_us[layer] / stream_us if stream_us else 0.0,
                   "%", json_metric=True)

    # --- Tracing overhead and the self-time check.
    untraced = counts.get("untraced.wall_ms", 0.0)
    traced = counts.get("traced.wall_ms", 0.0)
    n_ops = max(1, len(ops))
    overhead_pct = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
    overhead_ms = (traced - untraced) / n_ops
    layers.add("trace.overhead_pct", overhead_pct, "%",
               "traced %.1f ms vs untraced %.1f ms of stream" % (traced,
                                                                 untraced),
               json_metric=True)
    layers.add("trace.overhead_ms_per_op", overhead_ms, "ms")
    # Every span that carries an op's id (the replay, which runs outside the
    # op, excluded) must lie in the op's tree, so that their self times sum
    # to the op span's duration, and no span may have a negative self time
    # (1 us covers the dump's rounding). The sum must also match the wall
    # time the driver measured around the op span, within the tracing
    # overhead; a preemption between the two clock reads breaks that for a
    # few ops, so up to 1% of ops may miss it.
    self_sum_us = collections.Counter()
    for span in spans:
        if span.op >= 0 and span.name != "replay.search":
            self_sum_us[span.op] += span.self_us
    outside = sum(1 for s in ops
                  if abs(self_sum_us[s.op] - s.duration_us) > 1.0)
    negative = sum(1 for s in spans if s.self_us < -1.0)
    wall_by_op = dict(values.get("op.wall_ms", ()))
    gaps = [wall_by_op[s.op] - self_sum_us[s.op] / 1e3
            for s in ops if s.op in wall_by_op]
    tolerance = max(overhead_ms, 0.0) + 0.005
    late = sum(1 for gap in gaps if abs(gap) > tolerance)
    layers.add("trace.self_sum_gap_ms", max((abs(g) for g in gaps),
                                            default=0.0), "ms",
               "max over %d ops; tolerance %.4f ms, %d above (1%% allowed); "
               "%d ops with spans outside, %d negative self times" % (
                   len(gaps), tolerance, late, outside, negative))
    layers.failed = outside + negative + (late if late > len(gaps) // 100
                                          else 0)
    return layers


def print_table(layers, workload):
    print("per-layer (%s, traced run):" % workload)
    for metric, value, unit, note in layers.rows:
        print("  %-26s %14.4f %-6s %s" % (metric, value, unit, note))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    layers = reduce_file(sys.argv[1], sys.argv[2])
    print_table(layers, sys.argv[2])


if __name__ == "__main__":
    main()
