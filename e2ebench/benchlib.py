"""Helpers of the end-to-end benchmark: statistics, output checks, span
arithmetic, and the end-to-end and per-layer metrics derived from the
raw measurement document sixg_e2ebench writes. Pure functions of their inputs, so
test_benchlib.py can pin each one on a fixed input.
"""

import statistics

# Figure 2 of the paper: the lowest and highest per-cell mean round trip
# measured in the Klagenfurt drive test (61 ms at C1, 110 ms at C3).
PAPER_MIN_CELL_MS = 61.0
PAPER_MAX_CELL_MS = 110.0

INVARIANCE_ANCHOR = "worker-count invariance"


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def fastest(ops, field="wall_s"):
    """The fastest of a phase's calls. Every call of a phase repeats the
    same simulation, so the calls differ only by what the host adds: on a
    shared host a call runs either alone or beside a neighbour's load, and
    the share of slowed calls drifts from run to run. The median follows
    that share; the fastest call measures the program. A phase makes a
    fixed number of calls, so a faster program does not get a lower
    minimum from more samples."""
    return min(op[field] for op in ops)


def call_wall(ops):
    """Host seconds of one call of a phase: the fastest call, and for
    suite passes the sum of each scenario's fastest run over the passes
    (a pass lasts seconds, so whole passes rarely all run alone; the sum
    is the pass time of a pass in which every scenario ran alone)."""
    if "scenarios" not in ops[0]:
        return fastest(ops)
    runs = {}
    for op in ops:
        for scenario in op["scenarios"]:
            runs.setdefault(scenario["name"], []).append(scenario["wall_s"])
    return sum(min(walls) for walls in runs.values())


def ratio(numerator, denominator):
    """numerator / denominator, and 0 when there is nothing to divide by
    (a layer the workload does not use)."""
    return numerator / denominator if denominator else 0.0


def rtl_err_ms(replicas):
    """Mean absolute error of fig2's min/max cell means against the
    paper's anchors, averaged over (min_ms, max_ms) replica pairs."""
    errors = [(abs(lo - PAPER_MIN_CELL_MS) + abs(hi - PAPER_MAX_CELL_MS)) / 2
              for lo, hi in replicas]
    return sum(errors) / len(errors)


# ---------------------------------------------------------- output checks

def conservation_violations(summary):
    """Broken conservation laws of one fleet report summary: every
    offered request settles once (delivered + failed = offered), per
    class too, and the servers completed at least what was delivered."""
    problems = []
    offered = summary["offered"]
    delivered = summary["delivered"]
    failed = summary["failed"]
    if delivered + failed != offered:
        problems.append(f"delivered {delivered} + failed {failed} != "
                        f"offered {offered}")
    classes = summary.get("classes", [])
    for cls in classes:
        if cls["delivered"] + cls["failed"] != cls["offered"]:
            problems.append(f"class {cls['name']}: delivered "
                            f"{cls['delivered']} + failed {cls['failed']} "
                            f"!= offered {cls['offered']}")
    if classes and sum(c["offered"] for c in classes) != offered:
        problems.append("class offers do not sum to the fleet's")
    if summary["server_completed"] < delivered:
        problems.append(f"server completions {summary['server_completed']}"
                        f" < delivered {delivered}")
    return problems


def check_run(doc):
    """Count the operations of one run and the ones that failed.
    An operation is one study or scenario call; it fails when it threw
    or its output breaks a check. Returns (attempted, failed, problems).
    """
    problems = []
    attempted = 0
    suite = doc["manifest"]["workload"] == "paper-suite"
    warmup = doc["warmup"][0]
    timed = doc["ops"] + doc["traced_ops"]

    if suite:
        reference = {s["name"]: s["digest"] for s in warmup["scenarios"]}
        for op in [warmup] + timed:
            for scenario in op["scenarios"]:
                attempted += 1
                name = scenario["name"]
                why = scenario_problem(scenario, reference[name])
                if why:
                    problems.append(f"{name}: {why}")
    else:
        for op in [warmup] + timed:
            attempted += 1
            why = fleet_op_problem(op, warmup.get("digest"))
            if why:
                problems.append(why)

    attempted += doc["rtl_attempted"]
    problems += [f"fig2 replica: {e}" for e in doc["rtl_errors"]]
    return attempted, len(problems), problems


def scenario_problem(scenario, reference_digest):
    if "error" in scenario:
        return "threw " + scenario["error"]
    if scenario["digest"] != reference_digest:
        return "output differs between passes"
    for what, measured in scenario["anchors"]:
        if what.startswith(INVARIANCE_ANCHOR) and measured != 1.0:
            return "sharded digests depend on the worker count"
    return ""


def fleet_op_problem(op, reference_digest):
    if "error" in op:
        return "threw " + op["error"]
    broken = conservation_violations(op)
    if broken:
        return "; ".join(broken)
    if op["digest"] != reference_digest:
        return (f"report digest {op['digest']} != {reference_digest} of the "
                f"same config")
    return ""


# ------------------------------------------------------------------ spans

def self_times_ns(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children of one parent never overlap, since the
    measurement program records spans on one thread)."""
    covered = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent >= 0:
            lo = max(span["start_ns"], spans[parent]["start_ns"])
            hi = min(span["end_ns"], spans[parent]["end_ns"])
            covered[parent] += max(0, hi - lo)
    return [s["end_ns"] - s["start_ns"] - c for s, c in zip(spans, covered)]


def layer_table(spans):
    """Per span name: call count, total and self time in seconds."""
    table = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        row = table.setdefault(span["name"],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span["end_ns"] - span["start_ns"]) * 1e-9
        row["self_s"] += self_ns * 1e-9
    return table


def span_seconds(spans, name, under=None):
    """Durations in seconds of the spans called `name`, optionally only
    those with an ancestor called `under`."""
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        if under is not None and not has_ancestor(spans, span, under):
            continue
        out.append((span["end_ns"] - span["start_ns"]) * 1e-9)
    return out


def has_ancestor(spans, span, name):
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


# ----------------------------------------------------------- obs metrics

def first_records(metrics_doc, names):
    """The first obs record of each wanted name (a traced phase repeats
    the same call; every repeat has the same counts)."""
    seen = {}
    for record in (metrics_doc or {}).get("scenarios", []):
        if record["name"] in names and record["name"] not in seen:
            seen[record["name"]] = record
    return list(seen.values())


def counter(records, name):
    return sum(r["counters"].get(name, 0) for r in records)


def hist_mean(records, name):
    count = sum(r["histograms"].get(name, {}).get("count", 0)
                for r in records)
    total = sum(r["histograms"].get(name, {}).get("sum", 0) for r in records)
    return ratio(total, count)


def worker_seconds(records, field):
    return sum(w[field] for r in records for w in r.get("workers", [])) * 1e-9


# --------------------------------------------------------------- metrics

def offered_per_op(doc):
    """Simulated requests one operation offers: the fleet's arrivals, or
    for the suite the fleet arrivals its warm-up pass counted."""
    if doc["manifest"]["workload"] == "paper-suite":
        records = doc["warmup_metrics"]["scenarios"]
        return counter(records, "fleet.arrivals")
    return doc["ops"][0]["offered"]


def end_to_end(doc):
    wall = call_wall(doc["ops"])
    return {
        "wall_s": (wall, "s"),
        "sim_req_per_s": (offered_per_op(doc) / wall, "1/s"),
        "setup_s": (min(doc["setup_s"]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "rtl_err_ms": (rtl_err_ms(doc["rtl_replicas"]), "ms"),
    }


# Per-layer counts read straight from one obs counter.
OBS_COUNTS = {
    "netsim.events_fired": "kernel.events_fired",
    "netsim.events_scheduled": "kernel.events_scheduled",
    "netsim.timers_armed": "kernel.timers_armed",
    "netsim.timers_cancelled": "kernel.timers_cancelled",
    "edgeai.serve.batches": "serve.batches",
    "edgeai.serve.dropped": "serve.dropped",
    "edgeai.fleet.retries": "fleet.retries",
    "edgeai.fleet.hedges": "fleet.hedges",
    "edgeai.fleet.shed": "fleet.shed",
    "edgeai.fleet.timeouts": "fleet.timeouts",
    "edgeai.fleet.lost": "fleet.lost_to_crashes",
    "shard.windows": "shard.windows",
    "shard.messages": "shard.messages",
}


def median_or_zero(values):
    return median(values) if values else 0.0


def min_or_zero(values):
    return min(values) if values else 0.0


def per_layer(doc):
    suite = doc["manifest"]["workload"] == "paper-suite"
    spans = doc["spans"]
    extra = doc["extra"]
    wall = call_wall(doc["ops"])
    traced_wall = call_wall(doc["traced_ops"])
    records = first_records(doc["obs_metrics"],
                            set(doc["scenarios"]) if suite else {"traced"})
    count = {name: counter(records, obs_name)
             for name, obs_name in OBS_COUNTS.items()}

    m = {name: (value, "count") for name, value in count.items()}
    for name in doc["scenarios"]:
        m[f"core.scenario.{name}.wall_s"] = (
            min_or_zero(span_seconds(spans, "core.scenario." + name)), "s")
    lookups = extra["rule_lookups"]["lookups"]
    for mode in ("linear", "context"):
        m[f"fivegcore.lookup_host_ns.{mode}"] = (
            extra["rule_lookups"][mode]["wall_s"] * 1e9 / lookups, "ns")
    m["edgeai.fleet.run_s"] = (
        min_or_zero(span_seconds(spans, "edgeai.fleet.run",
                                    under="traced")), "s")
    m["netsim.host_ns_per_event"] = (
        ratio(wall * 1e9, count["netsim.events_fired"]), "ns")
    m["edgeai.net_leg.draw_ns"] = (
        extra["net_leg"]["wall_s"] * 1e9 / extra["net_leg"]["draws"], "ns")
    m["edgeai.serve.mean_batch"] = (hist_mean(records, "serve.batch_size"),
                                    "count")
    m["edgeai.serve.queue_depth_mean"] = (
        hist_mean(records, "serve.queue_depth"), "count")
    # The fleet engines report injector firings in the report, not through
    # the fault.events probe, so fleet workloads read the report.
    faults = (counter(records, "fault.events") if suite
              else doc["traced_ops"][0]["fault_events"])
    m["faults.events"] = (faults, "count")
    m["edgeai.fleet.useful_ratio"] = (
        ratio(counter(records, "fleet.completed"),
              counter(records, "fleet.arrivals") +
              count["edgeai.fleet.retries"] + count["edgeai.fleet.hedges"]),
        "ratio")

    busy = worker_seconds(records, "busy_ns")
    stall = worker_seconds(records, "stall_ns")
    m["shard.drain_messages_mean"] = (
        hist_mean(records, "shard.drain_messages"), "count")
    m["shard.busy_s"] = (busy, "s")
    m["shard.stall_s"] = (stall, "s")
    m["shard.stall_share"] = (ratio(stall, busy + stall), "ratio")
    m["shard.host_us_per_window"] = (
        ratio(wall * 1e6, count["shard.windows"]), "us")

    for layer in ("topo.build", "topo.compile"):
        m[layer + "_s"] = (median_or_zero(span_seconds(spans, layer)), "s")
    m["host.cpu_s"] = (fastest(doc["ops"], "cpu_s"), "s")
    m["trace.overhead_share"] = (traced_wall / wall - 1.0, "ratio")
    return m
