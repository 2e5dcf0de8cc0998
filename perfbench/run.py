#!/usr/bin/env python3
"""Repository benchmark of the airfair simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload udp_overload --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the simulator library plus the cell runner) in Release
under $CARGO_TARGET_DIR (default .bench_build), runs one workload's four
scheme cells for the given host-time budget, checks the simulated outputs,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (host time measured with no
decorators), --trace 1 the per-layer metrics (timing decorators on the
backend and qdisc seams, plus an undecorated twin of every cell).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("udp_overload", "tcp_latency", "churn_observed")
CELLS = ("fifo", "fq_codel", "fq_mac", "airtime")
CORE_CELLS = ("fq_mac", "airtime")
AQM_CELLS = ("fifo", "fq_codel")

# Timed runs cycle through this many inputs, all derived from --seed. The
# model outputs pool one run of each; host time adds up each input's median
# repeat. The closed-loop TCP cells cost less and vary more from input to
# input, so they average more inputs.
INPUTS = {"udp_overload": 2, "tcp_latency": 8, "churn_observed": 2}
# Paper oracle: under saturating UDP the airtime scheduler gives each
# backlogged station about 1/N of the airtime.
MIN_AIRTIME_JAIN = 0.9
JAIN_ORACLE_WORKLOADS = ("udp_overload", "churn_observed")

END_TO_END = {
    "sim_rate": "sim_s/s",
    "sim_rate.fifo": "sim_s/s",
    "sim_rate.fq_codel": "sim_s/s",
    "sim_rate.fq_mac": "sim_s/s",
    "sim_rate.airtime": "sim_s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model.jain.airtime": "index",
    "model.goodput_mbps.airtime": "Mbit/s",
    "model.ping_p50_ms.airtime": "ms",
    "model.ping_p99_ms.airtime": "ms",
}


def _per_layer_units():
    units = {}
    for c in CORE_CELLS:
        for op in ("enqueue_ns", "build_next_ns"):
            units[f"core.{op}.p50.{c}"] = "ns"
            units[f"core.{op}.p99.{c}"] = "ns"
        units[f"core.requeue_ns.{c}"] = "ns"
        units[f"core.account_ns.{c}"] = "ns"
        units[f"core.calls.{c}"] = "count"
        units[f"core.busy_share.{c}"] = "fraction"
        units[f"core.overflow_drops.{c}"] = "count"
        units[f"core.codel_drops.{c}"] = "count"
        units[f"core.drop_ratio.{c}"] = "fraction"
    for c in AQM_CELLS:
        units[f"aqm.enqueue_ns.p50.{c}"] = "ns"
        units[f"aqm.enqueue_ns.p99.{c}"] = "ns"
        units[f"aqm.dequeue_ns.{c}"] = "ns"
        units[f"aqm.busy_share.{c}"] = "fraction"
        units[f"aqm.overflow_drops.{c}"] = "count"
        units[f"aqm.codel_drops.{c}"] = "count"
        units[f"mac.driver_ns.{c}"] = "ns"
    units.update({
        "mac.tx": "count",
        "mac.collision_ratio": "fraction",
        "mac.mpdu_error_ratio": "fraction",
        "mac.ampdu_mean": "mpdus",
        "mac.retry_drops": "count",
        "mac.air_busy_share": "fraction",
        "sim.events": "count",
        "sim.handle_events": "count",
        "sim.tokens_created": "count",
    })
    for c in CELLS:
        units[f"sim.ns_per_event.{c}"] = "ns"
        units[f"sim.rest_share.{c}"] = "fraction"
        units[f"bench.trace_overhead.{c}"] = "fraction"
    units.update({
        "net.packets": "count",
        "net.pool_chunks": "count",
        "net.tcp_retransmits": "count",
        "net.tcp_timeouts": "count",
        "net.link_drops": "count",
        "obs.records": "count",
        "obs.overwritten": "count",
        "obs.share": "fraction",
        "fault.leaves": "count",
        "fault.joins": "count",
        "fault.drained": "count",
    })
    return units


PER_LAYER = _per_layer_units()

# The simulated outputs a cell must reproduce exactly when decorated.
FINGERPRINT_KEYS = ("events", "model_hash", "delivered_bytes", "jain", "goodput_mbps",
                    "ping_samples", "ping_p50_ms", "ping_p99_ms")
# With the program's trace off the sampler's events are missing, so only the
# model outputs are compared.
MODEL_KEYS = FINGERPRINT_KEYS[1:]


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_binary():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(build_dir, "airfair_perfbench")


def run_binary(binary, args):
    env = dict(os.environ)
    env.setdefault("AIRFAIR_THREADS", "1")
    env.setdefault("AIRFAIR_SHARDS", "1")
    proc = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(binary)} {' '.join(args)} exited with "
                         f"{proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return out[1]


def manifest(binary, args):
    record = run_binary(binary, ["--manifest"])[0]
    record.pop("kind")
    record["git_sha"] = git_sha()
    record["args"] = args
    return record


def _by_key(cells, variant):
    return {(c["iter"], c["cell"]): c for c in cells if c["variant"] == variant}


def fingerprint_diffs(twins, it, name, plain):
    """Keys in which a cell's traced twins differ from the runs they must equal.

    The decorated run equals the run with no trace of any kind; the run with
    the program's trace off equals the plain run in its model outputs."""
    diffs = {}
    untraced = twins["trace_off"].get((it, name), plain)
    decorated = twins["decorated"].get((it, name))
    if decorated is not None:
        diffs["decorated"] = [k for k in FINGERPRINT_KEYS if decorated[k] != untraced[k]]
    if untraced is not plain:
        diffs["trace_off"] = [k for k in MODEL_KEYS if untraced[k] != plain[k]]
    return diffs


def check_cells(workload, cells):
    """Returns (attempted, failed, reasons): one attempt per plain scheme cell."""
    plain = _by_key(cells, "plain")
    twins = {v: _by_key(cells, v) for v in ("decorated", "trace_off")}
    reasons = []
    failed = 0
    for (it, name), cell in sorted(plain.items()):
        why = []
        if cell["ledger_imbalance"] != 0:
            why.append(f"ledger imbalance {cell['ledger_imbalance']}")
        if (workload in JAIN_ORACLE_WORKLOADS and name == "airtime"
                and cell["jain"] < MIN_AIRTIME_JAIN):
            why.append(f"airtime Jain {cell['jain']:.3f} < {MIN_AIRTIME_JAIN}")
        if workload == "tcp_latency" and name in CORE_CELLS:
            fifo = plain[(it, "fifo")]["ping_p50_ms"]
            if not cell["ping_p50_ms"] < fifo:
                why.append(f"ping p50 {cell['ping_p50_ms']:.2f} ms not below FIFO's {fifo:.2f}")
        why += [f"{variant} run differs in {', '.join(diff)}"
                for variant, diff in fingerprint_diffs(twins, it, name, cell).items() if diff]
        if why:
            failed += 1
            reasons.append(f"iter {it} {name}: " + "; ".join(why))
    return len(plain), failed, reasons


def _median_over_iters(cells, fn):
    """Median over iterations of fn(cells of that iteration, by name)."""
    iters = sorted({c["iter"] for c in cells})
    return statistics.median(fn({c["cell"]: c for c in cells if c["iter"] == it})
                             for it in iters)


def end_to_end_metrics(lines):
    plain = [l for l in lines if l["kind"] == "cell" and l["variant"] == "plain"]
    models = {l["cell"]: l for l in lines if l["kind"] == "model"}
    setup = next(l for l in lines if l["kind"] == "setup")
    end = next(l for l in lines if l["kind"] == "end")

    repeats = {}  # (input seed, cell) -> every run of that cell on that input.
    for c in plain:
        repeats.setdefault((c["seed"], c["cell"]), []).append(c)

    def rate(groups):
        """Simulated seconds over the summed median host time of each group."""
        return (sum(g[0]["sim_s"] for g in groups)
                / sum(statistics.median(c["run_s"] for c in g) for g in groups))

    values = {"sim_rate": rate(repeats.values())}
    for name in CELLS:
        values[f"sim_rate.{name}"] = rate([g for (_, n), g in repeats.items() if n == name])
    values["setup_s"] = min(setup["setup_s"])
    values["peak_rss_mb"] = end["peak_rss_mb"]
    airtime = models["airtime"]
    values["model.jain.airtime"] = airtime["jain"]
    values["model.goodput_mbps.airtime"] = airtime["goodput_mbps"]
    values["model.ping_p50_ms.airtime"] = airtime["ping_p50_ms"]
    values["model.ping_p99_ms.airtime"] = airtime["ping_p99_ms"]
    return values


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(lines):
    cells = [l for l in lines if l["kind"] == "cell"]
    plain = [c for c in cells if c["variant"] == "plain"]
    decorated = [c for c in cells if c["variant"] == "decorated"]
    # Host time of each cell with no trace of any kind: the program's trace
    # off where the workload runs it.
    untraced = _by_key(cells, "trace_off") or _by_key(cells, "plain")
    untraced_run = {k: c["run_s"] for k, c in untraced.items()}

    def seam(cell, op):
        return cell["seams"][op]

    def backend(cell):
        ops = ("enqueue", "has_pending", "build_next", "requeue", "account", "flush")
        return (sum(seam(cell, o)["ns"] for o in ops), sum(seam(cell, o)["calls"] for o in ops))

    def qdisc_ns(cell):
        return seam(cell, "qdisc_enqueue")["ns"] + seam(cell, "qdisc_dequeue")["ns"]

    def per_call(cell, op):
        return _ratio(seam(cell, op)["ns"], seam(cell, op)["calls"])

    values = {}
    # Host-time splits: median over iterations.
    for name in CELLS:
        values[f"sim.ns_per_event.{name}"] = _median_over_iters(
            plain, lambda by: by[name]["run_s"] * 1e9 / by[name]["events"])
        values[f"sim.rest_share.{name}"] = _median_over_iters(
            decorated, lambda by: 1 - backend(by[name])[0] / (by[name]["run_s"] * 1e9))
        values[f"bench.trace_overhead.{name}"] = _median_over_iters(
            decorated,
            lambda by: by[name]["run_s"] / untraced_run[(by[name]["iter"], name)] - 1)
    for name in CORE_CELLS:
        for op in ("enqueue", "build_next"):
            values[f"core.{op}_ns.p50.{name}"] = _median_over_iters(
                decorated, lambda by: seam(by[name], op)["p50_ns"])
            values[f"core.{op}_ns.p99.{name}"] = _median_over_iters(
                decorated, lambda by: seam(by[name], op)["p99_ns"])
        values[f"core.requeue_ns.{name}"] = _median_over_iters(
            decorated, lambda by: per_call(by[name], "requeue"))
        values[f"core.account_ns.{name}"] = _median_over_iters(
            decorated, lambda by: per_call(by[name], "account"))
        values[f"core.busy_share.{name}"] = _median_over_iters(
            decorated, lambda by: backend(by[name])[0] / (by[name]["run_s"] * 1e9))
    for name in AQM_CELLS:
        values[f"aqm.enqueue_ns.p50.{name}"] = _median_over_iters(
            decorated, lambda by: seam(by[name], "qdisc_enqueue")["p50_ns"])
        values[f"aqm.enqueue_ns.p99.{name}"] = _median_over_iters(
            decorated, lambda by: seam(by[name], "qdisc_enqueue")["p99_ns"])
        values[f"aqm.dequeue_ns.{name}"] = _median_over_iters(
            decorated, lambda by: per_call(by[name], "qdisc_dequeue"))
        values[f"aqm.busy_share.{name}"] = _median_over_iters(
            decorated, lambda by: qdisc_ns(by[name]) / (by[name]["run_s"] * 1e9))
        values[f"mac.driver_ns.{name}"] = _median_over_iters(
            decorated,
            lambda by: _ratio(backend(by[name])[0] - qdisc_ns(by[name]), backend(by[name])[1]))
    values["obs.share"] = _median_over_iters(
        plain,
        lambda by: 1 - sum(untraced_run[(c["iter"], n)] for n, c in by.items())
        / sum(c["run_s"] for c in by.values()))

    # Counts: the first iteration's cells, so they depend on the seed only.
    first = {c["cell"]: c for c in plain if c["iter"] == 0}
    first_dec = {c["cell"]: c for c in decorated if c["iter"] == 0}
    for name in CORE_CELLS:
        cell, dec = first[name], first_dec[name]
        values[f"core.calls.{name}"] = backend(dec)[1]
        values[f"core.overflow_drops.{name}"] = cell["overflow_drops"]
        values[f"core.codel_drops.{name}"] = cell["codel_drops"]
        values[f"core.drop_ratio.{name}"] = _ratio(
            cell["overflow_drops"] + cell["codel_drops"], seam(dec, "enqueue")["calls"])
    for name in AQM_CELLS:
        values[f"aqm.overflow_drops.{name}"] = first[name]["overflow_drops"]
        values[f"aqm.codel_drops.{name}"] = first[name]["codel_drops"]

    def total(key):
        return sum(c[key] for c in first.values())

    values.update({
        "mac.tx": total("mac_tx"),
        "mac.collision_ratio": _ratio(total("mac_collisions"), total("mac_tx")),
        "mac.mpdu_error_ratio": _ratio(total("mac_mpdu_errors"), total("mac_tx")),
        "mac.ampdu_mean": _ratio(total("ampdu_mpdus"), total("ampdu_count")),
        "mac.retry_drops": total("retry_drops"),
        "mac.air_busy_share": _ratio(total("air_busy_s"), total("sim_s")),
        "sim.events": total("events"),
        "sim.handle_events": total("scheduled") - total("detached"),
        "sim.tokens_created": total("tokens_created"),
        "net.packets": total("packets"),
        "net.pool_chunks": total("pool_chunks"),
        "net.tcp_retransmits": total("tcp_retransmits"),
        "net.tcp_timeouts": total("tcp_timeouts"),
        "net.link_drops": total("link_drops"),
        "obs.records": total("obs_records"),
        "obs.overwritten": total("obs_overwritten"),
        "fault.leaves": total("fault_leaves"),
        "fault.joins": total("fault_joins"),
        "fault.drained": total("drained"),
    })
    return values


def run_workload(binary, workload, seed, seconds, trace, sim_scale=1.0):
    """Runs one workload; returns (result dict, lines)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--mode", "traced" if trace else "timed",
            "--inputs", "1" if trace else str(INPUTS[workload]),
            "--sim-scale", str(sim_scale)]
    print("manifest " + json.dumps(manifest(binary, args)), flush=True)
    lines = run_binary(binary, args)
    cells = [l for l in lines if l["kind"] == "cell"]
    for c in cells:
        print(f"fingerprint {workload} iter={c['iter']} seed={c['seed']} cell={c['cell']} "
              f"variant={c['variant']} events={c['events']} model={c['model_hash']}")
    for l in lines:
        if l["kind"] == "model":
            print(f"model {workload} cell={l['cell']} iterations={l['iterations']} "
                  f"ping_samples={l['ping_samples']} p50_ms={l['ping_p50_ms']:.3f} "
                  f"p99_ms={l['ping_p99_ms']:.3f}")
    attempted, failed, reasons = check_cells(workload, cells)
    for reason in reasons:
        log(f"{workload} FAILED {reason}")
    values = per_layer_metrics(lines) if trace else end_to_end_metrics(lines)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and set(values) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    return result, lines


def self_test(binary):
    """Every workload, both modes, a few simulated hundred milliseconds each."""
    problems = []
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                    {m["name"]: m["unit"] for m in spec["per_layer"]})
        if declared != (END_TO_END, PER_LAYER):
            problems.append("BENCHMARK.json metric names or units differ from run.py's")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run_workload(binary, workload, 7, 0, trace, sim_scale=0.05)
            parsed = json.loads(json.dumps(result))
            units = PER_LAYER if trace else END_TO_END
            got = {k: v["unit"] for k, v in parsed["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(units) ^ set(got))}"
                                " missing or extra")
            for k, v in parsed["metrics"].items():
                if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]:
                    problems.append(f"{workload} trace={trace}: {k} is not a number")
            if trace:
                cells = [l for l in lines if l["kind"] == "cell"]
                twins = {v: _by_key(cells, v) for v in ("decorated", "trace_off")}
                for (it, name), cell in _by_key(cells, "plain").items():
                    diffs = fingerprint_diffs(twins, it, name, cell)
                    if "decorated" not in diffs or any(diffs.values()):
                        problems.append(f"{workload} {name}: traced fingerprint differs {diffs}")
            if parsed["attempted"] < len(CELLS):
                problems.append(f"{workload} trace={trace}: {parsed['attempted']} cells run")
    for p in problems:
        log("self-test: " + p)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    try:
        binary = build_binary()
        if args.self_test:
            return self_test(binary)
        result, _ = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
