"""End-to-end agent tool-call benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload agent_oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

One run sets the workload up several times (``setup_s`` is the median),
warms it up, and measures a closed-loop window of ``--seconds`` made of
sub-windows of ``SLICE_S`` seconds or ``CHUNK_CALLS`` calls. After each
sub-window, outside the timing, a speed probe measures how fast the
shared machine runs Python just then and the oracle checks the calls.
``calls_per_s`` and ``setup_s`` are scaled from the probed speed to a
fixed reference speed (``measure.reference_seconds``); the plain wall
figures are reported beside them. With ``--trace 1`` it then measures a
traced window and reports the per-layer metrics instead of the
end-to-end ones (the untraced window is the reference). The
human-readable report goes to stderr; the last line of stdout is the
result object.
Results and spans are written under ``perfbench/out/``. The exit code is
non-zero when any oracle check fails.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
#: set-ups per run (``setup_s`` is their median): more of the short ones,
#: so each run spends a few seconds setting up
SETUP_REPEATS = {"agent_oltp": 5, "analytics_proxy": 3, "durable_txn": 11}
WARMUP_S = 2.0
#: a sub-window holds at most this many calls; the oracle checks each
#: one's calls and drops them before the next starts, so the records held
#: at once do not grow with throughput
CHUNK_CALLS = 1_000
#: ``peak_rss_mb`` covers set-up, warm-up and the window's first this
#: many calls (about half a 20 s window's on a 2-vCPU Xeon), not the whole
#: window: the program keeps some state per call (the verifier's audit
#: log), so the peak of a fixed-time window would grow with throughput
RSS_CALLS = {"agent_oltp": 16_000, "analytics_proxy": 68, "durable_txn": 20_000}
RECOVERY_REPEATS = 3
#: the timed window runs as slices of this length, each followed by a
#: speed probe of PROBE_S (see measure.Speedometer)
SLICE_S = 0.5
PROBE_S = 0.05
#: the probes right before and right after each set-up
SETUP_PROBE_S = 0.15
#: probe units per CPU second that ``calls_per_s`` and ``setup_s`` are
#: scaled to: a fixed figure near the probe's median on the 2-vCPU Xeon of
#: the baseline in NOTES.md (changing it rescales every result)
REFERENCE_SPEED = 3_500.0
#: string-hash seed every run uses: with random hash seeds, hash joins,
#: GROUP BY and DISTINCT over text made analytics_proxy's throughput vary
#: by ~1.6x between runs of one seed; a fixed seed makes runs comparable
HASH_SEED = "0"
WORKLOADS = ("agent_oltp", "analytics_proxy", "durable_txn")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
#: (name, unit) of the end-to-end metrics BENCHMARK.json gates
E2E_GATED = [(m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"]]
#: (name, unit) of the per-layer metrics a traced run reports
LAYERS = [(m["name"], m["unit"]) for m in _BENCHMARK["per_layer"]]
#: (name, unit) of the end-to-end metrics that are not gated: a traced
#: run reports them as the per-layer ``e2e.<name>``
E2E_REFERENCE = [(name[len("e2e."):], unit) for name, unit in LAYERS if name.startswith("e2e.")]
E2E_UNITS = dict(E2E_GATED + E2E_REFERENCE)
#: the ungated end-to-end metrics each workload's report prints
E2E_SPECIFIC = {
    "agent_oltp": ["calls_per_s_wall", "setup_s_wall", "call_p50_ms", "call_p90_ms",
                   "call_p99_ms", "point_select_p50_ms", "txn_p50_ms", "commits_per_s"],
    "analytics_proxy": ["calls_per_s_wall", "setup_s_wall", "call_p50_ms", "call_p90_ms",
                        "proxy_rows_per_s"],
    "durable_txn": ["calls_per_s_wall", "setup_s_wall", "call_p50_ms", "call_p90_ms",
                    "call_p99_ms", "point_select_p50_ms", "txn_p50_ms", "txn_p99_ms",
                    "commits_per_s", "recovery_s", "write_amplification"],
}


# --------------------------------------------------------------------------
# one workload in this process
# --------------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run this process on its least busy CPU; returns it.

    All load and all service threads share one interpreter lock, so only
    one of them runs Python at a time anyway; letting the OS migrate them
    across CPUs adds lock hand-offs between CPUs, which made throughput
    vary by 2x between runs of the same seed on a 2-vCPU machine.
    """
    def idle() -> dict[int, int]:
        out = {}
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                head, *fields = line.split()
                if head.startswith("cpu") and head != "cpu":
                    out[int(head[3:])] = int(fields[3])
        return out

    before = idle()
    time.sleep(0.2)
    after = idle()
    cpu = max(os.sched_getaffinity(0), key=lambda c: (after.get(c, 0) - before.get(c, 0), c))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns the full result and the reported metrics
    (end-to-end without ``trace``, per-layer with it)."""
    import harness
    import oracle as oracle_mod
    import spans
    import workloads
    from repro.llm.tokenizer import count_tokens

    cpus = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer()
    workload = None
    try:
        run_started = time.perf_counter()
        setups = []  # (wall, cpu, steal) seconds and probed speed of each set-up
        repeats = SETUP_REPEATS[name]
        for attempt in range(repeats):
            workload = workloads.BY_NAME[name](seed, workdir)
            # the machine's speed moves within seconds: probe right
            # before and right after each set-up
            speedometer = measure.Speedometer()
            speedometer.probe(SETUP_PROBE_S)
            steal, cpu_time = measure.steal_s(), time.process_time()
            started = time.perf_counter()
            workload.setup(tracer, attempt)
            wall = time.perf_counter() - started
            cpu_time = time.process_time() - cpu_time
            steal = measure.steal_s() - steal
            speedometer.probe(SETUP_PROBE_S)
            setups.append((wall, cpu_time, steal, speedometer.speed))
            if attempt < repeats - 1:
                workload.close()
                # free the discarded database now, not inside the next
                # timed set-up, and before it can raise the peak RSS
                workload = None
                gc.collect()
        #: seconds from the run's start to the end of each phase
        phases = {"setup": time.perf_counter() - run_started}
        copy = workload.oracle_data()
        oracle = oracle_mod.Oracle(copy)
        problems: list[str] = []
        attempted = 0

        def check(window) -> None:
            nonlocal attempted
            attempted += len(window.records)
            for record in window.records:
                reason = oracle.check(record)
                if reason is not None:
                    problems.append(f"{record.client} {record.call.render()}: {reason}")

        phases["oracle_copy"] = time.perf_counter() - run_started
        workload.prime()
        clients = workload.clients()
        # the loaded rows live for the whole run: move them out of the
        # collector's reach, or every full collection re-scans ~10^6 of
        # them (~45 ms per pause on analytics_proxy) and which calls such
        # a pause lands on decides the percentiles more than the code does
        gc.collect()
        gc.freeze()
        rids = itertools.count(1)
        counters = harness.service_counters(workload.manager, workload.service_sessions, workload.fs)
        warm = harness.run_window(workload.dispatcher, clients, WARMUP_S, rids)
        rest = -len(warm.records) % workload.round_calls
        if rest:
            # end the warm-up on a round boundary, where the window starts
            warm.records += harness.run_window(
                workload.dispatcher, clients, 60.0, rids, max_calls=rest).records
        rss = measure.peak_rss_mb()
        check(warm)
        planted = oracle.self_test(warm.records)
        if planted is not None:
            problems.append(f"oracle self-test: {planted}")
        del warm
        tally = harness.Tally()
        speedometer = measure.Speedometer()
        calls, rss_done = 0, False
        checking = 0.0
        # the window ends on a round boundary; a program too slow to reach
        # RSS_CALLS in the window runs on, untimed, until it does
        while tally.seconds < seconds or tally.calls % workload.round_calls or not rss_done:
            # the peak the oracle's checks left is not the program's
            measure.reset_peak_rss()
            timed = tally.seconds < seconds or tally.calls % workload.round_calls
            budget = CHUNK_CALLS
            if tally.seconds >= seconds and timed:
                budget = -tally.calls % workload.round_calls
            if not rss_done:
                budget = min(budget, RSS_CALLS[name] - calls)
            window = harness.run_window(
                workload.dispatcher, clients,
                min(SLICE_S, seconds - tally.seconds) if tally.seconds < seconds else 60.0,
                rids, counters, max_calls=budget,
            )
            if timed:
                speedometer.probe(PROBE_S)
            calls += len(window.records)
            if not rss_done:
                rss = max(rss, measure.peak_rss_mb())
                rss_done = calls >= RSS_CALLS[name]
            checked = time.perf_counter()
            check(window)
            checking += time.perf_counter() - checked
            if timed:
                tally.add(window, lambda result: count_tokens(result.render()))
            del window
        phases["warm_up_and_window"] = time.perf_counter() - run_started
        traced = None
        if trace:
            tracer.enabled = True
            harness.install_layer_spans(tracer)
            for session in workload.service_sessions:
                tracer.wrap_tools(session.bridge.registry, harness.TOOL_SPANS)
            # sliced and probed like the untraced window, so that
            # trace.overhead_pct compares rates at the same reference speed
            parts: list[harness.Window] = []
            traced_speed = measure.Speedometer()
            try:
                while (elapsed := sum(part.seconds for part in parts)) < seconds:
                    parts.append(harness.run_window(
                        workload.dispatcher, clients, min(SLICE_S, seconds - elapsed),
                        rids, counters, max_calls=CHUNK_CALLS))
                    traced_speed.probe(PROBE_S)
            finally:
                tracer.enabled = False
                tracer.unpatch_all()
            traced = harness.Window.merge(parts)
            del parts
            check(traced)

        # ------------------------------------------------ end-state checks
        problems += workload.final_checks()
        recovery = []
        if isinstance(workload, workloads.DurableTxn):
            recovery, lost = workload.recover(RECOVERY_REPEATS)
            problems += lost
        copy.close()

        # ------------------------------------------------ metrics
        phases["trace_and_end_checks"] = time.perf_counter() - run_started
        e2e = tally.metrics(speedometer.speed, REFERENCE_SPEED)
        setup_times = [measure.reference_seconds(*setup, REFERENCE_SPEED) for setup in setups]
        e2e["setup_s"] = measure.median(setup_times)
        e2e["setup_s_wall"] = measure.median([setup[0] for setup in setups])
        e2e["peak_rss_mb"] = rss
        e2e["failed_share"] = len(problems) / attempted
        if recovery:
            e2e["recovery_s"] = measure.median(recovery)
        report = {
            key: e2e.get(key, 0.0)
            for key in [k for k, _ in E2E_GATED] + E2E_SPECIFIC[name] + ["failed_share"]
        }
        layers = {}
        split = []
        if traced is not None:
            layers = harness.layer_metrics(tracer, traced)
            traced_rate = len(traced.records) / measure.reference_seconds(
                traced.seconds, traced.cpu_seconds, traced.steal_seconds,
                traced_speed.speed, REFERENCE_SPEED)
            layers["trace.overhead_pct"] = (
                100.0 * (e2e["calls_per_s"] - traced_rate) / e2e["calls_per_s"])
            for key, _ in E2E_REFERENCE:
                layers[f"e2e.{key}"] = e2e.get(key, 0.0)
            split = harness.point_select_split(tracer, traced.records)
            tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz"))

        result = {
            "workload": name,
            "provenance": measure.provenance(
                ROOT,
                seed=seed,
                seconds=seconds,
                # a shorter window than the default is a smoke run, whose
                # figures are not the benchmark's numbers
                short_window=seconds < DEFAULT_SECONDS,
                trace=trace,
                cpus_available=cpus,
                python_hash_seed=os.environ.get("PYTHONHASHSEED"),
                pinned_cpu=cpu,
                setup_repeats=repeats,
                setup_times_s=setup_times,
                setup_wall_cpu_steal_s_speed=setups,
                sessions=len(workload.service_sessions),
                workers=workloads.WORKERS,
                client_threads=len(clients),
                fsync_commits=isinstance(workload, workloads.DurableTxn),
                data_rows=workload.data_sizes() if workload.db is not None else {},
                window_chunk_calls=CHUNK_CALLS,
                rss_read_after_calls=RSS_CALLS[name],
                calls_measured=tally.calls,
                tasks_measured=tally.tasks,
                window_s=tally.seconds,
                window_cpu_s=tally.cpu_seconds,
                window_steal_s=tally.steal_seconds,
                phase_ends_s=phases,
                window_checks_s=checking,
                probe_speed=speedometer.speed,
                reference_speed=REFERENCE_SPEED,
            ),
            "end_to_end": report,
            "per_layer": layers,
            "point_select_split_us": split,
            "attempted": attempted,
            "failed": len(problems),
            "problems": problems[:50],
        }
        if trace:
            return result, {key: layers[key] for key, _ in LAYERS}
        return result, {key: e2e[key] for key, _ in E2E_GATED}
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(result: dict, metrics: dict, trace: bool) -> None:
    units = E2E_UNITS
    out = sys.stderr
    prov = result["provenance"]
    print(f"== {result['workload']} seed={prov['seed']} seconds={prov['seconds']} "
          f"trace={int(trace)} calls={prov['calls_measured']} "
          f"python={prov['python']} nproc={prov['nproc']} sha={prov['git_sha'][:12]}", file=out)
    if prov["short_window"]:
        print(f"  SHORT WINDOW: a smoke run, not the benchmark's numbers "
              f"(full runs measure {DEFAULT_SECONDS} s)", file=out)
    for key, value in result["end_to_end"].items():
        print(f"  {key:<28} {value:>14.4f} {units[key]}", file=out)
    if trace:
        for key, unit in LAYERS:
            print(f"  {key:<36} {metrics[key]:>14.4f} {unit}", file=out)
        if result["point_select_split_us"]:
            print("  point-select split (median self time per layer):", file=out)
            for layer, micros, share in result["point_select_split_us"]:
                print(f"    {layer:<32} {micros:>9.1f} us {100 * share:>6.1f}%", file=out)
    print(f"  oracle: {result['attempted']} calls checked, {result['failed']} failed", file=out)
    for problem in result["problems"][:10]:
        print(f"    FAIL {problem}", file=out)


# --------------------------------------------------------------------------
# every workload, one process each
# --------------------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process and print one table."""
    status = 0
    print(f"{'workload':<16} {'metric':<36} {'value':>14}  unit")
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
        if os.path.exists(path):
            os.remove(path)
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        status = status or proc.returncode
        if not os.path.exists(path):
            print(f"{name:<16} no result (exit {proc.returncode})")
            continue
        with open(path, encoding="utf-8") as fh:
            full = json.load(fh)
        block, units = (full["per_layer"], dict(LAYERS)) if trace else (
            full["end_to_end"], E2E_UNITS)
        for key, value in block.items():
            print(f"{name:<16} {key:<36} {value:>14.4f}  {units[key]}")
        print(f"{name:<16} {'oracle failed / attempted':<36} {full['failed']:>7} / {full['attempted']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    result, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_report(result, metrics, bool(args.trace))
    units = dict(E2E_GATED + LAYERS)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the hash seed is read at interpreter start: restart with it
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)
    sys.exit(main())
