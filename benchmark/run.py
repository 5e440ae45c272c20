#!/usr/bin/env python3
"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py [--seed S] [--reps N] [--traced] [--out FILE]
    python3 benchmark/run.py --smoke
    python3 benchmark/run.py --compare A.json B.json
    python3 benchmark/run.py --workload NAME --seed S --seconds T --trace 0|1

The first form builds benchmark/ (Release, not timed) and runs every
workload N times, round robin, each repetition in a fresh process.  It
prints every metric by name with its unit (median, quartiles, n), checks the
outputs, and exits non-zero when a check fails.  A fixed host probe runs
before every repetition, and wall and set-up times are reported scaled to
the reference host's speed (README.md, "Host speed").  --traced adds one traced
pass per workload and reports the per-layer metrics.  --out writes the whole
record (host, seed, every run) as JSON, the input of --compare.

--smoke runs the same workloads at tiny sizes, checks only.  The last form
runs one workload for T seconds and prints one JSON line with the
end-to-end metrics (--trace 0) or the per-layer ones (--trace 1), as
BENCHMARK.json describes.  README.md defines every workload and metric.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
TMP = BUILD / "runs"
EXPECTED = HERE / "expected"
DRIVER = BUILD / "hcs_benchmark"
SERVICE = BUILD / "hclocksync" / "bench" / "bench_service"
PROBE = BUILD / "hcs_host_probe"
# hcs_host_probe's time on the reference host in a quiet stretch (README.md, "Host
# speed").  A probe runs before every repetition; wall and set-up times are scaled by
# PROBE_REF_S / the median probe time of their run (host_scale), which turns them into
# seconds at the reference host's speed.
PROBE_REF_S = 0.30
MIB = 1024.0 * 1024.0
SERVICE_DURATION_S = {"full": 1800, "smoke": 600}  # simulated seconds of bench_service
# service_soak's set-up: the shortest soak bench_service accepts (process start, World,
# the start-up sync, two resync rounds, exit), timed before every repetition.
SERVICE_SETUP_DURATION_S = 60
CHILD_TIMEOUT_S = 170
# The one-workload form must end within 180 s: children still running at this
# perf_counter() instant are killed (their repetition then fails its checks).
deadline = float("inf")

# Default repetitions per workload; raised where two runs of one commit left
# a metric unresolved under --compare.  `probe` is the repetition's schedule shape,
# (threads, equal tasks they share), which the host probe copies: shards in lockstep,
# or the 20 Worlds of jupiter_trials on the driver's 4 TrialRunner jobs.
WORKLOADS = {
    "titan4k": {"shards": 1, "probe": (1, 1), "reps": 11},
    "titan4k_shards4": {"shards": 4, "probe": (4, 4), "reps": 21, "same_as": "titan4k"},
    "titan2k_jk_shards4": {"shards": 4, "probe": (4, 4), "reps": 21},
    "jupiter_trials": {"shards": 1, "probe": (4, 20), "reps": 11},
    "service_soak": {"shards": 1, "probe": (1, 1), "reps": 21, "service": True},
}

# name -> (unit, bound, rule).  Rules: "lower" may grow by at most `bound`
# (a share of the baseline median); "exact" must not change; "no_increase"
# must not grow at all.
END_TO_END = {
    "wall_s": ("s", 0.25, "lower"),
    "setup_s": ("s", 0.25, "lower"),
    "peak_rss_mib": ("MiB", 0.05, "lower"),
    "failed_share": ("fraction", 0.0, "no_increase"),
    "clock_error_us": ("us", 0.0, "exact"),
    "sim_sync_s": ("sim_s", 0.0, "exact"),
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.frame_pool_mib": "MiB",
    "simmpi.ctor_s": "s",
    "simmpi.launch_s": "s",
    "simmpi.launch_bytes_per_rank": "B",
    "simmpi.run_s": "s",
    "simmpi.run_rss_mib": "MiB",
    "simmpi.teardown_s": "s",
    "simmpi.messages": "count",
    "simmpi.bytes": "B",
    "simmpi.pingpongs": "count",
    "simmpi.shard_speedup": "ratio",
    "clocksync.sync_s": "s",
    "clocksync.accuracy_s": "s",
    "clocksync.fit_points": "count",
    "clocksync.resyncs": "count",
    "mem.rss_per_resync_kib": "KiB",
    "runner.map_s": "s",
    "runner.efficiency": "ratio",
    "obs.trace_overhead": "ratio",
    "unattributed_s": "s",
}

# The per-layer metrics every workload has; the one-workload form reports
# exactly these (BENCHMARK.json's per_layer).
UNIVERSAL_PER_LAYER = [
    "sim.events", "sim.frame_pool_mib", "simmpi.messages", "simmpi.bytes", "simmpi.pingpongs",
    "clocksync.fit_points", "obs.trace_overhead",
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build --

def build():
    """Configures (once) and builds the driver and bench_service, untimed."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no hclocksync sources above {HERE} (expected ../CMakeLists.txt)")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {build_log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "hcs_benchmark",
               "bench_service", "hcs_host_probe"]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            raise BenchError(f"build failed; see {build_log}")
    TMP.mkdir(exist_ok=True)


# ------------------------------------------------------------- processes --

def child_env():
    # The workloads fix their own jobs/shards/queue; the environment must not.
    return {k: v for k, v in os.environ.items() if not k.startswith("HCLOCKSYNC_")}


def spawn(cmd, tag):
    """Runs cmd to completion; returns (wall_s, peak_rss_mib, exit_code, stdout, stderr)."""
    out_path, err_path = TMP / f"{tag}.out", TMP / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timeout = min(CHILD_TIMEOUT_S, max(1.0, deadline - start))
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(),
            err_path.read_text())


def read_metrics_csv(path):
    values = {}
    for line in Path(path).read_text().splitlines()[1:]:
        cells = line.split(",")
        if len(cells) >= 5 and cells[1] in ("counter", "gauge"):
            values[cells[0]] = float(cells[4])
    return values


def results_section(stdout):
    """The deterministic part of a child's stdout: what precedes the metrics output."""
    cut = stdout.find("wrote metrics CSV:")
    return (stdout if cut < 0 else stdout[:cut]).rstrip("\n") + "\n"


# ------------------------------------------------------------ repetitions --

def driver_rep(workload, seed, size, traced=False, shards=None):
    """One fresh driver process: results rows, spans and host numbers."""
    tag = f"{workload}-{seed}-{'t' if traced else 'u'}{shards or ''}"
    spans_path, metrics_path = TMP / f"{tag}.spans.json", TMP / f"{tag}.metrics.csv"
    cmd = [DRIVER, "--workload", workload, "--seed", seed, "--size", size, "--spans-out",
           spans_path]
    if traced:
        metrics_path.unlink(missing_ok=True)
        cmd += ["--metrics-out", metrics_path]
    if shards is not None:
        cmd += ["--shards", shards]
    wall, rss, code, stdout, stderr = spawn(cmd, tag)
    rep = {"wall_s": wall, "peak_rss_mib": rss, "exit_code": code, "traced": traced,
           "shards": shards or WORKLOADS[workload]["shards"], "results": results_section(stdout),
           "stderr": stderr.strip()[-2000:], "worlds": [], "spans": [], "setup_s": 0.0}
    if not spans_path.exists():  # the driver died before writing it; the checks fail
        return rep
    host = json.loads(spans_path.read_text())
    spans_path.unlink()
    rep["spans"] = host["spans"]
    rep["frame_pool_mib"] = host["frame_pool_bytes"] / MIB
    rep["jobs"] = host["jobs"]
    rows = parse_csv(rep["results"])
    for row, world in zip(rows, host["worlds"]):
        row.update(world)
    rep["worlds"] = rows
    rep["setup_s"] = span_sum(rep["spans"], "simmpi.ctor") + span_sum(rep["spans"],
                                                                        "simmpi.launch")
    if traced:
        rep["counters"] = read_metrics_csv(metrics_path)
    return rep


def service_rep(seed, size, traced=False):
    """bench_service (the product binary): the shortest soak, whose wall time is the
    set-up, then the soak itself."""
    tag = f"service_soak-{seed}-{'t' if traced else 'u'}"
    setup_s, _, code, _, stderr = spawn([SERVICE, "--scale", 1, "--duration",
                                         SERVICE_SETUP_DURATION_S, "--seed", seed], tag + "-setup")
    if code != 0:
        raise BenchError(f"bench_service --duration {SERVICE_SETUP_DURATION_S} failed: "
                         f"{stderr.strip()[-500:]}")
    metrics_path = TMP / f"{tag}.metrics.csv"
    cmd = [SERVICE, "--scale", 1, "--duration", SERVICE_DURATION_S[size], "--seed", seed]
    if traced:
        metrics_path.unlink(missing_ok=True)
        cmd += ["--metrics-out", metrics_path]
    wall, rss, code, stdout, stderr = spawn(cmd, tag)
    rep = {"wall_s": wall, "peak_rss_mib": rss, "exit_code": code, "traced": traced, "shards": 1,
           "results": results_section(stdout), "stderr": stderr.strip()[-2000:],
           "setup_s": setup_s}
    rep["slo"] = parse_slo(rep["results"])
    if traced and code == 0:
        rep["counters"] = read_metrics_csv(metrics_path)
    return rep


def host_probe(threads, tasks):
    _, _, code, stdout, stderr = spawn([PROBE, threads, tasks], "probe")
    if code != 0:
        raise BenchError(f"hcs_host_probe failed: {stderr.strip()[-500:]}")
    return float(stdout.split()[0])


def run_rep(workload, seed, size, traced=False, shards=None):
    """One repetition, after a host probe of the same schedule shape."""
    probe_s = host_probe(*(WORKLOADS[workload]["probe"] if shards is None else (shards, shards)))
    if WORKLOADS[workload].get("service"):
        rep = service_rep(seed, size, traced)
    else:
        rep = driver_rep(workload, seed, size, traced, shards)
    rep["probe_s"] = probe_s
    return rep


def host_scale(reps):
    """Turns the repetitions' measured seconds into seconds at the reference host's speed:
    the reference probe time over the median probe time next to them."""
    return PROBE_REF_S / statistics.median(r["probe_s"] for r in reps)


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) == len(header):
            rows.append(dict(zip(header, cells)))
    return rows


def parse_slo(text):
    slo, inside = {}, False
    for line in text.splitlines():
        if line.startswith("slo_metric"):
            inside = True
            continue
        if inside:
            cells = line.split()
            if not cells:
                break
            if len(cells) == 2 and not cells[0].startswith("-"):
                slo[cells[0]] = float(cells[1])
    return slo


def span_sum(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


# ---------------------------------------------------------------- checks --

def golden_path(workload, size):
    name = WORKLOADS[workload].get("same_as", workload)
    return (EXPECTED / "smoke" if size == "smoke" else EXPECTED) / f"{name}.txt"


class Checker:
    """Collects named checks; a failed one marks the work it covers failed."""

    def __init__(self):
        self.checks = []

    def check(self, workload, name, ok, detail=""):
        ok = bool(ok)
        self.checks.append({"workload": workload, "check": name, "ok": ok, "detail": detail})
        if not ok:
            log(f"CHECK FAILED [{workload}] {name}: {detail}")
        return ok

    def all_ok(self):
        return all(c["ok"] for c in self.checks)


def check_workload(chk, workload, seed, size, reps):
    """Checks every repetition of one workload and counts its failed operations.

    Operations are rank-syncs (sync workloads) or client queries (service_soak).  A
    rank-sync fails when its SyncReport is not ok; every rank of a World that threw, or
    of a repetition that failed a check, counts failed.  A query fails as bench_service
    reports it, and every query of a repetition that failed a check counts failed.
    Returns per repetition (attempted, failed, planned): `planned` failures are the ones
    the churn plan mandates (the seed-1 golden's failed_queries, the same for any seed),
    so failed - planned is what the system got wrong.
    """
    golden = golden_path(workload, size)
    expected = golden.read_text() if golden.exists() else None
    first = reps[0]["results"]
    counts = []
    for i, rep in enumerate(reps):
        rep_ok = chk.check(workload, f"rep {i} exit code", rep["exit_code"] == 0,
                           f"exit {rep['exit_code']}: {rep['stderr'][-300:]}")
        rep_ok &= chk.check(workload, f"rep {i} repeats rep 0", rep["results"] == first,
                            "results differ between repetitions of one seed")
        if seed == 1:
            rep_ok &= chk.check(workload, f"rep {i} matches {golden.relative_to(HERE)}",
                                expected is not None and rep["results"] == expected,
                                "seed-1 results differ from the golden")
        if WORKLOADS[workload].get("service"):
            slo = rep["slo"]
            queries = int(slo.get("queries", 0))
            planned = int(parse_slo(expected).get("failed_queries", 0)) if expected else 0
            failed = int(slo.get("failed_queries", queries))
            rep_ok &= chk.check(workload, f"rep {i} has queries", queries > 0, "no SLO table")
            rep_ok &= chk.check(workload, f"rep {i} failed queries stay within the churn plan",
                                failed <= planned,
                                f"{failed - planned} more failed queries than the golden")
            counts.append((queries, failed if rep_ok else queries, planned))
            continue
        rep_ok &= chk.check(workload, f"rep {i} has results", rep["worlds"], "no results rows")
        attempted = failed = 0
        for row in rep["worlds"]:
            ranks = int(row["ranks"])
            not_ok = int(row["degraded_ranks"]) + int(row["failed_ranks"])
            chk.check(workload, f"rep {i} world {row['world']} healthy",
                      row["status"] == "ok" and not_ok == 0,
                      f"{row['algorithm']}: status {row['status']}, {not_ok} rank-syncs not ok")
            attempted += ranks
            failed += not_ok if (rep_ok and row["status"] == "ok") else ranks
        counts.append((attempted, failed, 0))
    return counts


def check_same_results(chk, workload, other, a, b):
    return chk.check(workload, f"results equal {other}'s byte for byte", a == b,
                     "sharded and unsharded results differ")


# ---------------------------------------------------------------- metrics --

def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def outcome_values(workload, rep):
    """clock_error_us and sim_sync_s of one repetition (what its results say)."""
    if WORKLOADS[workload].get("service"):
        return {"clock_error_us": rep["slo"].get("offset_error_p99_us", float("inf"))}
    worlds = rep["worlds"] or [{"max_offset_10s_us": "inf", "sync_duration_s": "inf"}]
    return {"clock_error_us": statistics.median(float(w["max_offset_10s_us"]) for w in worlds),
            "sim_sync_s": statistics.median(float(w["sync_duration_s"]) for w in worlds)}


def self_times(spans):
    """Self time per span name, in wall-clock seconds.

    A span's self time is its duration minus the union of its children's intervals.
    Children that ran concurrently (trials on runner workers) share their parent's
    covered time: each is weighted by union / sum of the children's durations, so the
    weighted self times of a tree add up to its root's duration.
    """
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    weight, out = {}, {}
    for i, s in enumerate(spans):  # a parent is always opened, so listed, first
        w = weight.get(i, 1.0)
        kids = [spans[c] for c in children.get(i, [])]
        clipped = sorted((max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids)
        covered, reach = 0.0, float("-inf")
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        total = sum(k["end"] - k["start"] for k in kids)
        out[s["name"]] = out.get(s["name"], 0.0) + w * max(0.0, s["end"] - s["start"] - covered)
        share = covered / total if total > 0 else 1.0
        for c in children.get(i, []):
            weight[c] = w * share
    return out


def per_layer(workload, traced, untraced_wall, one_shard_run_s=None, untraced_run_s=None):
    """Every per-layer metric that applies to `workload`, from its traced repetition,
    and the self time per span name (empty for service_soak, which has no spans).
    `untraced_wall` is the untraced median wall time, scaled by host_scale."""
    m = {"obs.trace_overhead": traced["wall_s"] * host_scale([traced]) / untraced_wall}
    counters = traced.get("counters", {})
    m["simmpi.messages"] = sum(v for k, v in counters.items() if k.startswith("net.messages."))
    m["simmpi.bytes"] = sum(v for k, v in counters.items() if k.startswith("net.bytes."))
    m["simmpi.pingpongs"] = counters.get("sync.pingpongs", 0.0)
    m["clocksync.fit_points"] = counters.get("sync.fit_points", 0.0)
    if WORKLOADS[workload].get("service"):
        m["sim.events"] = counters.get("sim.events_processed", 0.0)
        m["sim.frame_pool_mib"] = counters.get("hcs.mem.frame_pool_bytes", 0.0) / MIB
        m["clocksync.resyncs"] = counters.get("sync.resyncs", 0.0)
        rounds = traced["slo"].get("resyncs_rank0", 0.0)
        if rounds:
            m["mem.rss_per_resync_kib"] = traced["peak_rss_mib"] * 1024.0 / rounds
        return m, {}
    spans, worlds = traced["spans"], traced["worlds"]
    if not worlds:  # the traced repetition failed; its checks say so
        return m, {}
    m["sim.events"] = float(sum(int(w["events"]) for w in worlds))
    m["sim.frame_pool_mib"] = traced["frame_pool_mib"]
    for name in ("simmpi.ctor", "simmpi.launch", "simmpi.run", "simmpi.teardown",
                 "clocksync.sync", "clocksync.accuracy", "runner.map"):
        m[name + "_s"] = span_sum(spans, name)
    m["sim.ns_per_event"] = m["simmpi.run_s"] / max(m["sim.events"], 1.0) * 1e9
    m["simmpi.launch_bytes_per_rank"] = max(w["launch_rss_bytes"] / int(w["ranks"])
                                            for w in worlds)
    m["simmpi.run_rss_mib"] = max(w["run_rss_bytes"] for w in worlds) / MIB
    m["runner.efficiency"] = span_sum(spans, "trial") / (traced["jobs"] * m["runner.map_s"]
                                                         or 1.0)
    if one_shard_run_s is not None:
        m["simmpi.shard_speedup"] = one_shard_run_s / untraced_run_s
    self_s = self_times(spans)
    m["unattributed_s"] = traced["wall_s"] - sum(self_s.values())
    return m, self_s


# ------------------------------------------------------------------- runs --

def host_info(seed, reps, size):
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=10).stdout.splitlines()[0].strip()
        except (OSError, IndexError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1], "--version"])
    return {"hostname": platform.node(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": compiler, "build_type": "Release",
            "git_commit": first_line(["git", "describe", "--always", "--dirty"]),
            "python": platform.python_version(), "seed": seed, "size": size, "reps": reps,
            "date": time.strftime("%Y-%m-%d %H:%M:%S %z")}


def full_run(args):
    seed, size = args.seed, "smoke" if args.smoke else "full"
    names = list(WORKLOADS)
    reps = {n: 1 if args.smoke else (args.reps or WORKLOADS[n]["reps"]) for n in names}
    build()
    chk = Checker()
    runs = {n: [] for n in names}
    # Round robin, so drift in the host's state spreads over every workload.
    for i in range(max(reps.values())):
        for name in names:
            if i < reps[name]:
                log(f"[{name}] rep {i + 1}/{reps[name]} seed {seed}")
                runs[name].append(run_rep(name, seed, size))
    report = {"host": host_info(seed, reps, size), "workloads": {}}
    counts = {name: check_workload(chk, name, seed, size, runs[name]) for name in names}
    if not check_same_results(chk, "titan4k_shards4", "titan4k",
                              runs["titan4k_shards4"][0]["results"],
                              runs["titan4k"][0]["results"]):
        counts["titan4k_shards4"] = all_failed(counts["titan4k_shards4"])
    for name in names:
        w = {"results": runs[name][0]["results"]}
        if args.traced and not traced_pass(chk, w, name, seed, size, runs[name]):
            counts[name] = all_failed(counts[name])
        w["host_scale"] = scale = host_scale(runs[name])
        e2e = {"wall_s": [r["wall_s"] * scale for r in runs[name]],
               "setup_s": [r["setup_s"] * scale for r in runs[name]],
               "peak_rss_mib": [r["peak_rss_mib"] for r in runs[name]],
               "failed_share": [f / a if a else 1.0 for a, f, _ in counts[name]]}
        for rep in runs[name]:
            for key, value in outcome_values(name, rep).items():
                e2e.setdefault(key, []).append(value)
        w["end_to_end"] = {k: summary(v, END_TO_END[k][0]) for k, v in e2e.items()}
        w["measured"] = {k: summary([r[k] for r in runs[name]], "s")
                         for k in ("wall_s", "setup_s", "probe_s")}
        w["attempted"] = sum(a for a, _, _ in counts[name])
        w["failed"] = sum(f for _, f, _ in counts[name])
        w["planned_failures"] = sum(p for _, _, p in counts[name])
        w["runs"] = [slim(r) for r in runs[name]]
        report["workloads"][name] = w
    failed = [c for c in chk.checks if not c["ok"]]
    report["checks"] = {"passed": len(chk.checks) - len(failed), "failed": failed}
    report["correct"] = not failed
    print_report(report, metrics=not args.smoke)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        log(f"wrote {args.out}")
    return 0 if report["correct"] else 1


def all_failed(counts):
    return [(a, a, p) for a, _, p in counts]


def slim(rep):
    """A repetition's record for --out: its numbers, without spans and outputs."""
    out = {k: v for k, v in rep.items()
           if k not in ("spans", "worlds", "results", "stderr", "counters", "slo")}
    for name in ("simmpi.ctor", "simmpi.launch", "simmpi.run", "simmpi.teardown"):
        if rep.get("spans"):
            out[name.split(".")[1] + "_s"] = span_sum(rep["spans"], name)
    if rep["exit_code"] != 0:
        out["stderr"] = rep["stderr"]
    return out


def traced_pass(chk, w, name, seed, size, untraced):
    """One traced repetition (+ a 1-shard one for sharded workloads) into w; False when
    its results differ from the untraced ones."""
    log(f"[{name}] traced pass")
    traced = run_rep(name, seed, size, traced=True)
    ok = chk.check(name, "traced rep matches the untraced results",
                   traced["exit_code"] == 0 and traced["results"] == untraced[0]["results"],
                   "tracing changed the results")
    one_shard = run_s = None
    if WORKLOADS[name]["shards"] > 1:
        log(f"[{name}] 1-shard pass")
        single = run_rep(name, seed, size, shards=1)
        ok &= check_same_results(chk, name, "the 1-shard run", untraced[0]["results"],
                                 single["results"])
        one_shard = span_sum(single["spans"], "simmpi.run")
        run_s = statistics.median(span_sum(r["spans"], "simmpi.run") for r in untraced)
        w["one_shard_run"] = slim(single)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced) * host_scale(untraced)
    layers, w["self_s"] = per_layer(name, traced, untraced_wall, one_shard, run_s)
    w["traced_run"] = slim(traced)
    w["per_layer"] = {k: {"unit": PER_LAYER_UNITS[k], "value": v} for k, v in layers.items()}
    return ok


def print_report(report, metrics=True):
    host = report["host"]
    print(f"hclocksync benchmark: {host['cpu_model']}, nproc {host['nproc']}, "
          f"{host['compiler']}, seed {host['seed']}, size {host['size']}")
    for name, w in report["workloads"].items() if metrics else ():
        print(f"\n== {name} ==  ({w['failed']} of {w['attempted']} operations failed, "
              f"{w['planned_failures']} of them planned by the churn plan)")
        print(f"  {'metric':<30}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  bound")
        for metric, s in w["end_to_end"].items():
            unit, bound, rule = END_TO_END[metric]
            shown = f"{bound:.0%}" if rule == "lower" else rule.replace("_", " ")
            print(f"  {metric:<30}{unit:<10}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['n']:>4}  {shown}")
        for metric, s in w["measured"].items():
            print(f"  {'measured ' + metric:<30}{'s':<10}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['n']:>4}")
        print(f"  {'host_scale':<30}{'ratio':<10}{w['host_scale']:>14.6g}")
        for metric, v in w.get("per_layer", {}).items():
            print(f"  {metric:<30}{v['unit']:<10}{v['value']:>14.6g}")
        for span, secs in sorted(w.get("self_s", {}).items()):
            print(f"  {'self ' + span:<30}{'s':<10}{secs:>14.6g}")
    checks = report["checks"]
    print(f"\nchecks: {checks['passed']}/{checks['passed'] + len(checks['failed'])} passed")
    for c in checks["failed"]:
        print(f"  FAILED [{c['workload']}] {c['check']}: {c['detail']}")


# --------------------------------------------------------------- compare --

def compare(path_a, path_b):
    """Per (metric, workload): both medians and quartiles, and a verdict.

    unresolved:   a quartile spread (q3 - q1 over the median) exceeds the bound, so the
                  runs cannot tell; unless every run of B reads better than every run of
                  A, which is within bound.
    within bound: otherwise, B's median is no worse than A's by more than the bound.
    worse:        otherwise.
    """
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    print(f"A: {path_a}  ({a['host']['git_commit']}, seed {a['host']['seed']})")
    print(f"B: {path_b}  ({b['host']['git_commit']}, seed {b['host']['seed']})")
    print(f"{'workload':<20}{'metric':<16}{'A median [q1, q3]':>40}{'B median [q1, q3]':>40}"
          f"  verdict")
    counts = {}
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(metric)
            if sb is None:
                continue
            verdict = judge(metric, sa, sb)
            counts[verdict] = counts.get(verdict, 0) + 1

            def cell(s):
                return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"

            print(f"{name:<20}{metric:<16}{cell(sa):>40}{cell(sb):>40}  {verdict}")
    print("\n" + ", ".join(f"{v}: {n}" for v, n in sorted(counts.items())))
    return 0 if set(counts) <= {"within bound"} else 1


def judge(metric, sa, sb):
    _, bound, rule = END_TO_END[metric]
    if rule == "exact":
        return "within bound" if set(sa["values"]) == set(sb["values"]) else "worse"
    if rule == "no_increase":
        return "within bound" if sb["median"] <= sa["median"] else "worse"

    def spread(s):
        return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0

    if spread(sa) > bound or spread(sb) > bound:
        return "within bound" if max(sb["values"]) < min(sa["values"]) else "unresolved"
    return "within bound" if sb["median"] <= sa["median"] * (1.0 + bound) else "worse"


# ----------------------------------------------------- one-workload form --

def one_workload(args):
    """Runs one workload for --seconds; the last stdout line is the JSON result."""
    name, seed, seconds = args.workload, args.seed, args.seconds
    if name not in WORKLOADS:
        raise BenchError(f"unknown workload '{name}' (known: {', '.join(WORKLOADS)})")
    build()
    global deadline
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    chk = Checker()
    if args.trace:
        untraced = run_rep(name, seed, "full")
        w = {}
        traced_ok = traced_pass(chk, w, name, seed, "full", [untraced])
        metrics = {k: {"value": w["per_layer"].get(k, {"value": 0.0})["value"],
                       "unit": PER_LAYER_UNITS[k]} for k in UNIVERSAL_PER_LAYER}
        reps = [untraced]
    else:
        # Closed loop: one repetition after another while one more of the average length
        # still fits.
        reps = []
        while not reps or (reps[-1]["exit_code"] == 0 and (time.perf_counter() - start)
                           * (len(reps) + 1) / len(reps) <= seconds):
            reps.append(run_rep(name, seed, "full"))
            r = reps[-1]
            log(f"[{name}] rep {len(reps)}: measured wall_s {r['wall_s']:.6f} setup_s "
                f"{r['setup_s']:.6f} probe_s {r['probe_s']:.6f} peak_rss_mib "
                f"{r['peak_rss_mib']:.3f}")
        traced_ok = True
        scale = host_scale(reps)
        log(f"[{name}] host_scale {scale:.6f}")
        metrics = {k: {"value": statistics.median(r[k] for r in reps) * scale, "unit": "s"}
                   for k in ("wall_s", "setup_s")}
        metrics["peak_rss_mib"] = {"value": statistics.median(r["peak_rss_mib"] for r in reps),
                                   "unit": "MiB"}
    counts = check_workload(chk, name, seed, "full", reps)
    if not traced_ok:
        counts = all_failed(counts)
    result = {"correct": chk.all_ok(), "attempted": sum(a for a, _, _ in counts),
              "failed": sum(max(0, f - p) for _, f, p in counts), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, help="repetitions per workload (default: per workload)")
    p.add_argument("--traced", action="store_true", help="add a traced pass per workload")
    p.add_argument("--out", help="write the full JSON record here")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, checks only")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out records")
    p.add_argument("--workload", help="run one workload for --seconds (one-workload form)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.reps is not None and args.reps < 1:
        p.error("--reps must be >= 1")
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return one_workload(args)
        return full_run(args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
