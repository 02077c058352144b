#!/usr/bin/env python3
"""perfbench: the repository benchmark.

One command runs one workload, checks its outputs against committed
references, and prints every metric by name with its unit. The last
line of stdout is the result object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

Workloads (BENCHMARK.json says why each exists; README.md why `paper`
runs but is not in the measured set):

  paper        vpexp on the paper's 17 experiments at full scale
  studies      vpexp --dry-run on the seven extension sweeps
  serve_batch  vpd at its defaults, nproc/2 closed-loop clients sending
               BATCH frames of ~512 events over the full-scale traces
  serve_event  vpd at its defaults, nproc/2 closed-loop clients sending one
               PREDICT and one TRAIN frame per event (smoke-scale traces)

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced run: it repeats the workload untraced and traced
(the difference is obs.trace_overhead_frac), times the layers from
outside through the perfbench probes, writes a Perfetto-loadable
timeline, and prints the per-layer metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) on every run; only the first build does any work. All
outputs stay under that directory.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")

PAPER_EXPERIMENTS = [
    "table1", "figure2", "figure3", "figure4", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "table2",
    "table4", "table5", "table6", "table7", "hybrid",
]
STUDY_EXPERIMENTS = [
    "capacity", "confidence", "replacement", "ablation_blending",
    "ablation_hysteresis", "hybrid_split", "aliasing",
]

NPROC = len(os.sched_getaffinity(0))
# Closed-loop clients of the serve workloads.
SERVE_CLIENTS = max(1, NPROC // 2)

WORKLOADS = {
    "paper": {"kind": "vpexp", "experiments": PAPER_EXPERIMENTS,
              "dry_run": False, "scale": 100},
    "studies": {"kind": "vpexp", "experiments": STUDY_EXPERIMENTS,
                "dry_run": True, "scale": 5},
    "serve_batch": {"kind": "vpd", "mode": "batch", "scale": 100},
    "serve_event": {"kind": "vpd", "mode": "event", "scale": 5},
}

# Start-up launches per run; set-up time is their median.
SETUP_LAUNCHES = 9

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "pred_per_s": "events/s",
    "op_p50_us": "us", "op_tail_us": "us", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "vm.record_ns_per_event": "ns/event", "vm.events": "count",
    "trace.encode_ns_per_event": "ns/event",
    "trace.decode_ns_per_event": "ns/event",
    "trace.bytes_per_event": "B/event",
    "core.l.ns_per_event": "ns/event", "core.s2.ns_per_event": "ns/event",
    "core.fcm1.ns_per_event": "ns/event",
    "core.fcm2.ns_per_event": "ns/event",
    "core.fcm3.ns_per_event": "ns/event",
    "core.hybrid.ns_per_event": "ns/event",
    "core.l_1M.ns_per_event": "ns/event",
    "core.s2_1M.ns_per_event": "ns/event",
    "core.fcm3_1M.ns_per_event": "ns/event",
    "core.fcm3_vpd.ns_per_event": "ns/event",
    "sim.bank_build_ms": "ms", "sim.bank_rss_mb": "MB",
    "sim.wide_bank.ns_per_member_event": "ns/event",
    "sim.trackers.ns_per_event": "ns/event",
    "exp.cell_s": "s", "exp.max_cell_s": "s", "exp.queue_s": "s",
    "exp.parallel_eff": "ratio", "exp.dedup_ratio": "ratio",
    "exp.record_s": "s",
    "net.codec_ns_per_frame": "ns/frame",
    "net.bank_apply_ns_per_event": "ns/event",
    "net.transport_us_per_frame": "us/frame",
    "net.stripe_contention_frac": "ratio",
    "net.pool_reuse_frac": "ratio", "net.bytes_per_event": "B/event",
    "obs.trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """A run that cannot produce a result (exit nonzero, no JSON)."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# ---- spans -----------------------------------------------------------

class Spans:
    """In-memory span log of the orchestrator: name, start, end, parent
    and a group id; written at the end with the probes' spans."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def begin(self, name, parent=-1):
        if not self.enabled:
            return -1
        self.spans.append({"name": name, "id": 0, "parent": parent,
                           "lane": 0, "start_ns": time.monotonic_ns(),
                           "end_ns": 0})
        return len(self.spans) - 1

    def end(self, index):
        if index >= 0:
            self.spans[index]["end_ns"] = time.monotonic_ns()


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(i)
    result = []
    for i, span in enumerate(spans):
        covered, cursor = 0, span["start_ns"]
        kids = sorted((max(spans[k]["start_ns"], span["start_ns"]),
                       min(spans[k]["end_ns"], span["end_ns"]))
                      for k in children.get(i, []))
        for start, end in kids:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span["end_ns"] - span["start_ns"] - covered)
    return result


def nest_by_time(events):
    """Parent indices for spans that carry none (vpexp's own timeline):
    the innermost enclosing span on the same lane."""
    parents = [-1] * len(events)
    by_lane = {}
    for i, e in enumerate(events):
        by_lane.setdefault(e["lane"], []).append(i)
    for lane in by_lane.values():
        lane.sort(key=lambda i: (events[i]["start_ns"], -events[i]["end_ns"]))
        stack = []
        for i in lane:
            while stack and events[stack[-1]]["end_ns"] <= events[i]["start_ns"]:
                stack.pop()
            if stack:
                parents[i] = stack[-1]
            stack.append(i)
    return parents


class Timeline:
    """Merges span lists from several processes into one Perfetto
    (Chrome trace-event) file and a self-time ledger."""

    def __init__(self):
        self.processes = []     # (pid label, spans)

    def add(self, label, spans):
        if spans:
            self.processes.append((label, spans))

    def add_file(self, label, path):
        if os.path.exists(path):
            with open(path) as f:
                self.add(label, json.load(f))

    def add_vpexp(self, path, start_ns):
        """vpexp --trace-json events, shifted to the process launch."""
        if not os.path.exists(path):
            return
        with open(path) as f:
            trace = json.load(f)
        events = [{"name": e["name"], "id": 0, "lane": e.get("tid", 0),
                   "start_ns": start_ns + int(e["ts"] * 1000),
                   "end_ns": start_ns + int((e["ts"] + e["dur"]) * 1000)}
                  for e in trace.get("traceEvents", [])
                  if e.get("ph") == "X"]
        for event, parent in zip(events, nest_by_time(events)):
            event["parent"] = parent
        self.add("vpexp", events)

    def write(self, path):
        out, ledger = [], {}
        for pid, (label, spans) in enumerate(self.processes, start=1):
            out.append({"name": "process_name", "ph": "M", "pid": pid,
                        "args": {"name": label}})
            for span, self_ns in zip(spans, self_times(spans)):
                dur = span["end_ns"] - span["start_ns"]
                out.append({"name": span["name"], "ph": "X", "pid": pid,
                            "tid": span["lane"],
                            "ts": span["start_ns"] / 1000.0,
                            "dur": dur / 1000.0,
                            "args": {"id": span["id"],
                                     "parent": span["parent"],
                                     "self_us": self_ns / 1000.0}})
                key = label + ":" + span["name"].split(" ")[0]
                row = ledger.setdefault(key, {"count": 0, "total_ms": 0.0,
                                              "self_ms": 0.0})
                row["count"] += 1
                row["total_ms"] += dur / 1e6
                row["self_ms"] += self_ns / 1e6
        with open(path, "w") as f:
            json.dump({"displayTimeUnit": "ns", "traceEvents": out}, f)
        return ledger


# ---- build and context -------------------------------------------------

def build():
    """Configure once, then build incrementally; returns binary paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("run from the repository root: no CMakeLists.txt "
                         "and src/ next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", str(NPROC),
                    "--target", "vpexp", "vpd", "pb_load", "pb_layers"],
                   check=True, stdout=sys.stderr)
    return {
        "vpexp": os.path.join(CMAKE_DIR, "repo", "bench", "vpexp"),
        "vpd": os.path.join(CMAKE_DIR, "repo", "bench", "vpd"),
        "pb_load": os.path.join(CMAKE_DIR, "pb_load"),
        "pb_layers": os.path.join(CMAKE_DIR, "pb_layers"),
    }


def first_line(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the program's sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "bench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def context(args, workload, load_at_start):
    build_type = None
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    mem = first_line("/proc/meminfo", "MemTotal")
    ctx = {
        "git_sha": sha,
        "git_dirty": (bool(status) if status is not None else None),
        "source_sha256": source_digest(),
        "build_type": build_type,
        "nproc": NPROC,
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "memory": mem,
        "loadavg_at_start": list(load_at_start),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if workload["kind"] == "vpexp":
        ctx["jobs"] = NPROC
        ctx["seed_note"] = "vpexp inputs are fixed; the seed is ignored"
    else:
        ctx["clients"] = SERVE_CLIENTS
    if build_type != "Release":
        ctx["build_warning"] = "non-Release build: %s" % build_type
        log("WARNING: " + ctx["build_warning"])
    return ctx


# ---- processes -----------------------------------------------------------

def wait_rusage(proc):
    """Wait for @p proc; returns (exit status, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_json(cmd, what):
    """Run a probe that prints one JSON object on stdout."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise BenchError("%s exited %d" % (what, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---- vpexp workloads -------------------------------------------------------

def canonical_stats(results):
    """Per experiment: its cells' per-member statistics as sorted lines,
    keyed by workload/input/flags/scale/spec, never by cell id or order.
    Timings and obs counters are left out."""
    cells = {c["id"]: c for c in results["cells"]}
    out = {}
    for experiment in results["experiments"]:
        lines = []
        for cell_id in experiment["cells"]:
            cell = cells[cell_id]
            key = "|".join([cell["workload"], cell["input"], cell["flags"],
                            str(cell["scale"])])
            for p in cell["predictors"]:
                lines.append("%s|%s %d %d %d" % (key, p["spec"], p["eligible"],
                                                 p["predicted"], p["correct"]))
        out[experiment["name"]] = sorted(lines)
    return out


def digest(out_dir, experiments):
    """The run's reference digest: statistics lines and CSV hashes. A
    run that wrote no results fails every experiment."""
    path = os.path.join(out_dir, "BENCH_results.json")
    results = {"cells": [], "experiments": []}
    if os.path.exists(path):
        with open(path) as f:
            results = json.load(f)
    stats = canonical_stats(results)
    ok = {e["name"]: e["ok"] for e in results["experiments"]}
    files = sorted(os.listdir(out_dir))
    result = {}
    for name in experiments:
        csvs = {}
        for fname in files:
            if fname.startswith(name + ".") and fname.endswith(".csv"):
                with open(os.path.join(out_dir, fname), "rb") as f:
                    csvs[fname] = hashlib.sha256(f.read()).hexdigest()
        result[name] = {"ok": ok.get(name, False),
                        "stats": stats.get(name), "csv": csvs}
    return result, results


def check_digest(actual, reference):
    """Names of experiments whose outputs differ from the reference."""
    bad = []
    for name, got in actual.items():
        want = reference.get(name)
        if (want is None or not got["ok"] or got["stats"] != want["stats"]
                or got["csv"] != want["csv"]):
            bad.append(name)
            if want is not None and got["stats"] != want["stats"]:
                diff = sorted(set(got["stats"] or []) ^ set(want["stats"]))
                log("%s: %d statistic lines differ, e.g. %s"
                    % (name, len(diff), diff[:2]))
    return bad


def vpexp_once(bins, workload, args, tag, spans, parent, trace_json=None):
    out_dir = os.path.join(OUT_DIR, "vpexp-" + tag)
    tmp_dir = os.path.join(OUT_DIR, "tmp")
    if os.path.isdir(out_dir):
        for fname in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, fname))
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [bins["vpexp"], "--jobs", str(NPROC), "--out", out_dir]
    if workload["dry_run"]:
        cmd.append("--dry-run")
    if trace_json:
        cmd += ["--trace-json", trace_json]
    cmd += args.experiments or workload["experiments"]
    # The default per-process trace cache lives under TMPDIR: keep it
    # inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    span = spans.begin("vpexp " + tag, parent)
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env)
    status, rss = wait_rusage(proc)
    wall = (time.monotonic_ns() - start_ns) / 1e9
    spans.end(span)
    if status != 0:
        log("vpexp exited %d" % status)
    experiments = args.experiments or workload["experiments"]
    actual, results = digest(out_dir, experiments)
    graded = sum(c["events"] * len(c["predictors"]) for c in results["cells"])
    cell_s = sum(c["wallMs"] for c in results["cells"]) / 1e3
    return {"wall": wall, "rss": rss, "graded": graded, "cell_s": cell_s,
            "digest": actual, "results": results, "status": status,
            "start_ns": start_ns}


def vpexp_setup(bins):
    """Start-up time: launch to exit of `vpexp --list`, median."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic_ns()
        subprocess.run([bins["vpexp"], "--list"], stdout=subprocess.DEVNULL,
                       check=True)
        times.append((time.monotonic_ns() - t0) / 1e9)
    return median(times)


def vpexp_metrics(iterations, setup_s):
    cell_us = sorted(c["wallMs"] * 1000.0 for it in iterations
                     for c in it["results"]["cells"])
    metrics = {
        "wall_s": median([it["wall"] for it in iterations]),
        "setup_s": setup_s,
        # Per second of cell time, summed over the cells: replay
        # throughput, apart from how the cells share the workers.
        "pred_per_s": median([it["graded"] / it["cell_s"]
                              for it in iterations]),
        "op_p50_us": median(cell_us),
        # The slowest cell: the critical path a run cannot beat. A
        # percentile of a few dozen cells moves with whichever cells
        # happen to share the workers.
        "op_tail_us": median([max(c["wallMs"] for c in it["results"]["cells"])
                              * 1000.0 for it in iterations]),
        "peak_rss_mb": median([it["rss"] for it in iterations]),
    }
    details = {"iterations": len(iterations), "op": "cell",
               "op_samples": len(cell_us), "op_tail": "slowest cell",
               "walls_s": [it["wall"] for it in iterations]}
    return metrics, details


def load_reference(args):
    path = args.reference or os.path.join(BENCH_DIR, "reference",
                                          args.workload + ".json")
    with open(path) as f:
        return json.load(f)


def judge_vpexp(iterations, reference):
    attempted = failed = 0
    for it in iterations:
        bad = check_digest(it["digest"], reference)
        attempted += len(it["digest"])
        failed += len(bad)
        if bad:
            log("reference mismatch in: " + ", ".join(bad))
    return attempted, failed


def record_reference(bins, workload, args):
    it = vpexp_once(bins, workload, args, "reference", Spans(False), -1)
    if it["status"] != 0:
        raise BenchError("vpexp failed; no reference written")
    with open(args.record_reference, "w") as f:
        json.dump(it["digest"], f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + args.record_reference)


def run_vpexp(bins, workload, args, spans):
    reference = load_reference(args)
    setup_s = vpexp_setup(bins)
    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(vpexp_once(bins, workload, args,
                                     "run%d" % len(iterations), spans, -1))
        elapsed = time.monotonic() - start
        typical = median([it["wall"] for it in iterations])
        if elapsed + typical > args.seconds:
            break
    attempted, failed = judge_vpexp(iterations, reference)
    metrics, details = vpexp_metrics(iterations, setup_s)
    return metrics, details, attempted, failed


# ---- vpd workloads ---------------------------------------------------------

class Server:
    """One vpd process at its defaults on an ephemeral loopback port."""

    def __init__(self, binary):
        self.start_ns = time.monotonic_ns()
        self.proc = subprocess.Popen([binary], stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        if "127.0.0.1:" not in line or "spec=" not in line:
            self.stop()
            raise BenchError("vpd did not start: " + line.strip())
        self.port = int(line.split("127.0.0.1:")[1].split()[0])
        # The bank spec vpd runs, which the tenant references must use.
        self.spec = line.split("spec=", 1)[1].rsplit(", stripes=", 1)[0]

    def first_reply(self):
        """Connect, send STATS, read the whole reply."""
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            s.sendall(b"\x01\x00\x00\x00\x04")
            data = b""
            while len(data) < 4 or len(data) < 4 + int.from_bytes(
                    data[:4], "little"):
                chunk = s.recv(65536)
                if not chunk:
                    raise BenchError("vpd closed before replying")
                data += chunk
            if data[4] != 0x84:
                raise BenchError("vpd replied with opcode %#x" % data[4])
        return (time.monotonic_ns() - self.start_ns) / 1e9

    def stop(self):
        """SIGTERM (vpd stops gracefully), wait; returns peak RSS MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, rss = wait_rusage(self.proc)
        except ChildProcessError:
            rss = 0.0
            self.proc.wait()
        self.proc.stderr.close()
        return rss


def vpd_setup(bins):
    """Launch-to-first-reply, median over several launches; the last
    server is kept running for the load."""
    times = []
    for i in range(SETUP_LAUNCHES):
        server = Server(bins["vpd"])
        try:
            times.append(server.first_reply())
        except BaseException:
            server.stop()
            raise
        if i + 1 < SETUP_LAUNCHES:
            server.stop()
    return median(times), server


def pb_load(bins, workload, args, server, seconds, spans_path=None,
            layers=False, mode=None, scale=None):
    cmd = [bins["pb_load"], "--port", str(server.port),
           "--mode", mode or workload["mode"],
           "--scale", str(scale or args.serve_scale or workload["scale"]),
           "--clients", str(SERVE_CLIENTS),
           "--seconds", str(seconds), "--seed", str(args.seed),
           "--reference-spec", args.reference_spec or server.spec]
    if spans_path:
        cmd += ["--spans", spans_path]
    if layers:
        cmd.append("--layers")
    return run_json(cmd, "pb_load")


def serve_session(bins, workload, args, seconds, spans, parent,
                  spans_path=None, layers=False, **overrides):
    """Set-up launches, one timed load, server stop. Returns
    (pb_load result with the server's spec added, setup_s, server peak
    RSS MB)."""
    span = spans.begin("vpd setup", parent)
    setup_s, server = vpd_setup(bins)
    spans.end(span)
    try:
        span = spans.begin("load", parent)
        result = pb_load(bins, workload, args, server, seconds,
                         spans_path, layers, **overrides)
        result["spec"] = server.spec
        spans.end(span)
    finally:
        rss = server.stop()
    return result, setup_s, rss


def judge_serve(result):
    stats = result["stats"]
    attempted = int(result["frames"] + result["tenants"])
    failed = int(result["error_frames"] + result["mismatched_tenants"]
                 + stats.get("net.protocol_errors", 0))
    if result["failure"]:
        log("load client failed: " + result["failure"])
        failed += 1
    return max(attempted, 1), failed


def serve_metrics(result, setup_s, rss):
    # The median half-second window resists the stalls a shared host
    # injects into single windows.
    windows = result["window_rates"]
    pred_per_s = (median(windows) if windows
                  else result["events"] / result["load_s"])
    metrics = {
        # One simulator's run over the whole trace set, from the
        # per-tenant stream times.
        "wall_s": result["pass_s"],
        "setup_s": setup_s,
        "pred_per_s": pred_per_s,
        "op_p50_us": result["rtt_p50_us"],
        "op_tail_us": result["rtt_tail_us"],
        "peak_rss_mb": rss,
    }
    details = {"op": "frame", "op_samples": int(result["rtt_samples"]),
               "op_tail_pct": result["rtt_tail_pct"],
               "rtt_windows": int(result["rtt_windows"]),
               "streams": int(result["streams"]),
               "tenants": int(result["tenants"]),
               "events": int(result["events"]),
               "frames": int(result["frames"])}
    return metrics, details


def run_serve(bins, workload, args, spans):
    result, setup_s, rss = serve_session(bins, workload, args, args.seconds,
                                         spans, -1)
    attempted, failed = judge_serve(result)
    metrics, details = serve_metrics(result, setup_s, rss)
    return metrics, details, attempted, failed


# ---- traced run --------------------------------------------------------------

def exp_layer(results, wall_s, trace_json):
    cells = results["cells"]
    cell_s = sum(c["wallMs"] for c in cells) / 1e3
    record_s = 0.0
    if os.path.exists(trace_json):
        with open(trace_json) as f:
            for e in json.load(f).get("traceEvents", []):
                if e.get("ph") == "X" and e["name"].startswith("record "):
                    record_s += e["dur"] / 1e6
    return {
        "exp.cell_s": cell_s,
        "exp.max_cell_s": max(c["wallMs"] for c in cells) / 1e3,
        "exp.queue_s": sum(c["queuedMs"] for c in cells) / 1e3,
        "exp.parallel_eff": cell_s / (results["jobs"] * wall_s),
        "exp.dedup_ratio": results["requestedCells"] / results["uniqueCells"],
        "exp.record_s": record_s,
    }


def net_layer(result):
    stats = result["stats"]
    bank_frames = (stats.get("net.frames.batch", 0)
                   + stats.get("net.frames.train", 0)
                   + stats.get("net.frames.predict", 0))
    graded = stats.get("net.batch_events", 0) + stats.get("net.frames.train", 0)
    return {
        "net.codec_ns_per_frame": result["codec_ns_per_frame"],
        "net.bank_apply_ns_per_event": result["bank_apply_ns_per_event"],
        "net.transport_us_per_frame": result["transport_us_per_frame"],
        "net.stripe_contention_frac":
            stats.get("shard.contentions", 0) / max(bank_frames, 1),
        "net.pool_reuse_frac":
            stats.get("pool.reuses", 0) / max(stats.get("pool.acquires", 0), 1),
        "net.bytes_per_event": stats.get("net.bytes_in", 0) / max(graded, 1),
    }


def layer_probe(bins, scale, vpd_spec, spans_path):
    return run_json([bins["pb_layers"], "--scale", str(scale),
                     "--vpd-spec", vpd_spec, "--spans", spans_path],
                    "pb_layers")


def run_traced(bins, workload, args, spans, timeline):
    """The traced run: untraced vs traced repetition of the workload,
    then the layer probes. Returns (per-layer metrics, details,
    attempted, failed)."""
    tag = "%s-seed%d" % (args.workload, args.seed)
    layers = {}
    attempted = failed = 0
    root = spans.begin("traced " + args.workload)
    if workload["kind"] == "vpexp":
        reference = load_reference(args)
        base = vpexp_once(bins, workload, args, "untraced", spans, root)
        trace_json = os.path.join(OUT_DIR, "vpexp-trace-%s.json" % tag)
        traced = vpexp_once(bins, workload, args, "traced", spans, root,
                            trace_json)
        timeline.add_vpexp(trace_json, traced["start_ns"])
        a, f = judge_vpexp([base, traced], reference)
        attempted, failed = attempted + a, failed + f
        layers.update(exp_layer(traced["results"], traced["wall"], trace_json))
        layers["obs.trace_overhead_frac"] = traced["wall"] / base["wall"] - 1
        # The net layer on this workload's trace scale: a short BATCH
        # session against a fresh vpd.
        load_spans = os.path.join(OUT_DIR, "load-spans-%s.json" % tag)
        span = spans.begin("net session", root)
        result, _, _ = serve_session(
            bins, workload, args, 2, spans, span, load_spans, True,
            mode="batch", scale=workload["scale"])
        spans.end(span)
        vpd_spec = result["spec"]
        timeline.add_file("pb_load", load_spans)
        a, f = judge_serve(result)
        attempted, failed = attempted + a, failed + f
        layers.update(net_layer(result))
    else:
        half = max(1.0, args.seconds / 2.0)
        base, _, _ = serve_session(bins, workload, args, half, spans, root)
        load_spans = os.path.join(OUT_DIR, "load-spans-%s.json" % tag)
        traced, _, _ = serve_session(bins, workload, args, half, spans, root,
                                     load_spans, True)
        timeline.add_file("pb_load", load_spans)
        for result in (base, traced):
            a, f = judge_serve(result)
            attempted, failed = attempted + a, failed + f
        layers.update(net_layer(traced))
        vpd_spec = traced["spec"]
        base_rate = base["events"] / base["load_s"]
        traced_rate = traced["events"] / traced["load_s"]
        layers["obs.trace_overhead_frac"] = base_rate / traced_rate - 1
        # The exp layer: the seven workloads' figure3 cells at smoke
        # scale, traced.
        exp_args = argparse.Namespace(**vars(args))
        exp_args.experiments = ["figure3"]
        exp_wl = {"kind": "vpexp", "dry_run": True,
                  "experiments": ["figure3"]}
        trace_json = os.path.join(OUT_DIR, "vpexp-trace-%s.json" % tag)
        run = vpexp_once(bins, exp_wl, exp_args, "exp-layer", spans, root,
                         trace_json)
        timeline.add_vpexp(trace_json, run["start_ns"])
        attempted += 1
        failed += int(run["status"] != 0)
        layers.update(exp_layer(run["results"], run["wall"], trace_json))

    probe_spans = os.path.join(OUT_DIR, "layer-spans-%s.json" % tag)
    span = spans.begin("layer probe", root)
    probe = layer_probe(bins, args.serve_scale or workload["scale"],
                        vpd_spec, probe_spans)
    spans.end(span)
    timeline.add_file("pb_layers", probe_spans)
    layers.update({k: v for k, v in probe.items() if k in PER_LAYER_UNITS})
    spans.end(root)
    return layers, {"probe": probe}, attempted, failed


# ---- main ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test and maintenance hooks (the self-test uses them at tiny scale).
    parser.add_argument("--experiments", type=lambda s: s.split(","),
                        help="vpexp workloads: run only these experiments")
    parser.add_argument("--reference", help="vpexp reference digest file")
    parser.add_argument("--record-reference", metavar="FILE",
                        help="write the vpexp reference digest and exit")
    parser.add_argument("--serve-scale", type=int,
                        help="serve workloads: trace scale override")
    parser.add_argument("--reference-spec",
                        help="serve workloads: spec of the local reference")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    workload = WORKLOADS[args.workload]
    try:
        bins = build()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.record_reference:
            if workload["kind"] != "vpexp":
                raise BenchError("references are for the vpexp workloads")
            record_reference(bins, workload, args)
            return 0
        ctx = context(args, workload, load_at_start)
        spans = Spans(args.trace == 1)
        timeline = Timeline()
        if args.trace == 0:
            run = run_vpexp if workload["kind"] == "vpexp" else run_serve
            values, details, attempted, failed = run(bins, workload, args,
                                                     spans)
            units = END_TO_END_UNITS
        else:
            values, details, attempted, failed = run_traced(
                bins, workload, args, spans, timeline)
            units = PER_LAYER_UNITS
            timeline.add("perfbench", spans.spans)
            trace_path = os.path.join(
                OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
            details["ledger"] = timeline.write(trace_path)
            details["timeline"] = os.path.relpath(trace_path, ROOT)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
    except (BenchError, OSError, subprocess.CalledProcessError,
            ValueError, KeyError) as error:
        log("error: %s" % error)
        return 1

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report = {"context": ctx, "details": details, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted}
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"context": ctx, "details": details}))
    for name, unit in units.items():
        print("%-36s %16.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
