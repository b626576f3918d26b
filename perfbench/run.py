#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload repro|dma|chaos
                             --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator libraries, the eleven figure/table
binaries and the in-process driver) into .bench_build/perfbench on first
use, runs the workload for S seconds of host time, checks every simulated
output against perfbench/golden/, and prints one JSON object as the last
line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics, writes the spans to
.bench_build/traces/<workload>-seed<N>.json and prints a self-time table
and the simulator's own cost-centre profile.
Exit status: 0 when every output is correct, 1 on a mismatch, 2 when the
program cannot be built or run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")

WORKLOADS = ("repro", "dma", "chaos")
DEFAULT_SEED = 1
# A run must end within 180 s after the build; a hung child is killed.
RUN_DEADLINE_S = 170
# Repro rounds in a run, at least; each gives every binary one sample.
MIN_REPRO_ROUNDS = 4
# Repro binaries quicker than this get SHORT_SAMPLES samples in all.
SHORT_BINARY_S = 1.5
SHORT_SAMPLES = 8
# An operation with at least this many samples in a run is costed at its
# minimum, one with fewer at its median (see OpCosts).
MIN_SAMPLES = 8
# Driver processes an in-process run is split over (see run_inprocess).
DRIVER_PROCESSES = 4

# The eleven figure/table reproduction binaries, in documented order.
REPRO_BINARIES = (
    "fig01_nic_models", "fig02_nic_latency", "fig04_baseline_bw",
    "fig05_dma_latency", "fig06_latency_cdf", "fig06b_e3_bandwidth",
    "fig07_cache_ddio", "fig08_numa", "fig09_iommu", "table1_systems",
    "table2_findings",
)
CHAOS_MODES = ("classic", "recovery", "overload", "tenant")
RUN_KINDS = ("bw_rd", "bw_wr", "bw_rdwr", "lat_rd", "lat_wrrd")
COUNTERS = (
    "link.up.tlps", "link.down.tlps", "link.down.utilization",
    "link.up.replays", "device.reads_completed", "device.writes_sent",
    "device.fc_stall_ps", "device.read_tags_hwm", "rc.reads",
    "rc.writes_committed", "iommu.tlb_hits", "iommu.tlb_misses",
    "iommu.hit_ratio", "cache.hits", "cache.misses", "cache.hit_ratio",
    "cache.ddio_evictions", "mem.reads", "mem.writes",
)
CHECK_TOTALS = (
    "check.violations", "fault.quarantined_trials", "nic.overload.offered",
    "nic.overload.delivered", "nic.overload.dropped", "vf.perturbed_victims",
    "vf.device_wide_actions",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """The program cannot be built or run: exit 2 without a result."""
    log("perfbench: " + msg)
    sys.exit(2)


# ---- build -----------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    for need in ("src/CMakeLists.txt", "bench/bench_common.hpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail_setup("simulator sources missing (%s); run from a full checkout" % need)
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail_setup("cmake configure failed")
    r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        log(r.stdout[-4000:])
        fail_setup("build failed")
    return out


def host_fingerprint(out):
    """nproc, CPU model, governor, compiler and build type of this run."""
    fp = {"nproc": os.cpu_count(), "machine": platform.machine()}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            fp["governor"] = f.read().strip()
    except OSError:
        fp["governor"] = "unreadable"
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = val
    fp["build_type"] = cache.get("CMAKE_BUILD_TYPE", "")
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        fp["compiler"] = subprocess.run([cxx, "--version"], capture_output=True,
                                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        fp["compiler"] = cxx
    return fp


# ---- statistics ------------------------------------------------------------


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


# ---- golden ----------------------------------------------------------------


def load_golden(workload):
    path = os.path.join(GOLDEN_DIR, workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def counters_digest(snapshot):
    text = ";".join("%s=%r" % (k, snapshot[k]) for k in sorted(snapshot))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_applies(golden, seed):
    """Whether the whole golden holds for this seed. The dma and repro
    goldens hold for every seed; the chaos golden's seeded half only for
    the seed it was recorded with."""
    return golden is not None and golden.get("seed") in (None, seed)


def golden_note(golden, seed):
    if golden_applies(golden, seed):
        return "checked"
    if golden is not None and "reference_sha256" in golden:
        return ("reference campaign checked; seeded campaign checked by invariants "
                "and pass-to-pass identity")
    return "not recorded (invariants and pass-to-pass identity checked)"


# ---- spans -----------------------------------------------------------------


def self_times(spans):
    """Per span name: (count, total ns, self ns). Self = duration minus
    the part of it that child spans cover."""
    child_ns = {}
    for sid, parent, name, op, t0, t1, pid in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    table = {}
    for sid, parent, name, op, t0, t1, pid in spans:
        dur = t1 - t0
        row = table.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns.get(sid, 0)
    return table


def print_self_time_table(table):
    total_self = sum(r[2] for r in table.values()) or 1
    print("self-time per layer (traced passes):")
    print("  %-28s %8s %12s %12s %7s" % ("span", "count", "total_ms", "self_ms", "self%"))
    for name, (n, tot, slf) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print("  %-28s %8d %12.3f %12.3f %6.1f%%" % (name, n, tot / 1e6, slf / 1e6,
                                                   100.0 * slf / total_self))


def print_profile(rows):
    """The simulator's cost-centre profile (obs::Profiler) of the untimed
    profile passes, summed over the driver processes."""
    total = {}
    for center, seconds, events in rows:
        t = total.setdefault(center, [0.0, 0])
        t[0] += seconds
        t[1] += events
    whole = sum(t[0] for t in total.values()) or 1.0
    print("cost-centre profile (obs::Profiler, profile passes):")
    print("  %-28s %12s %12s %7s" % ("centre", "ms", "events", "share"))
    for center, (seconds, events) in sorted(total.items(), key=lambda kv: -kv[1][0]):
        print("  %-28s %12.3f %12d %6.1f%%" % (center, seconds * 1e3, events,
                                             100.0 * seconds / whole))


def unattributed_share(table):
    """Share of traced pass time that no layer span covers: the self time
    of the benchmark's own pass/op wrappers over the pass total."""
    total = table.get("bench.pass", [0, 0, 0])[1]
    if not total:
        return 0.0
    own = sum(row[2] for name, row in table.items() if name in ("bench.pass", "bench.op"))
    return own / total


def write_trace(workload, seed, spans, fingerprint):
    """Chrome trace-event JSON (load in Perfetto or chrome://tracing)."""
    out_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.json" % (workload, seed))
    events = []
    for sid, parent, name, op, t0, t1, pid in spans:
        events.append({"name": name, "ph": "X", "pid": pid, "tid": 1,
                       "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                       "args": {"id": sid, "parent": parent, "op": op}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "otherData": fingerprint}, f)
    return path


# ---- workloads -------------------------------------------------------------


# The launcher being waited for; the run deadline stops it, and it stops
# its child.
_child = None


def on_deadline(signum, frame):
    if _child is not None:
        os.kill(_child, signal.SIGTERM)
        os.waitpid(_child, 0)
    fail_setup("run exceeded its %d s deadline" % RUN_DEADLINE_S)


def launch(out, stdout_path, argv):
    """Run argv through perfbench_launch with its stdout to stdout_path.
    Returns (wall s, cpu s, max RSS KB, exit status) of that child alone:
    Linux keeps a process's peak RSS across exec, so a child spawned from
    this Python process would report at least this process's RSS."""
    global _child
    launcher = os.path.join(out, "perfbench_launch")
    r, w = os.pipe()
    _child = os.posix_spawn(launcher, [launcher, stdout_path] + argv, os.environ,
                            file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    with os.fdopen(r) as f:
        report = f.read()
    _, status = os.waitpid(_child, 0)
    _child = None
    if os.waitstatus_to_exitcode(status) != 0:
        fail_setup("perfbench_launch failed on %s" % argv[0])
    m = json.loads(report)
    return m["wall_s"], m["cpu_s"], m["maxrss_kb"], m["exit"]


def run_driver(out, workload, seed, seconds, trace):
    exe = os.path.join(out, "perfbench_driver")
    path = os.path.join(out, "driver-%s.json" % workload)
    _, _, rss, code = launch(out, path, [exe, "--workload", workload, "--seed", str(seed),
                                         "--seconds", repr(seconds),
                                         "--trace", "1" if trace else "0"])
    if code != 0:
        fail_setup("driver exited with %d" % code)
    with open(path) as f:
        res = json.load(f)
    res["peak_rss_kb"] = rss
    return res


def run_inprocess(out, workload, seed, seconds, trace):
    """Split the run over DRIVER_PROCESSES driver processes and merge
    their samples. A whole chaos process was seen to run 1.5-1.8x slower
    than the next while other workloads were not, so the slowness stays
    with a process; minimum costs taken across several processes do not
    depend on one. Every process must produce the same outputs."""
    merged = None
    for k in range(DRIVER_PROCESSES):
        res = run_driver(out, workload, seed, seconds / DRIVER_PROCESSES, trace)
        res["spans"] = [span + [k + 1] for span in res["spans"]]
        if merged is None:
            merged = res
            continue
        if res["lines"] != merged["lines"]:
            merged["failures"].append("driver process %d did not reproduce process 1" % (k + 1))
        base = len(merged["passes"])
        merged["passes"] += [dict(p, index=p["index"] + base) for p in res["passes"]]
        merged["ops"] += res["ops"]
        merged["setups"] += res["setups"]
        merged["profile"] += res["profile"]
        merged["failures"] += res["failures"]
        merged["attempted"] += res["attempted"]
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], res["peak_rss_kb"])
        # Span ids restart in every process; keep them unique.
        off = k * 10**9
        merged["spans"] += [[sid + off, parent + off if parent else 0, name, op + off, t0, t1, pid]
                            for sid, parent, name, op, t0, t1, pid in res["spans"]]
    return merged


def run_repro(out, seed, seconds, trace, golden):
    """The eleven reproduction binaries, serially, as child processes.

    A round runs every binary once, in a seed-shuffled order; rounds
    repeat until --seconds is spent, at least MIN_REPRO_ROUNDS, so that
    every binary has samples some 15-20 s apart. With --trace 1 every
    second round is traced. Then the binaries quicker than SHORT_BINARY_S run again
    until they have SHORT_SAMPLES untraced samples: a burst of host load
    that a long binary averages out can double a short one."""
    # Set-up samples from several driver processes, as in run_inprocess.
    setups = []
    for _ in range(DRIVER_PROCESSES):
        setups += run_driver(out, "repro_setup", seed, 1, False)["setups"]
    repro_dir = os.path.join(out, "repro")
    out_dir = os.path.join(out, "repro-out")
    os.makedirs(out_dir, exist_ok=True)
    # Untimed warm-up: page in the shortest binaries.
    for b in ("fig01_nic_models", "table1_systems"):
        launch(out, os.path.join(out_dir, b + ".out"), [os.path.join(repro_dir, b)])

    rng = random.Random(seed)
    apply_golden = golden_applies(golden, seed)
    res = {"setups": setups, "passes": [], "ops": [], "failures": [],
           "spans": [], "attempted": 0, "digests": {}, "profile": []}
    t_start = time.perf_counter()
    next_id = 1
    peak_rss = 0
    quickest = {}  # binary -> (untraced samples, quickest untraced wall)
    full_rounds = True
    while True:
        rounds = len(res["passes"])
        elapsed = time.perf_counter() - t_start
        if (full_rounds and rounds >= MIN_REPRO_ROUNDS
                and elapsed + elapsed / rounds > seconds):
            full_rounds = False
        if full_rounds:
            order = list(REPRO_BINARIES)
            traced = trace and rounds % 2 == 1
        else:
            order = [b for b, (n, wall) in quickest.items()
                     if wall < SHORT_BINARY_S and n < SHORT_SAMPLES]
            traced = False
            if not order:
                break
        rng.shuffle(order)
        pass_id = next_id
        next_id += 1
        p0 = time.perf_counter_ns()
        cpu_sum = 0.0
        for b in order:
            o0 = time.perf_counter_ns()
            wall, cpu, rss, code = launch(out, os.path.join(out_dir, b + ".out"),
                                          [os.path.join(repro_dir, b)])
            o1 = time.perf_counter_ns()
            if traced:
                res["spans"].append([next_id, pass_id, "repro." + b, next_id, o0, o1, 1])
                next_id += 1
            with open(os.path.join(out_dir, b + ".out"), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            res["attempted"] += 1
            if code != 0:
                res["failures"].append("%s exited with %d" % (b, code))
            elif apply_golden and golden["binaries"].get(b) != digest:
                res["failures"].append("%s stdout differs from golden" % b)
            res["digests"][b] = digest
            peak_rss = max(peak_rss, rss)
            res["ops"].append([b, traced, 1, wall * 1e6, cpu * 1e6, 0, 0, 0, {}])
            if not traced:
                n, best = quickest.get(b, (0, wall))
                quickest[b] = (n + 1, min(best, wall))
            cpu_sum += cpu
        p1 = time.perf_counter_ns()
        if traced:
            res["spans"].append([pass_id, 0, "bench.pass", 0, p0, p1, 1])
        res["passes"].append({"index": rounds + 1, "traced": traced,
                              "wall_s": (p1 - p0) / 1e9, "cpu_s": cpu_sum})
    res["peak_rss_kb"] = peak_rss
    return res


def line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def check_inprocess(res, golden, seed):
    """Golden comparison of the driver's record pass. Goldens hold either
    the canonical lines or, for the long chaos campaigns, their digests."""
    failures = list(res["failures"])
    if golden is None:
        return failures
    got = res["lines"]
    if "lines" in golden:
        want, have = golden["lines"], got
    else:
        want = list(golden["reference_sha256"])
        if golden_applies(golden, seed):
            want += golden["seeded_sha256"]
        have = [line_digest(line) for line in got]
    for i, line in enumerate(got[:len(want)]):
        if want[i] != have[i]:
            failures.append("golden mismatch: " + line)
    if len(got) < len(want):
        failures.append("golden holds %d operations, run made %d" % (len(want), len(got)))
    want_c = golden.get("counters_sha256", {})
    for key, snap in res["counters"]:
        if want_c.get(key) != counters_digest(snap):
            failures.append("golden counter snapshot mismatch: " + key)
    return failures


# ---- metrics ---------------------------------------------------------------


class OpCosts:
    """Each operation's cost in a run: its wall time, CPU time and every
    named part, reduced over the run's samples of that operation.

    The host shares its cores and memory with other tenants whose load
    comes in bursts, within episodes of minutes, and slows everything by
    up to 2x. An operation sampled often (MIN_SAMPLES or more: every
    in-process operation, the repro binaries quicker than SHORT_BINARY_S)
    has some samples in the quiet gaps between bursts, so its minimum is
    the steady estimate. Each in-process entry of `ops` is then already a
    minimum over one driver process's `n` samples. A repro binary that runs
    for seconds gets a few samples, one a round; whether one of them was
    quiet is chance, so its minimum jumps between runs and its median is
    the steady estimate."""

    def __init__(self, ops, traced=False):
        samples = {}
        self.ops = {}
        self.samples = 0
        for key, is_traced, n, wall, cpu, tlps, events, dmas, parts in ops:
            if bool(is_traced) != traced:
                continue
            self.samples += n
            s = samples.setdefault(key, {"n": 0, "wall": [], "cpu": [], "parts": {}})
            s["n"] += n
            s["wall"].append(wall)
            s["cpu"].append(cpu)
            for name, us in parts.items():
                s["parts"].setdefault(name, []).append(us)
            self.ops.setdefault(key, {"tlps": tlps, "events": events, "dmas": dmas})
        for key, s in samples.items():
            reduce = min if s["n"] >= MIN_SAMPLES else statistics.median
            q = self.ops[key]
            q["wall"] = reduce(s["wall"])
            q["cpu"] = reduce(s["cpu"])
            q["parts"] = {name: reduce(xs) for name, xs in s["parts"].items()}

    def total(self, field, keys=None):
        return sum(q[field] for k, q in self.ops.items() if keys is None or k in keys)

    def parts(self, name, keys=None):
        return [q["parts"][name] for k, q in self.ops.items()
                if name in q["parts"] and (keys is None or k in keys)]


def setup_quiet(setups):
    """Per set-up shape, the quickest (build, prepare) sample; set-ups
    take microseconds and are sampled dozens of times."""
    best = {}
    for key, _, build, prepare in setups:
        b, p = best.get(key, (build, prepare))
        best[key] = (min(b, build), min(p, prepare))
    return best


def end_to_end(res):
    costs = OpCosts(res["ops"])
    walls = [q["wall"] for q in costs.ops.values()]
    setups = setup_quiet(res["setups"]).values()
    return {
        "wall_s": (costs.total("wall") / 1e6, "s"),
        "cpu_s": (costs.total("cpu") / 1e6, "s"),
        "op_p50_us": (percentile(walls, 50), "us"),
        "op_p90_us": (percentile(walls, 90), "us"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (sum(b + p for b, p in setups), "s"),
    }, costs


def per_layer(res, table):
    costs = OpCosts(res["ops"])
    m = {}
    for b in REPRO_BINARIES:
        q = costs.ops.get(b, {"wall": 0.0, "cpu": 0.0})
        m["repro.%s.wall_s" % b] = (q["wall"] / 1e6, "s")
        m["repro.%s.cpu_s" % b] = (q["cpu"] / 1e6, "s")

    setups = setup_quiet(res["setups"]).values()
    m["sim.build_s"] = (sum(b for b, _ in setups), "s")
    m["core.prepare_s"] = (sum(p for _, p in setups), "s")
    for kind in RUN_KINDS:
        keys = {k for k in costs.ops if k.split(" ")[-1].split("/")[0].lower() == kind}
        m["core.run_s." + kind] = (sum(costs.parts("core.run", keys)) / 1e6, "s")
    dmas = costs.total("dmas")
    run_cpu = sum(costs.parts("core.run_cpu"))
    m["core.run_ns_per_dma"] = (run_cpu * 1e3 / dmas if dmas else 0.0, "ns")
    tlps = costs.total("tlps")
    events = costs.total("events")
    m["host_ns_per_tlp"] = (costs.total("cpu") * 1e3 / tlps if tlps else 0.0, "ns")
    m["sim.events"] = (float(events), "count")
    m["sim.events_per_tlp"] = (events / tlps if tlps else 0.0, "ratio")
    m["model_gap_pct"] = (res.get("model_gap_pct", 0.0), "%")

    snaps = [snap for _, snap in res.get("counters", [])]

    def total(name):
        return float(sum(s.get(name, 0.0) for s in snaps))

    for name in COUNTERS:
        unit = "ps" if name.endswith("_ps") else "count"
        if name == "link.down.utilization":
            val = total(name) / len(snaps) if snaps else 0.0
            unit = "ratio"
        elif name == "device.read_tags_hwm":
            val = max([s.get(name, 0.0) for s in snaps] or [0.0])
        elif name.endswith("hit_ratio"):
            hit, miss = {"iommu": ("iommu.tlb_hits", "iommu.tlb_misses"),
                         "cache": ("cache.hits", "cache.misses")}[name.split(".")[0]]
            hit, miss = total(hit), total(miss)
            val = hit / (hit + miss) if hit + miss else 0.0
            unit = "ratio"
        else:
            val = total(name)
        m[name] = (val, unit)

    gen = [us / 1e6 for us in costs.parts("check.generate_trial")]
    m["check.generate_trial_s.p50"] = (percentile(gen, 50), "s")
    m["check.generate_trial_s.p99"] = (percentile(gen, 99), "s")
    for mode in CHAOS_MODES:
        keys = {k for k in costs.ops if k.endswith(" " + mode)}
        xs = [us / 1e6 for us in costs.parts("check.run_trial", keys)]
        m["check.run_trial_s.%s.p50" % mode] = (percentile(xs, 50), "s")
        m["check.run_trial_s.%s.p99" % mode] = (percentile(xs, 99), "s")
    totals = res.get("totals", {})
    for name in CHECK_TOTALS:
        m[name] = (float(totals.get(name, 0.0)), "count")

    # Tracing overhead: the same operations' CPU time, traced over
    # untraced (the children's CPU time on repro).
    traced = OpCosts(res["ops"], traced=True)
    keys = set(traced.ops)
    base = costs.total("cpu", keys)
    m["obs.trace_overhead_x"] = (traced.total("cpu") / base if base else 0.0, "x")
    m["obs.unattributed_share"] = (unattributed_share(table), "ratio")
    return m


# ---- main ------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write this run's outputs as the golden instead of checking")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build()
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    fp = host_fingerprint(out)
    print("host: " + json.dumps(fp, sort_keys=True))
    golden = None if args.record_golden else load_golden(args.workload)
    if golden is None and not args.record_golden:
        fail_setup("no golden for workload %s in %s" % (args.workload, GOLDEN_DIR))

    trace = args.trace == 1
    if args.workload == "repro":
        res = run_repro(out, args.seed, args.seconds, trace, golden)
        failures = res["failures"]
    else:
        res = run_inprocess(out, args.workload, args.seed, args.seconds, trace)
        failures = check_inprocess(res, golden, args.seed)

    if args.record_golden:
        record_golden(args.workload, args.seed, res)

    attempted = res["attempted"]
    for f in failures[:20]:
        log("FAIL: " + f)
    print("operations: attempted=%d failed=%d fail_ratio=%.6g golden=%s"
          % (attempted, len(failures), len(failures) / max(attempted, 1),
             golden_note(golden, args.seed)))

    e2e, costs = end_to_end(res)
    samples = costs.samples
    timed_s = sum(p["wall_s"] for p in res["passes"] if not p["traced"])
    unit = {"repro": "binaries", "chaos": "trials"}.get(args.workload, "sweep points")
    print("samples: %d %s, %d untraced samples of them; op_p50_us/op_p90_us are over "
          "the %d operation costs; %d set-up samples of %d shapes"
          % (len(costs.ops), unit, samples, len(costs.ops),
             sum(s[1] for s in res["setups"]), len(setup_quiet(res["setups"]))))
    if e2e["wall_s"][0] > 0 and timed_s > 0:
        print("throughput: %.6g %s/s at the operation costs; %.6g/s over the timed run"
              % (len(costs.ops) / e2e["wall_s"][0], unit, samples / timed_s))
    if trace:
        table = self_times(res["spans"])
        print_self_time_table(table)
        if res["profile"]:
            print_profile(res["profile"])
        path = write_trace(args.workload, args.seed, res["spans"], fp)
        print("trace: %d spans written to %s" % (len(res["spans"]), os.path.relpath(path, ROOT)))
        metrics = per_layer(res, table)
        print("obs.trace_overhead_x=%.4f obs.unattributed_share=%.4f"
              % (metrics["obs.trace_overhead_x"][0], metrics["obs.unattributed_share"][0]))
    else:
        metrics = e2e
    for name, (val, metric_unit) in metrics.items():
        print("  %-36s %16.6g %s" % (name, val, metric_unit))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


def record_golden(workload, seed, res):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    if workload == "repro":
        data = {"seed": None, "binaries": dict(sorted(res["digests"].items()))}
    else:
        lines = res["lines"]
        if workload == "chaos":
            digests = [line_digest(line) for line in lines]
            ref = sum(line.startswith("ref ") for line in lines)
            data = {"reference_sha256": digests[:ref], "seed": seed,
                    "seeded_sha256": digests[ref:]}
        else:
            data = {"seed": None, "lines": lines}
        if res["counters"]:
            data["counters_sha256"] = {k: counters_digest(s) for k, s in res["counters"]}
    with open(os.path.join(GOLDEN_DIR, workload + ".json"), "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
    log("perfbench: golden written for %s" % workload)


if __name__ == "__main__":
    main()
