#!/usr/bin/env python3
"""The repository benchmark: one command for every FNCC simulator workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator library from
src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, runs the workload for S
seconds, checks every simulated point against perfbench/references.json
and the run's own invariants, and prints the result as the last stdout
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
variant and reports the per-layer metrics. --record stores the run's
per-point event counts and FCT digests as the reference for its seed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("websearch_k8", "permutation_k16_pdes", "hadoop_stream_k8")
SPEC_FILES = {
    "websearch_k8": "specs/fig14_websearch.exp",
    "permutation_k16_pdes": "specs/fat_tree_k16.exp",
    "hadoop_stream_k8": "specs/fig15_hadoop.exp",
}
# The paper's headline FCT reductions (percent), printed beside the
# simulated ones on websearch_k8.
PAPER_FNCC_VS = {"HPCC": 27.4, "DCQCN": 88.9}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the perfbench target; build output goes
    to stderr so stdout stays the benchmark's."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def load_references():
    try:
        with open(REFERENCES) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def point_problems(p, expect):
    """Why one simulated point fails: an incomplete flow, a missing FCT
    row, a drop, or events/digest differing from `expect`."""
    problems = []
    if p["flows_completed"] != p["flows_total"] or p["flows_total"] < 1:
        problems.append("flows %d/%d" % (p["flows_completed"],
                                         p["flows_total"]))
    if p["rows"] != p["flows_total"]:
        problems.append("%d FCT rows for %d flows" % (p["rows"],
                                                     p["flows_total"]))
    if p["drops"] != 0:
        problems.append("drops %d" % p["drops"])
    for key in ("label", "events", "digest"):
        if p[key] != expect[key]:
            problems.append("%s %s, expected %s" % (key, p[key], expect[key]))
    return problems


def check_points(raw, references):
    """Returns (attempted, failures): one operation per simulated point.
    Each point is checked against the stored reference for its scenario
    seed when there is one, else against the run's first repetition of
    that seed (a point is a pure function of its spec)."""
    first = {}
    for rep in raw["reps"]:
        first.setdefault(rep["scenario_seed"], rep["points"])
    checks = []
    for r, rep in enumerate(raw["reps"]):
        seed = rep["scenario_seed"]
        expected = references.get(str(seed)) or first[seed]
        checks += [("rep %d seed %d" % (r, seed), p, expected[i])
                   for i, p in enumerate(rep["points"])]
    # Determinism contract: exec_domains=1 on one thread gives the same
    # records and event count as the partitioned, threaded run.
    base = raw["reps"][0]["points"]
    checks += [("exec_domains=1", p, base[i])
               for i, p in enumerate(raw["one_lane_reference"])]
    failures = []
    for where, p, expect in checks:
        problems = point_problems(p, expect)
        if problems:
            failures.append("%s %s: %s" % (where, p["label"],
                                           "; ".join(problems)))
    return len(checks), failures


def mean_slowdown_by_mode(raw):
    """Mean FCT slowdown over all flows of every scenario seed, per mode."""
    sums, rows = {}, {}
    for seed in raw["scenario_seeds"]:
        rep = next(r for r in raw["reps"] if r["scenario_seed"] == seed)
        for p in rep["points"]:
            sums[p["label"]] = sums.get(p["label"], 0.0) + \
                p["mean_slowdown"] * p["rows"]
            rows[p["label"]] = rows.get(p["label"], 0) + p["rows"]
    return {label: sums[label] / rows[label] for label in sums}


def untraced(raw):
    return [r for r in raw["reps"] if not r["traced"]]


def rep_total(rep, key):
    return sum(p[key] for p in rep["points"])


# Host speed. perfbench times a fixed kernel that shares no code with the
# simulator (ProbeKernelSeconds) before and after every repetition, on the
# CPUs the repetition runs on. On a shared host a core runs tens of percent
# slower for minutes at a time while other tenants are busy, and the kernel
# slows with it. End-to-end times are therefore reported at one fixed host
# speed: a measured time is scaled by PROBE_REFERENCE_S over the probe time
# next to it. PROBE_REFERENCE_S is the kernel's time on an unloaded 4-vCPU
# Intel Xeon VM, so on such a host the figures read as plain seconds. The
# unscaled times are printed too and kept in the provenance.
PROBE_REFERENCE_S = 0.006


def at_reference_speed(seconds, probe_s):
    return seconds * PROBE_REFERENCE_S / probe_s


def end_to_end(raw):
    """One run of the workload is one repetition of one scenario seed:
    wall_s is the median repetition, each scaled by its own probe; the rates
    divide each repetition's events and completed flows by that time.
    setup_s scales the median set-up replay by the run's median probe."""
    reps = untraced(raw)
    med = statistics.median
    walls = [at_reference_speed(r["wall_s"], r["probe_s"]) for r in reps]
    probe = med(r["probe_s"] for r in raw["reps"])
    return {
        "wall_s": (med(walls), "s"),
        "setup_s": (at_reference_speed(med(raw["setup_s"]), probe), "s"),
        "events_per_s": (med(rep_total(r, "events") / w
                             for r, w in zip(reps, walls)), "1/s"),
        "flows_per_s": (med(rep_total(r, "flows_completed") / w
                            for r, w in zip(reps, walls)), "1/s"),
        "peak_rss_mib": (raw["peak_rss_mib"], "MiB"),
    }


def host_figures(raw):
    """The unscaled medians and the run's host speed (reference probe time
    over the run's median probe time; 1 on the reference host)."""
    med = statistics.median
    return {
        "host_wall_s": med(r["wall_s"] for r in untraced(raw)),
        "host_setup_s": med(raw["setup_s"]),
        "host_speed": PROBE_REFERENCE_S / med(r["probe_s"]
                                              for r in raw["reps"]),
    }


SELF_LAYERS = ("bench", "harness", "sim", "net", "workload", "transport",
               "cc", "exec", "stats")


def per_layer(raw):
    first = raw["reps"][0]
    layers = raw["layers"]
    total = lambda key: rep_total(first, key)
    # Walls of the first scenario seed, whose counts are reported.
    same = [r for r in raw["reps"]
            if r["scenario_seed"] == first["scenario_seed"]]
    wall = statistics.median(r["wall_s"] for r in same if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in same if r["traced"])
    m = {}
    for name in ("sim.partition_s", "net.build_s", "net.routes_s",
                 "net.seal_s", "workload.generate_s", "harness.parse_s",
                 "harness.outputs_s"):
        m[name] = (layers[name], "s")
    for name in ("sim.ns_per_event", "net.forward_ns", "transport.ack_path_ns",
                 "cc.on_ack_ns.DCQCN", "cc.on_ack_ns.HPCC",
                 "cc.on_ack_ns.FNCC", "workload.next_ns", "stats.append_ns",
                 "exec.barrier_cycle_ns"):
        m[name] = (layers[name], "ns")
    m["exec.windows"] = (layers["exec.windows"], "count")
    m["exec.events_per_window"] = (layers["exec.events_per_window"], "count")
    for name in ("exec.lane_imbalance", "exec.steal_share",
                 "exec.sleep_share"):
        m[name] = (layers[name], "ratio")
    counts = {
        "sim.events": "events", "stats.rows": "rows",
        "sim.pool_created": "pool_created",
        "sim.pool_acquired": "pool_acquired",
        "net.pause_frames": "pause_frames",
        "net.resume_frames": "resume_frames",
        "transport.retransmits": "retransmits",
        "transport.out_of_order": "out_of_order",
        "core.lhcs_triggers": "lhcs_triggers",
        "core.asymmetric_acks": "asymmetric_acks",
    }
    for name, key in counts.items():
        m[name] = (total(key), "count")
    # Estimate only: the counts visible from outside times the probed
    # per-call costs, over the untraced wall time. Exact per-event-kind
    # accounting needs counters inside the program.
    covered_ns = (total("events") * layers["sim.ns_per_event"] +
                  total("pool_acquired") * layers["net.forward_ns"] +
                  total("rows") * (layers["workload.next_ns"] +
                                   layers["stats.append_ns"]))
    m["reconcile.coverage"] = (covered_ns * 1e-9 / wall, "ratio")
    m["trace.overhead_pct"] = (100.0 * (traced - wall) / wall, "%")
    for layer in SELF_LAYERS:
        m["self_s." + layer] = (raw["self_s"].get(layer, 0.0), "s")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's points as the seed's reference")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = os.path.join(ROOT, SPEC_FILES[args.workload])
    if not os.path.isfile(spec):
        log("perfbench: %s not found; run from a repository checkout" % spec)
        return 2
    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 2
    out_dir = os.path.join(bdir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: measuring program exited with %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    references = load_references()
    stored = references.setdefault(args.workload, {})
    seeds = [str(s) for s in raw["scenario_seeds"]]
    have_reference = all(s in stored for s in seeds)
    attempted, failures = check_points(raw, stored)
    if args.record and not failures:
        for rep in raw["reps"]:
            stored[str(rep["scenario_seed"])] = [
                {"label": p["label"], "events": p["events"],
                 "digest": p["digest"]} for p in rep["points"]]
        with open(REFERENCES, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(), "cpu": cpu_model(), "build_type": build_type(bdir),
        "threads": raw["threads"], "lanes": raw["lanes"],
        "num_flows": raw["num_flows"], "commit": commit(),
        "src_sha256": source_digest(),
        "scenario_seeds": raw["scenario_seeds"],
        "reference": "stored" if have_reference else "none (invariants only)",
        "point_events": {str(r["scenario_seed"]): {p["label"]: p["events"]
                                                   for p in r["points"]}
                         for r in raw["reps"]},
        "repetitions": len(untraced(raw)),
        "setup_replays": len(raw["setup_s"]),
        "probe_reference_s": PROBE_REFERENCE_S,
    }
    provenance.update(host_figures(raw))
    metrics = per_layer(raw) if args.trace else end_to_end(raw)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for failure in failures:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print("%-26s %14.6g %s" % (name, value, unit))
    if args.workload == "websearch_k8":
        slow = mean_slowdown_by_mode(raw)
        for other in ("HPCC", "DCQCN"):
            pct = 100.0 * (1.0 - slow["FNCC"] / slow[other])
            print("%-26s %14.4f %%  (simulated; paper %.1f)" %
                  ("fncc_vs_%s_pct" % other.lower(), pct,
                   PAPER_FNCC_VS[other]))
        print("note: mean FCT slowdown over all flows; the model has no "
              "validation beyond these two figures")
    if args.trace:
        print("trace: %d spans in %s" % (raw["spans"], raw["trace_file"]))
        if raw["lanes"] == 1:
            print("note: exec.* -- single-lane workload, the window engine "
                  "does no work (barrier cycle probed at 1 participant)")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, "result_%s_seed%d_trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "result": result, "raw": raw},
                  f, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
