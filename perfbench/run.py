#!/usr/bin/env python3
"""qrgrid job-service benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qrgrid checkout. The first run configures and
builds perfbench/CMakeLists.txt (qrgrid's src/ plus the two benchmark
binaries) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset; later runs rebuild incrementally.

--trace 0 runs the untraced binary and reports the end-to-end metrics.
--trace 1 runs the untraced binary and the traced one for half the
seconds each, and reports the per-layer metrics and the tracing overhead.
Metric names and units come from BENCHMARK.json at the checkout root.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A job counts as failed when it is lost, when a run-level trace
check fails, when its real factorization misses the numerics bounds, when
its outcome digest differs from the stored reference, or when the traced
run's outcome differs from the untraced run's. A broken span (a silent
interposer, self times that do not add up) is an error: exit status 1.

--record-reference adds the untraced run's outcome digests to the stored
reference outcomes of the input streams it covered.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("g5k-churn-observed", "wan-contended", "msg-exec")
# A run must end within 180 s after the build; both binaries of a traced
# run share that budget.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880

# Sites that must record calls on each workload. A required site that
# reads zero means its interposer no longer sees the function (renamed
# away, or its callers moved into its own translation unit).
COMMON_SITES = (
    "GridJobService::start", "GridJobService::step", "GridJobService::finish",
    "core::des_tsqr", "GridTopology::location_of", "sched::make_sub_topology",
    "MetaScheduler::allocate", "JobQueue::push", "JobQueue::pop_front",
    "JobQueue::begin", "JobQueue::front", "MetricsRegistry::observe",
    "MetricsRegistry::observe(bounds)")
REQUIRED_SITES = {
    "g5k-churn-observed": COMMON_SITES + (
        "JobQueue::take", "TraceValidator::consume", "TraceValidator::finish",
        "sched::analyze_critical_path", "sched::write_chrome_trace",
        "sched::write_critpath_json"),
    "wan-contended": COMMON_SITES + (
        "GridWanModel::admit", "GridWanModel::retire",
        "GridWanModel::advance", "GridWanModel::next_event_s"),
    "msg-exec": COMMON_SITES + (
        "msg::Runtime::run", "msg::Comm::recv", "msg::Comm::send", "geqrf",
        "tpqrt_tt", "tpmqrt_tt", "ormqr_left", "core::tsqr_factor",
        "core::tsqr_form_explicit_q", "fill_gaussian_rows",
        "factorization_residual", "orthogonality_error"),
}
LAYERS = ("replay", "placement", "service", "queue", "wan", "telemetry",
          "msg", "kernel", "verify")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out


def run_binary(path, workload, seed, seconds, deadline=None):
    cmd = [path, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    timeout = (deadline or time.monotonic() + RUN_BUDGET_S) - time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=max(timeout, 1))
    if done.returncode != 0:
        raise RuntimeError("%s exited with status %d"
                           % (os.path.basename(path), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def count_mismatches(a, b):
    """Jobs whose outcome digest (two hex digits each) differs between two
    runs of one input stream."""
    a = [a[i:i + 2] for i in range(0, len(a), 2)]
    b = [b[i:i + 2] for i in range(0, len(b), 2)]
    return sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))


def compare_streams(result, expected, what):
    """Failed-job count and notes for every pass of `result` whose stream's
    outcomes differ from `expected` (stream -> digests)."""
    failed, notes = 0, []
    for stream, digest in sorted(result["digests"].items(), key=lambda kv: int(kv[0])):
        passes = result["streams"].count(int(stream))
        if stream not in expected:
            failed += passes * len(digest) // 2
            notes.append("stream %s: no %s" % (stream, what))
            continue
        wrong = count_mismatches(digest, expected[stream])
        if wrong:
            failed += passes * wrong
            notes.append("stream %s: %d job outcomes differ from the %s"
                         % (stream, wrong, what))
    return failed, notes


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def load_reference(workload):
    with open(reference_path(workload)) as f:
        return json.load(f)


def span_errors(workload, traced):
    """Self-checks of a traced run; an empty list means the spans hold."""
    errors = []
    layers = traced["layers"]
    sites = traced["sites"]
    for site in REQUIRED_SITES[workload]:
        if sites[site]["calls"] <= 0:
            errors.append("silent span: %s records no calls on %s"
                          % (site, workload))
    wall = layers["trace.wall_s"]
    total = sum(layers[l + ".self_s"] for l in LAYERS) + layers["other.self_s"]
    if abs(total - wall) > 1e-9 * max(1.0, wall) or layers["other.self_s"] < 0:
        errors.append("layer self times plus other.self_s (%r) do not tile "
                      "the traced wall (%r)" % (total, wall))
    for layer in LAYERS:
        if layers[layer + ".self_s"] > traced["layer_incl_s"][layer] * (1 + 1e-12):
            errors.append("%s self time exceeds its inclusive time" % layer)
    if layers["replay.misses"] != traced["backend_profile_misses"]:
        errors.append("core::des_tsqr calls (%r) differ from the backend's "
                      "profile misses (%r)" % (layers["replay.misses"],
                                               traced["backend_profile_misses"]))
    return errors


def overhead_frac(plain, traced):
    """1 - traced/untraced jobs_per_s, over the input streams both runs
    covered (mean seconds per pass of each stream)."""
    def per_pass(result, stream):
        return (result["stream_loop_s"][stream]
                / result["streams"].count(int(stream)))
    common = [s for s in traced["stream_loop_s"] if s in plain["stream_loop_s"]]
    untraced_s = sum(per_pass(plain, s) for s in common)
    traced_s = sum(per_pass(traced, s) for s in common)
    return 1.0 - untraced_s / traced_s


def metric_line(name, value, unit):
    return "  %-30s %16.6g %s" % (name, value, unit)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    plain_s = args.seconds / 2 if args.trace else args.seconds
    plain = run_binary(os.path.join(out, "perfbench"), args.workload,
                       args.seed, plain_s, deadline)

    if args.record_reference:
        path = reference_path(args.workload)
        refs = load_reference(args.workload) if os.path.exists(path) else {}
        refs.update(plain["digests"])
        with open(path, "w") as f:
            json.dump(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))),
                      f, indent=0)
            f.write("\n")
        log("recorded reference outcomes for %s streams %s"
            % (args.workload, " ".join(sorted(plain["digests"], key=int))))

    # Failed jobs: the binary's own checks, then the stored reference.
    attempted = plain["attempted"]
    failed = plain["failed"]
    notes = list(plain["notes"])
    wrong, why = compare_streams(plain, load_reference(args.workload),
                                 "reference outcomes")
    failed += wrong
    notes += why

    print("perfbench %s: seed %d, %d passes over input streams %s"
          % (args.workload, args.seed, plain["passes"],
             " ".join(str(s) for s in plain["streams"])))
    metrics = {}
    if not args.trace:
        print("end-to-end (untraced; %d passes, %d step samples, %d set-up "
              "samples):"
              % (plain["passes"], plain["steps"], plain["setup_samples"]))
        for m in spec["end_to_end"]:
            value = plain[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(metric_line(m["name"], value, m["unit"]))
    else:
        traced = run_binary(os.path.join(out, "perfbench_traced"),
                            args.workload, args.seed, args.seconds / 2,
                            deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        notes += traced["notes"]
        differ, why = compare_streams(
            {"digests": {k: v for k, v in traced["digests"].items()
                         if k in plain["digests"]},
             "streams": traced["streams"]},
            plain["digests"], "untraced run's outcomes")
        failed += differ
        notes += why
        errors = span_errors(args.workload, traced)
        if errors:
            for e in errors:
                log("perfbench: span check failed: " + e)
            return 1
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = overhead_frac(plain, traced)
        wall = layers["trace.wall_s"]
        print("per layer, per pass (traced wall %.4f s; trace.overhead_frac "
              "%.4f):" % (wall, layers["trace.overhead_frac"]))
        for layer in LAYERS + ("other",):
            self_s = layers[layer + ".self_s"]
            print("  %-10s self %10.4f s  %5.1f%%"
                  % (layer, self_s, 100 * self_s / wall))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
            print(metric_line(m["name"], layers[m["name"]], m["unit"]))
    print(metric_line("error_rate", failed / attempted, "fraction")
          + "  (%d of %d jobs failed their outcome check)"
          % (failed, attempted))
    for note in notes:
        print("  note: " + note)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
