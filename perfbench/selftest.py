#!/usr/bin/env python3
"""Span self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds S] [--seed N]

Run from the root of a checkout. For every workload it runs the traced and
the untraced binary (building them first, as run.py does) and checks:

- the span checks of run.py hold: every required interposer records
  calls, the layer self times plus other.self_s add up to the traced wall,
  no layer's self time exceeds its inclusive time, and the replay span
  count matches the backend's own miss count;
- every job passes its outcome check and matches the stored reference,
  and the traced run's outcomes equal the untraced run's;
- each layer works where the benchmark says it does: replay is at least
  half of the wall on g5k-churn-observed, the WAN engine is called only
  on wan-contended, and kernels, verification and msg are most of the wall
  on msg-exec, where there are fewer replay misses than a quarter of the
  jobs.

It also feeds the span checks doctored runs, a silent required site and
self times that overrun the wall, and expects both to be reported.
Exit status 0 when every check passes.
"""
import argparse
import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def share(layers, *names):
    return sum(layers[n + ".self_s"] for n in names) / layers["trace.wall_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = run.build()
    traced_runs = {}
    for workload in run.WORKLOADS:
        plain = run.run_binary(os.path.join(out, "perfbench"), workload,
                               args.seed, args.seconds)
        traced = run.run_binary(os.path.join(out, "perfbench_traced"),
                                workload, args.seed, args.seconds)
        traced_runs[workload] = traced
        layers = traced["layers"]
        errors = run.span_errors(workload, traced)
        check(not errors, "%s: span checks %s" % (workload, errors or ""))
        common = {k: v for k, v in traced["digests"].items()
                  if k in plain["digests"]}
        differ, _ = run.compare_streams(
            {"digests": common, "streams": traced["streams"]},
            plain["digests"], "untraced outcomes")
        check(common and differ == 0,
              "%s: traced outcomes equal untraced outcomes on %d streams"
              % (workload, len(common)))
        wrong, _ = run.compare_streams(plain, run.load_reference(workload),
                                       "reference outcomes")
        check(plain["failed"] == 0 and traced["failed"] == 0 and wrong == 0,
              "%s: every job passes its outcome check and matches the "
              "reference" % workload)
        wan = layers["wan.calls"]
        check((wan > 0) == (workload == "wan-contended"),
              "%s: wan.calls = %g" % (workload, wan))
        if workload == "g5k-churn-observed":
            check(share(layers, "replay") >= 0.5,
                  "%s: replay share %.3f >= 0.5"
                  % (workload, share(layers, "replay")))
            check(layers["telemetry.trace_events"] > 0,
                  "%s: telemetry.trace_events > 0" % workload)
        if workload == "msg-exec":
            busy = share(layers, "kernel", "verify", "msg")
            check(busy >= 0.5, "%s: kernel+verify+msg share %.3f >= 0.5"
                  % (workload, busy))
            jobs = traced["attempted"] / traced["passes"]
            misses = layers["replay.misses"] / jobs
            check(misses < 0.25 and share(layers, "replay") < 0.01,
                  "%s: replay misses %.3f per job, replay share %.4f"
                  % (workload, misses, share(layers, "replay")))

    # The checks must fail on a broken span, not read it as 0.
    silent = copy.deepcopy(traced_runs["msg-exec"])
    silent["sites"]["tpqrt_tt"]["calls"] = 0
    check(any("tpqrt_tt" in e for e in run.span_errors("msg-exec", silent)),
          "a silent required span is reported")
    overrun = copy.deepcopy(traced_runs["wan-contended"])
    overrun["layers"]["other.self_s"] -= 2 * overrun["layers"]["trace.wall_s"]
    check(any("tile" in e for e in run.span_errors("wan-contended", overrun)),
          "self times that overrun the traced wall are reported")

    print("%d check(s) failed" % len(failures) if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
