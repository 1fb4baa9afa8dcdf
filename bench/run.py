"""sdepf benchmark: end-to-end and per-layer metrics of one workload.

Run from the repository root:

    python3 bench/run.py --workload ou_boot --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

The first form measures one workload in this process and prints, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  --all runs every workload in both modes, each in its own
process, and prints every metric by name and unit.  bench/README.md says
why each workload exists and what each metric means.

The package is imported from src/ of the checkout this file sits in; the
benchmark exits with an error, printing no result, when there is none.
Everything it writes goes to .bench_out/ in the checkout.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_START = time.perf_counter()

# One BLAS thread: the filter's own `threads` setting is then the whole
# load.  OpenBLAS's default pool, one worker per core, spins between
# calls and on two cores takes the second core from the filter.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ou_boot", "pendulum_param", "lineargauss_rb", "cli_epidemic_t2")

# setup_s is the median import time over IMPORT_REPEATS fresh
# interpreters plus the median over SETUP_REPEATS of input simulation
# and model construction.
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
# Calls per run at least, whatever --seconds says: the determinism check
# needs a repeat, and the traced run needs two traced calls to check that
# its counts repeat exactly.
MIN_CALLS = 2
# Calls that stop after the first update run after each full call: at
# least MIN_PROBES, and as many as fill PROBE_SHARE of the full call.
MIN_PROBES = 2
PROBE_SHARE = 0.2
# No new call starts after this many seconds of the process, so that a
# run ends well inside three minutes even if calls become slow.
START_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "particle_steps_per_s": "1/s", "first_update_s": "s",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "noise.bytes":
        return "bytes"
    if name == "filtering.threads.speedup_2v1":
        return "ratio"
    if name.endswith(("_frac", "_frac_mean")):
        return "fraction"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import sdepf from this checkout's src/ and the benchmark modules."""
    init = SRC / "sdepf" / "__init__.py"
    if not init.is_file():
        sys.exit("bench: no package source at %s; run from a checkout of "
                 "the repository" % init)
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import sdepf
    import tracing
    import workloads
    if Path(sdepf.__file__).resolve() != init.resolve():
        sys.exit("bench: imported sdepf from %s, not %s"
                 % (sdepf.__file__, init))
    return numpy, scipy, sdepf, tracing, workloads


class Calls:
    """Attempted calls and the reasons each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}
        self.reference = None
        self.probe_digest = None

    def fail(self, call_id, reason):
        self.failures.setdefault(call_id, []).append(reason)

    @property
    def failed(self):
        return len(self.failures)

    def run(self, wl, inputs, call, probe=False):
        """Time and check one call.

        A probe is a first_only call: it must not fail and must repeat
        the first probe's digest; the full checks need every update.
        Returns (call id, wall s, first update s, step gaps s), with wall
        None when the call raised and first None when it stopped short.
        """
        call_id = self.attempted
        self.attempted += 1
        marks = []
        t0 = time.perf_counter()
        try:
            out = call(lambda: marks.append(time.perf_counter()))
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(call_id, "raised %s: %s" % (type(exc).__name__, exc))
            return call_id, None, None, []
        wall = time.perf_counter() - t0
        try:
            digest = wl.digest(out)
            ok, detail = (True, "") if probe else wl.check(out, inputs)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            self.fail(call_id, "unreadable output: %s: %s"
                      % (type(exc).__name__, exc))
            return call_id, wall, None, []
        if probe:
            if self.probe_digest is None:
                self.probe_digest = digest
            elif digest != self.probe_digest:
                self.fail(call_id, "digest differs from the first probe")
        else:
            if not ok:
                self.fail(call_id, "check failed: " + detail)
            if self.reference is None:
                self.reference = (digest, detail)
            elif digest != self.reference[0]:
                self.fail(call_id, "summary digest differs from the first call")
        expected = 1 if probe else wl.intervals
        if len(marks) != expected:
            self.fail(call_id, "%d measurement updates, expected %d"
                      % (len(marks), expected))
            return call_id, wall, None, []
        # A call that ran to the end is timed even if its output failed
        # a check: the failure is reported through `failed`.
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        return call_id, wall, marks[0] - t0, gaps


# glibc's sysconf names for the L2 and L3 cache sizes, which os.sysconf
# does not expose.
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def environment(np, scipy, sdepf, args, wl):
    def sysconf(code):
        try:
            value = ctypes.CDLL(None).sysconf(code)
        except (OSError, AttributeError):
            return None
        return value if value > 0 else None

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "sdepf": sdepf.__version__,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workload": wl.name, **wl.sizes(), "src_lines": src_lines,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def measure_import():
    """Median seconds to import the package, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import sdepf.cli; print(time.perf_counter() - t)" % str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def measure_setup(wl, seed, workdir):
    """Simulate inputs and build the call SETUP_REPEATS times.

    Returns (median seconds, inputs, call) from the last repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.simulate(seed, workdir)
        call = wl.build(inputs, seed, wl.threads, workdir)
        times.append(time.perf_counter() - t0)
    return median(times), inputs, call


def time_left(deadline, done, rounds):
    """Whether to start another round of calls.

    After MIN_CALLS rounds, a round starts only if half a typical round
    still fits before the deadline, so that runs last about --seconds.
    """
    now = time.perf_counter()
    if now - _START > START_LIMIT_S:
        return False
    return done < MIN_CALLS or now + 0.5 * median(rounds) < deadline


def end_to_end(np, wl, calls, inputs, call, args, setup_s, workdir):
    probe = wl.build(inputs, args.seed, wl.threads, workdir, first_only=True)
    walls, firsts, gaps, rounds = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while time_left(deadline, len(rounds), rounds):
        t0 = time.perf_counter()
        _, wall, first, step_gaps = calls.run(wl, inputs, call)
        if first is not None:
            walls.append(wall)
            firsts.append(first)
            gaps.extend(step_gaps)
        # first_update_s is one short interval per call; probes add
        # samples of it without the cost of full calls.
        n_probes = MIN_PROBES
        if first is not None:
            n_probes = max(MIN_PROBES, int(PROBE_SHARE * wall / first))
        for _ in range(n_probes):
            first = calls.run(wl, inputs, probe, probe=True)[2]
            if first is not None:
                firsts.append(first)
        rounds.append(time.perf_counter() - t0)
    if not walls:
        return None, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "particle_steps_per_s": median([wl.particle_steps() / w for w in walls]),
        "first_update_s": median(firsts),
        "step_ms_p50": float(np.percentile(gaps, 50)) * 1e3,
        "step_ms_p90": float(np.percentile(gaps, 90)) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {"calls_timed": len(walls), "step_samples": len(gaps),
             "first_update_samples": len(firsts), "wall_s": walls,
             "first_update_s": firsts}
    return metrics, notes


def baseline_ranking(name, m, wall):
    """ROADMAP's hand-profile ranking, checked on the traced medians.

    Returns [(claim, holds)].  These describe the parent code's profile:
    a change that removes a hot spot is expected to flip them, so they
    are reported and never counted as failures.
    """
    layers = {
        "noise": m["filtering.draw_increments.s"] + m["filtering.seed_streams.s"],
        "init": m["filtering.init_particle_set.s"],
        "kernel": m["girsanov.propagate.self_s"]
        + m["raoblackwell.rb_gauss_step.self_s"],
        "proposals": m["proposals.builder.self_s"] + m["proposals.ekf_predict.s"]
        + m["proposals.ekf_condition.s"] + m["proposals.build_bridge.s"],
        "guarded_inv": m["linalg.guarded_inv.s"],
        "measurement": m["filtering.measurement.s"],
        "weighting": m["filtering.finish_step.self_s"]
        + m["filtering.systematic_resample.s"],
        "conjugate": m["conjugate.update.s"]
        + m["raoblackwell.rb_param_step.self_s"],
        "summaries": m["conjugate.sample.s"] + m["filtering.run_filter.self_s"],
    }
    top = max(layers, key=layers.get)
    shares = ", ".join("%s %.0f%%" % (k, 100 * v / wall)
                       for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
    out = []
    if name == "ou_boot":
        out.append(("noise (draw_increments + seed_streams) is the largest "
                    "layer [%s]" % shares, top == "noise"))
    if name == "pendulum_param":
        out.append(("summaries (conjugate.sample + run_filter self) is the "
                    "largest layer [%s]" % shares, top == "summaries"))
    if name in ("pendulum_param", "lineargauss_rb"):
        share = layers["guarded_inv"] / wall
        out.append(("guarded_inv is a visible share (%.1f%% >= 5%%)"
                    % (100 * share), share >= 0.05))
    return out


def traced(np, tracing, wl, calls, inputs, plain, args, workdir):
    """Alternate untraced and traced calls, then one at the other thread
    count; returns (per-layer metrics, notes, tracer)."""
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_call = wl.build(inputs, args.seed, wl.threads, workdir)
    plain_walls, traced_walls, runs = [], [], []
    # The first call in a process pays for faulting in memory that later
    # calls reuse; keep it out of the traced/untraced comparison.
    calls.run(wl, inputs, plain)
    deadline = time.perf_counter() + args.seconds
    pairs = []
    while time_left(deadline, len(runs), pairs):
        t0 = time.perf_counter()
        # Alternate which of the pair goes first, so that neither side
        # always pays for the other's leftovers (caches, freed memory).
        for plain_turn in ((False, True) if len(runs) % 2 else (True, False)):
            if plain_turn:
                _, wall, _, _ = calls.run(wl, inputs, plain)
                if wall is not None:
                    plain_walls.append(wall)
                continue
            with tracer.installed(run=len(runs)):
                call_id, wall, _, _ = calls.run(wl, inputs, traced_call)
            runs.append(call_id)
            if wall is not None:
                traced_walls.append(wall)
        pairs.append(time.perf_counter() - t0)
        if len(plain_walls) < len(runs) or len(traced_walls) < len(runs):
            break
    other = 1 if wl.threads > 1 else 2
    _, other_wall, _, _ = calls.run(
        wl, inputs, wl.build(inputs, args.seed, other, workdir))
    if not plain_walls or not traced_walls or other_wall is None:
        return None, {}, tracer

    per_run, first_exact = [], None
    for run, call_id in enumerate(runs):
        m, span_calls, exact = tracer.layer_metrics(run)
        per_run.append(m)
        silent = [n for n in wl.layers if span_calls[n] == 0]
        if silent:
            calls.fail(call_id, "no calls recorded for " + ", ".join(silent))
        if first_exact is None:
            first_exact = exact
        elif exact != first_exact:
            diff = sorted(k for k in set(exact) | set(first_exact)
                          if exact.get(k) != first_exact.get(k))
            calls.fail(call_id, "counts differ from the first traced call: "
                       + ", ".join(diff))
    metrics = {k: median([m[k] for m in per_run]) for k in per_run[0]}
    t_one, t_two = (other_wall, median(plain_walls)) if wl.threads > 1 \
        else (median(plain_walls), other_wall)
    metrics["filtering.threads.speedup_2v1"] = t_one / t_two
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    notes = {"traced_calls": len(traced_walls), "plain_calls": len(plain_walls),
             "traced_wall_s": traced_walls, "plain_wall_s": plain_walls,
             "threads_%d_wall_s" % other: other_wall,
             "missing_bindings": tracer.missing,
             "ranking": baseline_ranking(wl.name, metrics,
                                         median(traced_walls))}
    return metrics, notes, tracer


def run_one(args):
    np, scipy, sdepf, tracing, workloads = import_package()
    wl = workloads.WORKLOADS[args.workload]
    tag = "%s_seed%d_trace%d" % (wl.name, args.seed, args.trace)
    workdir = OUT / ("work_" + tag)
    OUT.mkdir(exist_ok=True)
    setup_s, inputs, plain = measure_setup(wl, args.seed, workdir)
    setup_s += measure_import()

    calls = Calls()
    if args.trace:
        metrics, notes, tracer = traced(np, tracing, wl, calls, inputs, plain,
                                        args, workdir)
        tracer.write_jsonl(OUT / ("trace_%s.jsonl" % tag))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, notes = end_to_end(np, wl, calls, inputs, plain, args,
                                    setup_s, workdir)
        units = END_TO_END_UNITS
    if metrics is None:
        for call_id, reasons in sorted(calls.failures.items()):
            print("call %d failed: %s" % (call_id, "; ".join(reasons)),
                  file=sys.stderr)
        sys.exit("bench: no call of %s completed" % wl.name)

    env = environment(np, scipy, sdepf, args, wl)
    failures = {str(k): v for k, v in sorted(calls.failures.items())}
    report = {"workload": wl.name, "why": wl.why, "env": env,
              "check": calls.reference[1] if calls.reference else None,
              "notes": notes, "failures": failures,
              "attempted": calls.attempted, "failed": calls.failed,
              "error_rate": calls.failed / calls.attempted,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    with open(OUT / ("BENCH_%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("env " + json.dumps(env))
    print("check (first call): %s" % report["check"])
    for claim, holds in notes.get("ranking", []):
        print("baseline ranking %s: %s" % ("holds" if holds else "differs", claim))
    for call_id, reasons in failures.items():
        print("FAILED call %s: %s" % (call_id, "; ".join(reasons)))
    for k, v in metrics.items():
        print("%-36s %16.6g %s" % (k, v, units[k]))
    print("%-36s %16.6g fraction (%d of %d calls failed)"
          % ("error_rate", report["error_rate"], calls.failed, calls.attempted))
    print(json.dumps({"correct": calls.failed == 0,
                      "attempted": calls.attempted, "failed": calls.failed,
                      "metrics": report["metrics"]}))


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print("== %s trace %d" % (name, trace), flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, end="")
                bad += 1
                continue
            result = json.loads(lines[-1])
            bad += not result["correct"]
            print("correct %s, %d of %d calls failed\n"
                  % (result["correct"], result["failed"], result["attempted"]),
                  flush=True)
    return 1 if bad else 0


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    if args.all:
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
