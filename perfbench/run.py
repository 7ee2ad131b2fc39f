"""Outside-in benchmark of skewmorph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  One process runs one
workload as a closed loop, one operation at a time, with the numpy
backend, one seed worker and BLAS/OpenMP threads pinned to 1.

With ``--trace 0`` the run reports the end-to-end metrics: the median
over at least two operations of the operation's time in units of a
calibration loop sampled while it runs (see ``Speedometer``), the
process's peak RSS, and the set-up time (process start to the first
timed operation, the median of this process and two fresh set-up
processes).  The detail line also gives the raw wall seconds per
operation.  With ``--trace 1`` it runs one warm-up operation, then
alternates untraced and traced operations and reports the per-layer
metrics of ``tracer.py`` plus the tracing overhead.  Every operation passes the
workload's correctness gate or counts as failed.  The last line of
standard output is the result object; the line before it holds the
details (environment, samples, quartiles, failures, absent names).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# before numpy is imported, by this file or by the package
PINS = {
    "SKEWMORPH_BACKEND": "numpy",
    "SKEWMORPH_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

SETUP_PROBES = 2
# the timings are medians: never let an operation that outlasts --seconds
# make them a single sample
MIN_OPS = 2
PROBE_TIMEOUT_S = 60


class SetupError(RuntimeError):
    pass


class Speedometer:
    """Samples how fast the machine runs while an operation runs.

    On a shared host the speed of a core drifts by 20% and more over
    seconds to minutes, in CPU time as much as in wall time, so wall
    seconds per operation do not repeat from one run to the next.  While
    the speedometer runs, a timer signal every PERIOD_S seconds runs a
    fixed calibration loop in the main thread and times it.  The
    operation's wall time less the loops, divided by the mean loop time,
    is the operation's time in calibration loops: the loops slow down
    with the machine, so the drift mostly cancels.  The loop is
    interpreter work on dicts and ints plus a few small numpy products,
    the mix the package's own code runs.
    """

    PERIOD_S = 0.05
    LOOP = 4000

    def __init__(self):
        self.loops = []
        self.active = False
        self.mat = np.arange(49, dtype=np.int64).reshape(7, 7)

    def _loop(self):
        t0 = time.perf_counter()
        counts, acc = {}, 0
        for i in range(self.LOOP):
            k = (i * 2654435761) & 0xFFF
            counts[k] = counts.get(k, 0) + 1
            acc += k % 7
        a = self.mat
        for _ in range(self.LOOP // 100):
            acc += int(((a @ a) % 7)[0, 0])
        self.loops.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        if self.active:
            self._loop()
            # one-shot: the next tick is armed only after this loop ends,
            # so loops never nest
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def start(self):
        self.loops = []
        self._loop()  # at least one sample, even for a short operation
        self.active = True
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def stop(self):
        """(seconds spent in loops since start returned, mean loop seconds)."""
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return sum(self.loops[1:]), statistics.mean(self.loops)


def import_package(root=ROOT):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewmorph", "__init__.py")):
        raise SetupError("no skewmorph package under %s" % src)
    sys.path.insert(0, src)
    import skewmorph
    if os.path.dirname(os.path.dirname(os.path.abspath(skewmorph.__file__))) != src:
        raise SetupError("skewmorph imported from %s, not %s" % (skewmorph.__file__, src))
    return skewmorph


def environment(sm, seed, workload):
    return {
        "backend": sm.current_backend(),
        "workers": int(os.environ["SKEWMORPH_WORKERS"]),
        "pins": PINS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "skewmorph": sm.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seed_used": workload.seeded,
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timing_summary(values):
    q1, med, q3 = quartiles(values)
    return {"samples": len(values), "median": med, "q1": q1, "q3": q3, "all": values}


def run_op(workload, speedometer=None):
    """One timed operation: (wall seconds or None, calibration loops or
    None, failed checks).

    The garbage the previous operation and its gate left is collected
    first, outside the timed region, so that every operation starts from
    a heap like that of a fresh command invocation.  With a speedometer,
    its loops are taken out of the wall time.
    """
    gc.collect()
    if speedometer is not None:
        speedometer.start()
    t0 = time.perf_counter()
    try:
        out = workload.op()
        wall = time.perf_counter() - t0
    except Exception:  # a failing operation counts as failed; the run goes on
        return None, None, [traceback.format_exc(limit=3).strip().splitlines()[-1]]
    finally:
        if speedometer is not None:
            in_loops, loop_s = speedometer.stop()
    if speedometer is None:
        return wall, None, workload.check(out)
    wall -= in_loops
    return wall, wall / loop_s, workload.check(out)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds, tracer=None, least=1):
    """Closed loop for `seconds` and at least `least` operations.

    Untraced runs time every operation with a speedometer; traced runs use
    none, so that its loops stay out of the spans.

    With a tracer, the first operation warms up and is not timed, since the
    first operation after set-up runs slower on some workloads; after it,
    untraced and traced operations alternate.  The peak RSS is read after
    the first operation: set-up plus one operation is what one command
    invocation holds, and later operations only add allocator
    fragmentation that depends on how many ran.
    """
    r = {"attempted": 0, "failures": [], "walls": [], "norms": [], "traced_walls": [],
         "layer_ops": [], "peak_rss_mb": None}
    speedometer = Speedometer() if tracer is None else None
    if tracer is not None:
        least = max(least, 3)
    end = time.perf_counter() + seconds
    while True:
        i = r["attempted"]
        traced = tracer is not None and i > 0 and i % 2 == 0
        if traced:
            tracer.start()
        try:
            wall, norm, bad = run_op(workload, speedometer)
        finally:
            if traced:
                r["layer_ops"].append(tracer.stop())
        if r["peak_rss_mb"] is None:
            r["peak_rss_mb"] = peak_rss_mb()
        if bad:
            r["failures"].append({"op": i, "checks": bad})
        r["attempted"] += 1
        if wall is not None and (tracer is None or i > 0):
            r["traced_walls" if traced else "walls"].append(wall)
            if norm is not None:
                r["norms"].append(norm)
        if time.perf_counter() >= end and r["attempted"] >= least:
            return r


def probe_setup(args):
    """Set-up time of a fresh process running this workload's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(layer_ops, walls, traced_walls):
    """Times are medians over traced ops; counts come from the first."""
    units = tr.metric_units()
    first = layer_ops[0]
    values, varies = {}, []
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            values[name] = statistics.median(op[name] for op in layer_ops)
        else:
            values[name] = first[name]
            if any(op[name] != first[name] for op in layer_ops):
                varies.append(name)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return {n: {"value": values[n], "unit": units[n]} for n in units}, varies


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args, workdir):
    sm = import_package()
    workload = wls.make(args.workload, sm, wls.load_reference())
    workload.setup(args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return
    tracer = tr.Tracer() if args.trace else None
    r = measure(workload, args.seconds, tracer, least=MIN_OPS)
    walls, failures = r["walls"], r["failures"]
    detail = {
        "workload": args.workload,
        "env": environment(sm, args.seed, workload),
        "attempted": r["attempted"],
        "fail_frac": len(failures) / r["attempted"],
        "failures": failures,
    }
    if walls:
        detail["wall_s"] = timing_summary(walls)
    metrics = {}
    if args.trace:
        if r["layer_ops"] and walls and r["traced_walls"]:
            metrics, detail["count_varies"] = layer_metrics(
                r["layer_ops"], walls, r["traced_walls"])
            detail["traced_wall_s"] = timing_summary(r["traced_walls"])
        detail["absent"] = tracer.absent
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        detail["setup_s"] = timing_summary(setups)
        if walls:
            detail["op_time_norm"] = timing_summary(r["norms"])
            metrics["op_time_norm"] = {"value": statistics.median(r["norms"]),
                                       "unit": "ratio"}
        metrics["peak_rss_mb"] = {"value": r["peak_rss_mb"], "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in sorted(metrics.items()):
        print("%-55s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": r["attempted"],
                      "failed": len(failures), "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        run(args, workdir)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
