"""Run one benchmark workload against the elladic CLI and print its metrics.

    python3 bench/run.py --workload lvalue-measure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
Requests go one at a time (closed loop, one client) through
``elladic.cli.main(argv)`` with stdout captured.  The loop sends whole rounds
until --seconds have passed, then every response is checked.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the line
before it holds run metadata.  With --trace 1 the metrics are the per-layer
numbers of a traced replay (see tracing.py and README.md).

Times are reported in reference seconds: each measured interval is scaled by
REFERENCE_S over the duration of a fixed pure-Python reference loop timed
right next to it (see README.md, "Reference seconds").  The raw wall-clock
figures are in the metadata line.
"""

import time

T_TOP = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

from check import Checker, default_floors_path  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four probe processes
CHILD_TIMEOUT_S = 150
MIN_REQUESTS = 20  # so that the latency median has at least 10 samples beyond it
# Duration of reference_loop on an uncontended core of the 2-core x86-64 box
# (Python 3.11.7) the baseline was recorded on.
REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.2  # reference loops inside long requests cost ~1%

# per-layer metric -> span name (or prefix of a class's method spans)
FUNCTION_SPANS = {
    "measures.bernoulli_measure.self_s": "measures.bernoulli_measure",
    "measures.MeasureTower.self_s": "measures.MeasureTower",
    "measures.restrict.self_s": "measures.restrict",
    "measures.integrate.self_s": "measures.integrate",
    "measures.tower_from_json.self_s": "measures.tower_from_json",
    "measures.pushforward_linear.self_s": "measures.pushforward_linear",
    "measures.tower_to_json.self_s": "measures.tower_to_json",
    "transforms.p_transform.self_s": "transforms.p_transform",
    "transforms.f_transform.self_s": "transforms.f_transform",
    "bernoulli.bernoulli_number.self_s": "bernoulli.bernoulli_number",
    "bernoulli.bernoulli_poly.self_s": "bernoulli.bernoulli_poly",
    "padic.one_unit_pow.self_s": "padic.one_unit_pow",
    "padic.teichmuller.self_s": "padic.teichmuller",
    "padic.PadicNum.self_s": "padic.PadicNum",
    "ncseries.NcSeries.mul.self_s": "ncseries.NcSeries.__mul__",
    "ncseries.NcSeries.init.self_s": "ncseries.NcSeries.__init__",
    "ncseries.ReducedSeries.self_s": "ncseries.ReducedSeries",
    "ncseries.bch_reduced.self_s": "ncseries.bch_reduced",
}
COUNT_METRICS = {"measures.cells": "count", "transforms.moment_terms": "count",
                 "bernoulli.max_index": "index", "ncseries.terms": "count"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def set_up(args, root):
    """Import elladic from ./src and build the run's inputs."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        import elladic.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import elladic from {src}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"elladic was imported from {cli.__file__}, not from {src}")
    workdir = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    return cli, WORKLOADS[args.workload](args.seed, workdir), workdir


def reference_loop():
    """Time a fixed piece of Fraction arithmetic, with the collector off so
    that the program's heap does not change its cost.

    Other tenants of a shared machine can slow this process by up to about
    2x for seconds at a time.  The program and this loop slow down alike, so
    scaling an interval by REFERENCE_S / (loop time during it) cancels most
    of that noise."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(i % 89 + 1, i % 97 + 1)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(samples=3):
    """REFERENCE_S over the median of a few reference loops."""
    return REFERENCE_S / statistics.median(reference_loop() for _ in range(samples))


class SpeedSampler:
    """Runs reference_loop every SAMPLE_INTERVAL_S from a SIGALRM handler,
    so that requests lasting seconds are scaled by the machine's speed while
    they ran, not only just before and after.  The handler's own time is
    kept in `stolen` and taken out of request timings."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.stolen += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def send(cli, req, sampler):
    """Returns (req, exit code or failure text, stdout, wall s, reference s)."""
    buf = io.StringIO()
    before = reference_loop()
    first, stolen = len(sampler.samples), sampler.stolen
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse usage error
        rc = exc.code
    except Exception as exc:  # a failed request is counted, not fatal
        rc = f"raised {type(exc).__name__}: {exc}"
    wall = perf_counter() - t0 - (sampler.stolen - stolen)
    loops = [before, reference_loop()] + sampler.samples[first:]
    return req, rc, buf.getvalue(), wall, wall * REFERENCE_S * len(loops) / sum(loops)


def run_rounds(cli, workload, seconds=None, count=None, tracer=None):
    """Send whole rounds until `seconds` have passed, or exactly `count` requests.

    Returns send()'s tuple per request and the loop's wall time."""
    results = []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            for req in workload.round():
                if count is not None and len(results) == count:
                    break
                if tracer is not None:
                    tracer.request = len(results)
                results.append(send(cli, req, sampler))
            if count is not None and len(results) == count:
                break
            if (count is None and perf_counter() - start >= seconds
                    and len(results) >= MIN_REQUESTS):
                break
    return results, perf_counter() - start


def check_all(results):
    checker = Checker(default_floors_path())
    failures = []
    for req, rc, out, _, _ in results:
        reason = rc if isinstance(rc, str) else checker.check(req, rc, out)
        if reason:
            failures.append({"argv": req.argv, "reason": reason})
    return failures


def child(args, root, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]


def git_revision(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, root, **extra):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(root), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **extra}


def emit(meta, results, failures, metrics):
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def timed_run(args, root, cli, workload, setup):
    results, wall = run_rounds(cli, workload, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup] + [child(args, root, "--setup-probe")[-1]
                        for _ in range(SETUP_SAMPLES - 1)]
    failures = check_all(results)
    ok = len(results) - len(failures)
    walls = [r[3] for r in results]
    refs = [r[4] for r in results]
    metrics = {
        "throughput_rps": (ok / sum(refs), "req/s"),
        "latency_p50_s": (statistics.median(refs), "s"),
        "setup_s": (statistics.median(x["setup_s"] for x in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    meta = metadata(
        args, root, loop_wall_s=wall, request_s=sum(refs), request_wall_s=sum(walls),
        wall_throughput_rps=ok / sum(walls), wall_latency_p50_s=statistics.median(walls),
        latency_samples=len(results), setup_samples=setups,
        failed_ratio=len(failures) / len(results), failures=failures[:5])
    emit(meta, results, failures, metrics)


def traced_run(args, root, cli, workload):
    # The untraced reference runs in a fresh process, so that both runs start
    # with an empty Bernoulli memo table.
    meta, plain = child(args, root, "--trace", "0")
    count, plain_s = plain["attempted"], meta["meta"]["request_s"]
    tracer = Tracer()
    tracer.install()
    results, _ = run_rounds(cli, workload, count=count, tracer=tracer)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json.gz")
    tracer.write(spans_path)
    failures = check_all(results)

    traced_s = sum(r[4] for r in results)
    self_times = tracer.self_times([r[4] / r[3] for r in results])

    def total(prefix):
        hits = [v for name, v in self_times.items()
                if name == prefix or name.startswith(prefix + ".")]
        return sum(s for s, _ in hits), sum(c for _, c in hits)

    metrics = {}
    for layer in LAYERS:
        secs, calls = total(layer)
        metrics[f"{layer}.self_s"] = (secs, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    for metric, prefix in FUNCTION_SPANS.items():
        metrics[metric] = (total(prefix)[0], "s")
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = (tracer.counts[metric], unit)
    metrics["cli.bytes_out"] = (sum(len(r[2].encode()) for r in results), "bytes")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    meta = metadata(args, root, request_s=traced_s, untraced_request_s=plain_s,
                    spans=tracer.span_count, spans_file=os.path.relpath(spans_path, root),
                    failures=failures[:5])
    emit(meta, results, failures, metrics)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    workdir = None
    try:
        cli, workload, workdir = set_up(args, root)
        setup_wall = perf_counter() - T_TOP
        setup = {"setup_s": setup_wall * speed_factor(), "wall_s": setup_wall}
        if args.setup_probe:
            print(json.dumps(setup))
        elif args.trace:
            traced_run(args, root, cli, workload)
        else:
            timed_run(args, root, cli, workload, setup)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # other runs may still use it
                os.rmdir(os.path.dirname(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
