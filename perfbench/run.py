"""vveis benchmark: one workload, one seed, exact output checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eis-deep --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  One client runs the jobs in a closed
loop, one at a time, each under a per-job budget of CPU time and resident
memory; a job that overruns it is stopped, counted as failed and charged
at the time budget.  The number of passes over the job lists is
``round(seconds / pass_s)`` (at least one), so the work done depends only
on the workload, the seed and ``--seconds``.  Outputs are checked after the
timed loop; a wrong output makes the run incorrect.

All times are CPU seconds (user + system): of the benchmark process, or of
the vveis children for cli-pipeline.  Time spent waiting for a CPU or the
disk does not count.  (The names wall_s and job_p50_ms are kept: a pass
and a job, timed in CPU seconds.)

On a shared host the CPU itself runs faster or slower from minute to
minute, as other tenants load the cores and caches it shares; CPU time
follows that too.  So every run also times ``reference()``, a fixed piece
of pure-Python work independent of vveis, after each job (and a process
that measures its set-up, right after it), and scales the times it measured
by ``REFERENCE_S / t_ref`` (an overrun's charge, the budget, is a fixed
number and is not scaled).  ``t_ref`` is the reference's best time in the
run where a job's latency is its best over several passes, and its median
time where each sample is taken once (eis-random's jobs, set-ups), so that
it matches the statistic it scales.  The times reported are CPU seconds on
a host where the reference takes REFERENCE_S: the slower the host was
during a run, the more its times are scaled down.  A change to vveis does
not change the reference, so it shows in full.

With ``--trace 0`` the end-to-end metrics are measured.  Most workloads
run the same job list in every pass, and a job's latency is its best time
over the passes: other tenants of the host only ever add time, and the
best of a few runs is far steadier than their median.  eis-random runs a
new list (a fresh conjugate of each base lattice) in every pass, each job
once.

- setup_s: import, input generation and warm-up, as CPU time since the
  process started; median of five set-ups, four of them in fresh processes
  run after the timed loop.
- wall_s: the mean over job lists of the sum of their jobs' latencies.
- job_p50_ms: the median of the job latencies.

Printed but not in the JSON, because they do not exist on every workload or
do not repeat well enough from seed to seed: coeffs_per_s, cli_miss_p50_ms,
cli_hit_p50_ms, fail_frac (= failed / attempted), peak_rss_mb (the largest
CLI child for cli-pipeline, otherwise the largest resident set seen after a
completed job; on eis-random it depends on what the failed jobs left in the
heap) and job_tail_ms (the sample with exactly 10 samples beyond it, over
all jobs of all passes, overruns at the budget, with its percentile and
sample count; a single sample follows the host's speed too closely).

With ``--trace 1`` a warm-up pass is followed by pairs of an untraced and a
traced pass in ABBA order and a traced pass over the workload's curve jobs;
the per-layer metrics of tracing.py are reported.  Both passes of a pair
run the same job list (eis-random: its sign twin, so that the lattice
caches miss in both), and the overhead compares the jobs that completed in
both.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import ctypes
import faulthandler
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from statistics import median

import tracing
from workloads import HERE, ROOT, WORKLOADS

# One client and no threads.  vveis does exact integer arithmetic, which
# never calls BLAS; OpenBLAS's thread pool would only burn CPU starting up,
# in this process and in every CLI child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 5
MEMORY_BUDGET_MB = 512  # resident memory a job may add before it is stopped
TICK_S = 0.05  # how often the watchdog checks the budgets
REFERENCE_S = 0.004  # reference() on a quiet 2-vCPU Xeon VM, Python 3.11
SETUP_REFERENCES = 20  # reference() timings after each set-up


def reference():
    """Fixed pure-Python work of the kinds vveis does: dicts keyed by tuples,
    small-integer arithmetic, sorting and Fraction sums (about REFERENCE_S)."""
    d, keys = {}, []
    for i in range(6000):
        k = (i % 31, i % 17)
        d[k] = d.get(k, 0) + i * i
        keys.append(k)
    keys.sort()
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i, i + 3)
    return len(d), x


def time_reference(samples):
    """Time reference() once with time.process_time, appending to samples.

    The garbage collector is off meanwhile: a collection the reference's
    allocations set off would walk the whole heap, and its cost would follow
    what the workload keeps in memory, not the host's speed.
    """
    gc.disable()
    try:
        start = time.process_time()
        reference()
        samples.append(time.process_time() - start)
    finally:
        gc.enable()


class Overrun(BaseException):
    """Raised inside a job that went past its time or memory budget."""


class Budget:
    """Per-job CPU-time and resident-memory budget, checked every TICK_S.

    A watchdog thread does the checks and raises Overrun in the main thread
    with PyThreadState_SetAsyncExc, which the interpreter delivers only
    between bytecodes.  A signal handler would run inside numpy's object
    loops (they call PyErr_CheckSignals), and running Python code there has
    crashed the interpreter.  A job inside one long native call stops when
    the call returns.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.reason = None

    def __enter__(self):
        self.reason = None
        self._rss_cap_mb = _statm_mb(1) + MEMORY_BUDGET_MB
        self._main = threading.get_ident()
        self._done = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, args=(time.process_time(),))
        self._watchdog.start()
        return self

    def __exit__(self, *exc_info):
        self._done.set()
        self._watchdog.join()
        if self.reason:  # not delivered yet if the job ended first
            _async_raise(self._main, None)

    def _watch(self, start):
        while not self._done.wait(TICK_S):
            if time.process_time() - start > self.seconds:
                self.reason = "timeout"
            elif _statm_mb(1) > self._rss_cap_mb:
                self.reason = "memory"
            else:
                continue
            _async_raise(self._main, Overrun)
            return


def _async_raise(thread_id, exc_type):
    """Raise exc_type in the given thread at its next bytecode (None: cancel)."""
    ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(exc_type) if exc_type else None)


def _where(exc):
    """The innermost vveis functions a failed job was running."""
    names = [f.name for f in traceback.extract_tb(exc.__traceback__)
             if "vveis" in f.filename and not f.name.startswith("<")]
    return f" in {' > '.join(names[-2:])}" if names else ""


@dataclass
class Record:
    job: object
    pass_index: int
    latency: float
    status: str  # "ok", "timeout in f", "memory in f" or "error: ..."
    out: object
    rss_mb: float = 0.0  # resident set right after the job


def _statm_mb(field):
    with open("/proc/self/statm") as f:
        return int(f.read().split()[field]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def run_pass(wl, jobs, k, records, tracer=None, ref_times=None):
    """Run pass k under the per-job budgets, appending one Record per job.

    An overrun is charged at the time budget, so that a job only ever adds
    time by getting slower.  With a tracer, the spans of a failed job are
    dropped.  With ref_times, reference() is timed after each job.
    """
    budget = Budget(wl.budget_s)
    for job in jobs:
        mark = tracer.mark() if tracer else None
        start = None
        try:
            with budget:
                start = wl.clock()
                out, status = job.fn(), "ok"
                latency = wl.clock() - start
            if budget.reason:  # finished, but past the budget
                status = budget.reason
        except Overrun as exc:
            out, status = None, budget.reason + _where(exc)
        except TimeoutError:  # a child process ran past the budget
            out, status = None, "timeout"
        except Exception as exc:  # a failed job is recorded, the run goes on
            out, status = None, f"error: {type(exc).__name__}: {exc}"
        if status != "ok":
            latency = wl.budget_s if start is not None else 0.0
            if tracer:
                tracer.drop_since(mark)
            gc.collect()
        records.append(Record(job, k, latency, status, out, _statm_mb(1)))
        if ref_times is not None:
            time_reference(ref_times)


def tail(latencies):
    """Latency with exactly 10 samples beyond it, and its percentile."""
    lat = sorted(latencies)
    n = len(lat)
    i = max(0, n - 11)
    return lat[i], 100.0 * (i + 1) / n


def setup_probe(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def plain_run(wl, state, passes, lists, args, setup_own):
    """Pass k runs twin k // lists of job list k % lists (lists: 1 or passes)."""
    records, ref_times = [], []
    for k in range(passes):
        run_pass(wl, wl.jobs(state, k % lists, k // lists), k, records, ref_times=ref_times)
    scale = REFERENCE_S / (min(ref_times) if wl.repeats else median(ref_times))

    def cost(r):  # a measured latency is scaled; an overrun's charge, the budget, is not
        return r.latency * scale if r.status == "ok" else r.latency
    ok = [r for r in records if r.status == "ok"]
    groups, unscaled = {}, {}
    for r in records:
        key = (r.pass_index % lists, r.job.kind, r.job.key)
        groups.setdefault(key, []).append(cost(r))
        unscaled.setdefault(key, []).append(r.latency)
    if wl.name == "cli-pipeline":  # largest child; set-up probes have not run yet
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:  # largest resident set after a completed job; failed jobs' peaks excluded
        rss_mb = max((r.rss_mb for r in ok), default=0.0)
    setups = [setup_own] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    best = [min(v) for v in groups.values()]
    best_unscaled = [min(v) for v in unscaled.values()]
    tail_s, pct = tail([cost(r) for r in records])
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (sum(best) / lists, "s"),
        "job_p50_ms": (median(best) * 1000, "ms"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"{len(groups)} jobs in {lists} lists, {passes} passes; unscaled "
                  f"{sum(best_unscaled) / lists:.6g} s",
        "job_p50_ms": f"{len(groups)} jobs in {lists} lists, {passes} passes; unscaled "
                      f"{median(best_unscaled) * 1000:.6g} ms",
    }
    print(f"{wl.name}  reference  best {min(ref_times) * 1000:.4g} ms, "
          f"median {median(ref_times) * 1000:.4g} ms of {len(ref_times)}; "
          f"times scaled by {scale:.4g}")
    print(f"{wl.name}  peak_rss_mb  {rss_mb:.6g} MB")
    print(f"{wl.name}  job_tail_ms  {tail_s * 1000:.6g} ms  "
          f"(p{pct:.1f} of {len(records)} samples)")
    return records, metrics, notes, scale


def traced_run(wl, state, pairs, work):
    """A warm-up pass, then pairs of an untraced and a traced pass in ABBA order.

    Pair j runs job list j + 1 and its twin.  Per-layer numbers come from
    the traced passes; the overhead compares, over the jobs that completed
    in both passes of their pair, the traced time with the untraced one.
    """
    records, dumps, imports = [], [], []
    spans_dir = work / "spans"
    spans_dir.mkdir()
    run_pass(wl, wl.jobs(state, 0), 0, records)
    times = {False: 0.0, True: 0.0}
    for j in range(pairs):
        halves = {}
        for twin in (0, 1):
            traced = bool(twin) != (j % 2 == 1)  # untraced first, then traced first
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
                state["launcher"] = {"PERFBENCH_SPANS_DIR": str(spans_dir)}
            first = len(records)
            try:
                run_pass(wl, wl.jobs(state, j + 1, twin), 2 * j + 1 + twin, records,
                         tracer if traced else None)
            finally:
                state["launcher"] = None
                if traced:
                    tracer.uninstall()
                    dumps.append(tracing.dump(tracer))
            halves[traced] = records[first:]
        for plain, with_trace in zip(halves[False], halves[True]):
            if plain.status == with_trace.status == "ok":
                times[False] += plain.latency
                times[True] += with_trace.latency
    if hasattr(wl, "curve_jobs"):  # pass -1: traced, checked, not timed
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_pass(wl, wl.curve_jobs(state), -1, records, tracer)
        finally:
            tracer.uninstall()
        dumps.append(tracing.dump(tracer))
    for path in sorted(spans_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        imports.append(doc.pop("import_s"))
        dumps.append(doc)
    overhead = times[True] / times[False] - 1
    (WORK_ROOT / f"spans-{wl.name}.json").write_text(json.dumps(dumps))
    metrics = tracing.layer_metrics(dumps, imports, overhead)
    return records, metrics, {"trace.overhead_frac": f"{pairs} traced passes"}, 1.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    faulthandler.enable()

    if not (ROOT / "src" / "vveis" / "__init__.py").is_file():
        print(f"error: no vveis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / wl.pass_s))
    pairs = 2 * max(1, round(passes / 4))  # traced runs: an even number, for ABBA
    if args.trace:
        lists = pairs + 1
    else:
        lists = 1 if wl.repeats else passes
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        state = wl.setup(args.seed, lists, work)
        setup_own = time.process_time()
        ref_times = []
        for _ in range(SETUP_REFERENCES):
            time_reference(ref_times)
        setup_own *= REFERENCE_S / median(ref_times)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        if args.trace:
            records, metrics, notes, scale = traced_run(wl, state, pairs, work)
        else:
            records, metrics, notes, scale = plain_run(wl, state, passes, lists, args, setup_own)
        ok = [r for r in records if r.status == "ok"]
        bad = wl.check(state, ok)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [r for r in records if r.status.startswith("error")]
    overruns = [r for r in records if r.status.startswith(("timeout", "memory"))]
    failed = len(errors) + len(overruns) + len(bad)
    for r in errors + overruns:
        print(f"job {r.job.kind} {r.job.key} (pass {r.pass_index}): {r.status}")
    for msg in bad:
        print(f"wrong output: {msg}")
    if not args.trace:
        coeff_jobs = [r for r in ok if r.job.coeffs]
        if coeff_jobs:
            rate = sum(r.job.coeffs for r in coeff_jobs) / sum(r.latency for r in coeff_jobs) / scale
            print(f"{wl.name}  coeffs_per_s  {rate:.4g} 1/s")
        if wl.name == "cli-pipeline":
            for phase in ("miss", "hit"):
                lat = [r.latency for r in ok if r.job.kind == phase]
                print(f"{wl.name}  cli_{phase}_p50_ms  {median(lat) * 1000 * scale:.4g} ms  "
                      f"(n={len(lat)})")
    print(f"{wl.name}  fail_frac  {failed / len(records):.4g}  "
          f"({len(overruns)} over the {wl.budget_s:g} s or +{MEMORY_BUDGET_MB} MB budget, "
          f"{len(errors)} raised, "
          f"{len(bad)} wrong, of {len(records)})")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{wl.name}  {name}  {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": not bad and not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
