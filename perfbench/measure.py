"""Measurement process: runs one workload's iterations for a fixed time and
writes a JSON report.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``, after the inputs were generated; this process's own peak
memory and that of its pool workers are therefore the workload's alone.

Untraced (``--trace 0``): a warm-up iteration, then iterations with the
workload's own worker counts for ``--seconds``; each must reproduce the first
iteration's output digest.  On a shared 2-vCPU host the speed of the same
code drifts by up to a factor of two, over seconds to minutes, so after
every step a fixed reference computation that does not use dynrmst (the
probe) is timed as well, and each step's wall and CPU time is also
reported in units of the probe times on either side of it (``wall_ref``,
``cpu_ref``).

Traced (``--trace 1``): rounds of an untraced pass with a two-worker pool
for every step (Monte Carlo only), an untraced ``workers=1`` pass and a traced ``workers=1``
pass (spans in forked workers would be lost).  All passes must give the same
digest, the traced counts must repeat exactly, and the traced pass's single
root span must match the wall time measured around the iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import metrics
import spans
from machine import machine_facts
from workloads import WORKLOADS

ROOT_TOL_S = 0.002  # the root span adds only the checks around the timed call
# Before each probe: OpenBLAS threads keep spinning for about 0.1 s after a
# call and slow the probe (probes taken at once after the CLI fit read up to
# twice as long as probes taken later).
SETTLE_S = 0.15
PROBE_KERNELS = 3
_RNG = np.random.default_rng(0)
PROBE_SORT = _RNG.random(200_000)
PROBE_STREAM = _RNG.random(1_000_000)


class _Node:
    __slots__ = ("value", "next")


def _ring(n):
    """n nodes linked in a shuffled order, so a walk misses the caches."""
    nodes = [_Node() for _ in range(n)]
    order = _RNG.permutation(n).tolist()
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].value = float(a)
        nodes[a].next = nodes[b]
    return nodes[0]


PROBE_RING = _ring(100_000)


def _probe_kernel():
    """A fixed single-threaded mix that does not touch dynrmst (about 15 ms
    on a 2-core host): dict updates, object allocation, a pointer walk over
    a ring larger than the L2 cache, a numpy sort and a numpy stream over
    8 MB.  Host speed changes move each kind of code by a different amount;
    the mix follows the workloads' changes better than any one part."""
    table = {}
    for i in range(10_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    rows = sorted((i * 7919 % 1000, i, (i, i)) for i in range(4_000))
    node, total = PROBE_RING, 0.0
    for _ in range(30_000):
        total += node.value
        node = node.next
    ordered = np.sort(PROBE_SORT)
    return len(rows) + total + ordered[0] + float((PROBE_STREAM * 1.5).sum())


def reference_probe():
    """Median seconds of PROBE_KERNELS runs of the probe kernel."""
    time.sleep(SETTLE_S)
    times = []
    for _ in range(PROBE_KERNELS):
        t0 = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ReferenceClock:
    """Probe times around the steps of a run: each step is scaled by the
    mean of the probe before it and the probe after it."""

    def __init__(self):
        self.times = [reference_probe()]

    def next_scale(self):
        self.times.append(reference_probe())
        return (self.times[-2] + self.times[-1]) / 2.0


def _cpu_since(c0):
    c1 = os.times()
    return (c1.user - c0.user + c1.system - c0.system
            + c1.children_user - c0.children_user
            + c1.children_system - c0.children_system)


class Run:
    """Attempts, failures and failure details of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.digest = None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def timed(self, workload, workers, clock=None):
        """One iteration, step by step, or None when it failed: wall and CPU
        seconds summed over the steps, each step's wall seconds
        (``stages``) and the seconds from the first step to the digest
        (``elapsed``).  With a ReferenceClock the probe runs after every
        step, outside the timed part, and ``wall_ref``/``cpu_ref`` sum the
        steps' times in probe units.  CPU time counts this process and the
        pool workers it reaped."""
        out = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0,
               "stages": {}}
        t_start = time.perf_counter()
        try:
            for name, step in workload.steps(workers):
                c0, t0 = os.times(), time.perf_counter()
                step()
                wall = time.perf_counter() - t0
                cpu = _cpu_since(c0)
                out["stages"][name] = wall
                out["wall"] += wall
                out["cpu"] += cpu
                if clock is not None:
                    scale = clock.next_scale()
                    out["wall_ref"] += wall / scale
                    out["cpu_ref"] += cpu / scale
            digest = workload.digest()
        except Exception:
            self.check(f"iteration(workers={workers or 'default'})", False,
                       traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        out["elapsed"] = time.perf_counter() - t_start
        if self.digest is None:
            self.digest = digest
        self.check(f"digest(workers={workers or 'default'})", digest == self.digest,
                   f"{digest[:12]} != {self.digest[:12]}")
        return out


class Deadline:
    """Time left for one run; ends the process early if run.py has exited."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds
        self.parent = os.getppid()

    def passed(self):
        if os.getppid() != self.parent:
            raise SystemExit("run.py exited; stopping")
        return time.perf_counter() >= self.end


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest reaped
    worker (pages shared after fork are counted in both)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def untraced(run, workload, seconds):
    """Iterations with each step's own worker count (``workers=None``)."""
    clock = ReferenceClock()
    run.timed(workload, None, clock)  # warm-up: checked, not sampled
    samples = []
    deadline = Deadline(seconds)
    while True:
        out = run.timed(workload, None, clock)
        if out is not None:
            samples.append({k: out[k] for k in ("wall", "cpu", "wall_ref", "cpu_ref")})
        if deadline.passed():
            break
    if not samples:
        return None
    return {"samples": samples, "probe_s": clock.times,
            "peak_rss_mb": peak_rss_mb()}


def traced(run, workload, workers, seconds):
    pooled_walls, walls, traced_walls, stages, layers = [], [], [], [], []
    counts = None
    deadline = Deadline(seconds)
    while True:
        if workload.pooled:
            out = run.timed(workload, workers)
            if out is not None:
                pooled_walls.append(out["wall"])
        out = run.timed(workload, 1)
        if out is not None:
            walls.append(out["wall"])
            stages.append(workload.stage_values(out["stages"]))

        recorder = spans.Recorder()
        with spans.Instrumentation(recorder), recorder.span("iteration"):
            out = run.timed(workload, 1)
        left = spans.leftover_wrappers()
        run.check("wrappers_restored", not left, f"still wrapped: {left}")
        if out is not None:
            traced_walls.append(out["wall"])
            roots = [sp for sp in recorder.spans if sp.parent < 0]
            gap = roots[0].duration - out["elapsed"]
            run.check("root_span_matches_wall",
                      len(roots) == 1 and 0.0 <= gap <= ROOT_TOL_S,
                      f"{len(roots)} root spans; root exceeds the wall by {gap:.3e} s")
            summary = spans.summarize(recorder.spans)
            iteration_counts = metrics.counts_of(summary, recorder.counters)
            if counts is None:
                counts = iteration_counts
            run.check("counts_repeat", iteration_counts == counts,
                      "traced counts differ between iterations")
            layers.append((summary, dict(recorder.counters)))
        if deadline.passed():
            break
    if not (walls and traced_walls and (pooled_walls or not workload.pooled)):
        return None
    w1 = statistics.median(walls)
    extra = {
        "pool_speedup": w1 / statistics.median(pooled_walls) if workload.pooled else 0.0,
        "overhead_frac": statistics.median(traced_walls) / w1 - 1.0,
    }
    extra.update({key: statistics.median(s[key] for s in stages)
                  for key in stages[0]})
    return metrics.per_layer(layers, extra)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args(argv)

    import dynrmst

    src = Path(args.src).resolve()
    if src not in Path(dynrmst.__file__).resolve().parents:
        raise SystemExit(f"dynrmst imported from {dynrmst.__file__}, not {src}")

    pool = min(2, len(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload](Path(args.work), pool)
    workers = ({k: min(v, pool) for k, v in workload.WORKERS.items()}
               if workload.pooled else 1)
    run = Run()
    if args.trace:
        values = traced(run, workload, pool, args.seconds)
    else:
        values = untraced(run, workload, args.seconds)
    if values is not None:
        try:
            for name, ok, detail in workload.checks():
                run.check(name, ok, detail)
        except Exception:
            run.check("workload_checks", False,
                      traceback.format_exc(limit=3).strip().splitlines()[-1])
    report = {
        "facts": {**machine_facts(workers, args.seed), "pool_workers": pool},
        "attempted": run.attempted,
        "failures": run.failures,
        # untraced: raw samples for metrics.end_to_end; traced: values by name
        "result": values,
    }
    Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
