"""dynrmst benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs every workload in turn and prints each one's lines.

Workloads and metrics are listed in ``BENCHMARK.json``.  A run generates the
workload's inputs from the seed in a fresh interpreter ``SETUP_REPEATS``
times (the median wall time is ``setup_s``), then starts a measurement
process (``measure.py``) that runs closed-loop iterations for ``--seconds``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Machine facts and the undeclared raw
values (seconds per iteration, probe time) are printed on the line before
it, and the full report is kept under ``.bench_out/``.

Exit status: 0 when every output check passed, 1 when a check failed (the
result line says ``"correct": false``), 2 when the run could not be made
(no ``src/dynrmst`` or ``BENCHMARK.json`` here, a process failed or timed
out); no result line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
RUN_BUDGET_S = 170


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _inputs_digest(work):
    h = hashlib.sha256()
    for path in sorted(work.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run(cmd, env, timeout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the measurement process and any pool workers) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def with_units(declared, values):
    """The declared metrics, in declared order, with their declared units;
    None when a declared name has no computed value."""
    if any(m["name"] not in values for m in declared):
        return None
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def run_workload(root, bench, workload, seed, seconds, trace):
    """Set up and measure one workload; print its facts and result lines."""
    started = time.monotonic()
    src = root / "src"
    tag = f"{workload}-{seed}"
    work = root / ".bench_work" / tag
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / f"{tag}-trace{trace}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])

    setup_walls, input_digests = [], set()
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            _run([sys.executable, str(HERE / "setup_inputs.py"),
                  "--workload", workload, "--seed", str(seed),
                  "--work", str(work)], env, SETUP_TIMEOUT_S)
            setup_walls.append(time.perf_counter() - t0)
            input_digests.add(_inputs_digest(work))

        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        _run([sys.executable, str(HERE / "measure.py"),
              "--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace),
              "--work", str(work), "--src", str(src),
              "--report", str(report_path)], env, max(remaining, 1.0))
        report = json.loads(report_path.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return _fail(f"{workload}: run failed: {exc}")
    finally:
        shutil.rmtree(root / ".bench_work", ignore_errors=True)

    result = report["result"]
    if result is None:
        return _fail(f"{workload}: no iteration succeeded: {report['failures']}")
    attempted = report["attempted"] + 1  # plus: set-up repeats agree
    failures = list(report["failures"])
    if len(input_digests) != 1:
        failures.append("setup: inputs differ between set-up repeats")
    if not trace:
        result = metrics.end_to_end(statistics.median(setup_walls), **result)
    declared = bench["per_layer" if trace else "end_to_end"]
    values = with_units(declared, result)
    if values is None:
        return _fail("a metric in BENCHMARK.json has no value")
    names = {m["name"] for m in declared}
    raw = {k: v for k, v in result.items() if k not in names}

    report.update(setup_walls=setup_walls, metrics=values, raw=raw)
    report_path.write_text(json.dumps(report, indent=1))
    for failure in failures:
        print(f"perfbench: {workload}: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": workload, "facts": report["facts"], "raw": raw}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": values}), flush=True)
    return 1 if failures else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # lets _run stop the measurement process


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    root = Path.cwd()
    if not (root / "src" / "dynrmst" / "__init__.py").is_file():
        return _fail(f"no src/dynrmst package under {root}")
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}")
    selected = names if args.workload == "all" else [args.workload]
    return max(run_workload(root, bench, name, args.seed, args.seconds, args.trace)
               for name in selected)


if __name__ == "__main__":
    sys.exit(main())
