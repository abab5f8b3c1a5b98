#!/usr/bin/env python3
"""Benchmark of heunqdot, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload published-report|high-n-roots|exact-states
                             [--seed N] [--seconds S] [--trace 0|1]

The run computes the workload's references (reference.py, no heunqdot code),
then runs passes for about --seconds seconds, each in a fresh process forked
from an interpreter that has only imported the program (worker.py), so that
no pass sees state left by another. Every pass's outputs are checked. With
--trace 0 it reports setup_s (the median of at least MIN_SETUPS fresh
interpreters), pass_s (built segment by segment from the fastest times of the
run's passes; see pass_time) and peak_rss_mb (the median over the passes);
with --trace 1 it alternates traced and untraced passes and reports the
per-layer metrics of spans.py, the set-up split, the report size and the
tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The BLAS thread count of every process is pinned to BLAS_THREADS. A record of
the run (environment, every pass, the metrics) and, for traced runs, every
span, are written under .perfbench/ at the root of the checkout.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# every run ends within this many seconds of its start
HARD_LIMIT_S = 170.0
MIN_SETUPS = 9


def environment() -> dict:
    """Versions, the BLAS libraries loaded and their thread counts, nproc."""
    import numpy
    import scipy

    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_read_back": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Worker:
    """A worker.py process: its set-up times, then passes forked from it."""

    def __init__(self, workload, started):
        self.started = started
        self.log = tempfile.TemporaryFile("w+", dir=OUT / "tmp")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload.name],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True, start_new_session=True)
        self.setup = self._answer()

    def _answer(self):
        """The worker's next line, or None if it died or the run's time is up."""
        limit = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        ready, _, _ = select.select([self.proc.stdout], [], [], limit)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def stderr(self) -> str:
        self.log.seek(0)
        return self.log.read()[-2000:]

    def run(self, spec_path, result_path):
        """Run one pass; returns None, or why the pass gave no result."""
        try:
            self.proc.stdin.write(f"{spec_path} {result_path}\n")
            self.proc.stdin.flush()
        except OSError:
            return f"worker died: {self.stderr()}"
        answer = self._answer()
        if answer is None:
            return f"worker died or timed out: {self.stderr()}"
        if answer["status"] != 0:
            return f"pass exited {answer['status']}: {self.stderr()}"
        return None

    def close(self):
        """End the worker (at once if it does not end when its input does)
        and wait for it and any pass it still runs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def setup_sample(workload, started):
    """The set-up times of a fresh interpreter that runs no pass."""
    worker = Worker(workload, started)
    worker.close()
    return worker.setup


def run_pass(worker, workload, index, trace, details):
    """Run one pass in a process forked from the worker.

    Returns the pass's result (None if it crashed), the problems of each
    operation, and for each operation whether it raised.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"pass{index}-", dir=OUT / "tmp"))
    try:
        ops = workload.ops(tmp)
        request = workload.details if details else None
        spec = {"ops": ops, "trace": trace, "details": request}
        (tmp / "spec.json").write_text(json.dumps(spec))
        crash = worker.run(tmp / "spec.json", tmp / "result.json")
        if crash is not None:
            return None, [[crash]] * len(ops), [True] * len(ops)
        result = json.loads((tmp / "result.json").read_text())
        errors = result["errors"]
        raised = [e is not None for e in errors]
        if all(errors):
            problems = [[e] for e in errors]
        else:
            problems = [([e] if e else p) for e, p in
                        zip(errors, workload.check(result["outputs"], tmp))]
        if request:
            problems[0] = problems[0] + workload.check_details(result["details"])
        report = tmp / "report" / "report.json"
        if report.exists():
            result["json_bytes"] = report.stat().st_size
        return result, problems, raised
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def pass_time(results) -> float:
    """The time of one pass, built from the fastest time of each of its parts.

    Every operation is cut into segments by the start and end of each call of
    a checkpointed function (spans.py): about 3 000 per dossier, 7 to 9 per
    exact state. The segments of an operation repeat from pass to pass, and each
    pass's segments add up to its time. The result is the sum over segments
    of each segment's fastest time across the run's passes; an operation
    whose segment count differs between passes counts with its fastest
    whole time.

    On the 2-core virtual machine where this was built, the host's speed
    drifts by tens of percent over seconds to minutes (a fixed pure-Python
    loop took 20 to 35 ms from one ten-second stretch to the next, in CPU
    time as in wall time), so the median of a run's passes
    moves by 20 to 50 % from run to run. The fastest time of a short segment
    measures the program rather than its neighbours, and taking it segment by
    segment lets a pass borrow the quiet moments of every pass.
    """
    if not results:
        return 0.0
    total = 0.0
    for i, times in enumerate(zip(*(r["op_s"] for r in results))):
        segments = [r["op_segments"][i] for r in results]
        if len({len(s) for s in segments}) == 1:
            total += sum(min(parts) for parts in zip(*segments))
        else:
            total += min(times)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["published-report", "high-n-roots", "exact-states"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # a terminated run still ends its worker (Worker.close, in a finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "heunqdot" / "__init__.py").is_file():
        print(f"no heunqdot sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    passes = []  # (traced, result)
    attempted = failed = 0
    failures = []  # one line per failed operation
    wrong = 0  # operations that did not raise but gave a wrong output
    worker = Worker(workload, started)
    setups = [worker.setup] if worker.setup else []
    if not setups:
        print(f"the worker did not start: {worker.stderr()}", file=sys.stderr)
    try:
        t_start = time.perf_counter()
        index = 0
        # the last pass and its set-up samples; the run starts no pass that
        # would end more than half of one past --seconds
        cycle = 0.0
        while setups and (index < 1 + args.trace or time.perf_counter() - t_start
                          + cycle / 2 < args.seconds):
            t_cycle = time.perf_counter()
            traced = bool(args.trace) and index % 2 == 1
            result, problems, raised = run_pass(worker, workload, index, traced,
                                                details=(index == 0))
            attempted += len(problems)
            failed += sum(1 for p in problems if p)
            for i, (p, r) in enumerate(zip(problems, raised)):
                if p:
                    failures.append(f"pass {index} op {i}: " + "; ".join(p))
                    print("FAILED " + failures[-1], file=sys.stderr)
                    wrong += not r
            if result is None:
                break
            passes.append((traced, result))
            index += 1
            # set-up samples, fresh interpreters that run no operation, are
            # spread over the run; at least MIN_SETUPS of them
            elapsed = time.perf_counter() - t_start
            while passes and len(setups) < MIN_SETUPS * min(1.0, elapsed / args.seconds):
                sample = setup_sample(workload, started)
                if sample is None:
                    break
                setups.append(sample)
            cycle = time.perf_counter() - t_cycle
        while passes and len(setups) < MIN_SETUPS:
            sample = setup_sample(workload, started)
            if sample is None:
                break
            setups.append(sample)
    finally:
        worker.close()
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    if not passes:
        print("no pass completed; no metrics to report", file=sys.stderr)
        return 1

    def median(values):
        return statistics.median(values) if values else 0.0

    plain = [r for t, r in passes if not t]
    setup_s = [s["setup_import_s"] + s["setup_reference_s"] for s in setups]
    if not args.trace:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "pass_s": (pass_time(plain), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MB"),
        }
    else:
        layered = [spans.layer_metrics(r["spans"]) for t, r in passes if t]
        metrics = {name: (median([m[name] for m in layered]), unit)
                   for name, unit, _ in spans.LAYER_METRICS}
        traced_s = pass_time([r for t, r in passes if t])
        metrics.update({
            "report.json_bytes": (median([r.get("json_bytes", 0) for _, r in passes]),
                                  "bytes"),
            "setup.import.s": (median([s["setup_import_s"] for s in setups]), "s"),
            "setup.reference.s": (median([s["setup_reference_s"] for s in setups]), "s"),
            "trace.pass_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - pass_time(plain), "s"),
        })

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args), "environment": env,
        "setups": setups,
        "passes": [{"traced": t, **{k: r[k] for k in (
            "pass_s", "op_s", "peak_rss_mb", "user_s", "sys_s", "minor_faults")}}
            for t, r in passes],
        "attempted": attempted, "failed": failed, "problems": failures,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for number, (t, r) in enumerate(passes):
                for span in r["spans"] or ():
                    fh.write(json.dumps([number] + span) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
