"""Passes of a benchmark workload, each in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD

The worker times its own set-up (the imports the workload needs and the
first load_reference()) and prints it as one JSON line. It then reads lines
"SPEC_JSON RESULT_JSON" from standard input. For each it forks a child that
runs one pass, writes its result and exits, and answers with one JSON line
holding the child's exit status. It ends at the end of its input. run.py
starts one worker per run for the passes, and more, with empty input, for
set-up samples.

The worker itself never runs an operation, so every child starts from an
interpreter that has only imported the program: no pass sees caches or
lazily built state left by another, as a user who starts a new process per
command would not. Forking skips the interpreter start and the imports, so a
run fits in about a third more passes than with a new interpreter per pass.

A child records when each call of a checkpointed function (spans.py) starts
and ends, which cuts every operation into segments that repeat from pass to
pass, and reads its peak resident memory at the end of the pass. Each
operation reduces its result to the numbers the checks need inside the timed
region, so the result is consumed there. Only after the timing, and when the
spec asks, does the child collect the extra full-precision outputs that the
checks of the published-report workload need. Nothing before the set-up
timer imports more than sys and time.
"""

import sys
import time

T0 = time.perf_counter()


def _import_program(workload, src):
    sys.path.insert(0, src)
    if workload == "published-report":
        import heunqdot.cli  # noqa: F401  (imports every layer)
    elif workload == "high-n-roots":
        import heunqdot.termination  # noqa: F401
    else:
        import heunqdot.oracle  # noqa: F401
    import heunqdot.reference_data
    t_import = time.perf_counter()
    heunqdot.reference_data.load_reference()
    return t_import


def _report_op(op):
    from heunqdot import cli
    cli.main(op["argv"])


def _roots_op(op):
    from heunqdot import termination
    res = termination.solve_termination(op["n"], op["l"])
    return [r.t_star for r in res.rootset.roots]


def _eigen_op(op):
    from heunqdot import model, oracle
    res = oracle.solve_eigen(model.RadialProblem(omega=op["omega"], l=op["l"]),
                             oracle.ShootingConfig(node_target=op["N"]),
                             coulomb_on=True)
    return [[e.eta, e.nodes] for e in res.eigenvalues]


OPERATIONS = {"published-report": _report_op, "high-n-roots": _roots_op,
              "exact-states": _eigen_op}


def _report_details(grid):
    """Full-precision roots and every normalized state behind the report."""
    from heunqdot import oracle, termination, wavefunction
    from heunqdot.report import FIXED_OMEGA

    def state(st):
        return {"y": list(st.solution.y_coeffs), "N": st.N,
                "omega": st.omega, "l": st.l}

    roots, states = [], []
    for conv in ("table", "literal"):
        for l in grid["l"]:
            for n in grid["n"]:
                ts = [r.t_star for r in termination.solve_termination(
                    n, l, termination.GammaConvention(conv)).rootset.roots]
                roots.append({"convention": conv, "n": n, "l": l, "roots": ts})
                if conv != "table":
                    continue
                for t in ts + [1.0 / FIXED_OMEGA ** 0.5]:
                    states.append(state(wavefunction.normalize(
                        wavefunction.assemble_polynomial(n, l, t))))
                for t in ts:
                    printed = termination.printed_series_coefficients(l, t)[:n + 1]
                    states.append(state(wavefunction.normalize(
                        wavefunction.assemble_polynomial(n, l, t, A_chain=printed))))
    for k, l in ((0, 0), (1, 0), (1, 1)):
        states.append(state(oracle.oscillator_state(k, l)))
    return {"roots": roots, "states": states}


def _peak_rss_mb():
    """VmHWM of this process, the forked child of a pass: the peak of the
    pages it has touched, its own or shared with the worker. Module and
    library pages that the pass never touches are not counted, so it reads
    lower than in a fresh interpreter (65 against 88 MB on published-report)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(workload, spec_path, result_path):
    import json
    with open(spec_path) as fh:
        spec = json.load(fh)
    import spans
    recorder = spans.Recorder() if spec["trace"] else spans.Marks()
    spans.install(recorder)
    marks = recorder.marks

    operation = OPERATIONS[workload]
    outputs, errors, op_s, op_segments = [], [], [], []
    clock = time.perf_counter
    t0 = clock()
    for op in spec["ops"]:
        first = len(marks)
        t_op = clock()
        try:
            outputs.append(operation(op))
            errors.append(None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        t_end = clock()
        op_s.append(t_end - t_op)
        bounds = [t_op] + marks[first:] + [t_end]
        op_segments.append([b - a for a, b in zip(bounds, bounds[1:])])
    pass_s = clock() - t0
    peak_rss_mb = _peak_rss_mb()
    import resource
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "pass_s": pass_s,
        "op_s": op_s,
        "op_segments": op_segments,
        "peak_rss_mb": peak_rss_mb,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "outputs": outputs,
        "errors": errors,
        "spans": recorder.spans if spec["trace"] else None,
        "details": _report_details(spec["details"]) if spec.get("details") else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main():
    workload = sys.argv[1]
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t_import = _import_program(workload, os.path.join(root, "src"))
    t_ready = time.perf_counter()

    import gc
    import json
    import traceback
    print(json.dumps({"setup_import_s": t_import - T0,
                      "setup_reference_s": t_ready - t_import}), flush=True)
    gc.freeze()  # keep the collector from copying the parent's pages in a child
    for line in sys.stdin:
        spec_path, result_path = line.split()
        pid = os.fork()
        if pid == 0:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # the answers' pipe
            code = 0
            try:
                run_pass(workload, spec_path, result_path)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        print(json.dumps({"status": status}), flush=True)


if __name__ == "__main__":
    main()
