"""One workload process: generate its inputs, time its set-up, or run it.

    python bench/worker.py generate WORK WORKLOAD SEED
    python bench/worker.py setup WORK
    python bench/worker.py run WORK SECONDS TRACE

``setup`` times set-up: import rvopt, then load and validate every problem
file of the workload.  ``run`` times set-up and one cold pass over the case
list, closed-loop through ``rvopt.cli.main`` in this process, then warm
passes until SECONDS have been measured (at least one).  With TRACE=1 every
warm pass runs twice with the same program seed, untraced and then traced,
so the tracing overhead is measured on identical work.  All outputs are
checked after the timed passes, and the result is printed as one JSON
line; the caller compares output digests across processes.

The benchmark's own modules import numpy or rvopt, so they are imported
inside functions, after set-up has been timed.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

MIN_WARM_PASSES = 1
SCAN_COMMANDS = ("scan", "errorbound")      # output does not depend on --seed


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_import(rvopt):
    src = os.path.join(os.getcwd(), "src", "rvopt")
    if os.path.dirname(os.path.abspath(rvopt.__file__)) != src:
        raise SystemExit(f"rvopt imported from {rvopt.__file__}, not from {src}")


def generate(work, workload, seed):
    from cases import PROGRAM_SEEDS, build_cases
    import rvopt
    _check_import(rvopt)
    cases = build_cases(workload, seed, work)
    with open(os.path.join(work, "cases.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "program_seeds": PROGRAM_SEEDS, "cases": cases}, handle, indent=1)


def _setup(cases):
    """Returns rvopt.cli and the seconds set-up took."""
    begin = time.perf_counter()
    import rvopt
    import rvopt.cli
    for path in sorted({case["file"] for case in cases}):
        doc = rvopt.cli.load_document(path)
        rvopt.cli.problem_from_document(doc)
        rvopt.cli.tolerances_from_document(doc)
    elapsed = time.perf_counter() - begin
    _check_import(rvopt)
    return rvopt.cli, elapsed


def setup(work):
    _, setup_s = _setup(_read_json(os.path.join(work, "cases.json"))["cases"])
    print(json.dumps({"setup_s": setup_s}))


class Outcomes:
    """Exit code, output digest and first output of every case execution.

    Outputs are keyed by case and program seed, or by case alone for
    commands whose output does not depend on the seed; every execution
    must reproduce the bytes of the first one with the same key.
    """

    def __init__(self, cases):
        self.cases = cases
        self.first = {}              # key -> (code, out, err, digest)
        self.records = []            # (key, pass number, bytes equal the first's)
        self.seconds = {}            # key -> wall seconds of its untraced executions

    def key(self, index, seed):
        name = self.cases[index]["name"]
        return (name,) if self.cases[index]["argv"][0] in SCAN_COMMANDS else (name, seed)

    def add(self, index, seed, code, out, err, seconds, pass_no, traced):
        argv = self.cases[index]["argv"]
        payload = f"{code}\n{out}\0{err}".encode()
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "rb") as handle:
                payload += b"\0" + handle.read()
        digest = hashlib.sha256(payload).hexdigest()
        key = self.key(index, seed)
        self.first.setdefault(key, (code, out, err, digest))
        self.records.append((key, pass_no, self.first[key][3] == digest))
        if not traced:
            self.seconds.setdefault(key, []).append(seconds)


def _run_case(main, case, seed):
    out, err = io.StringIO(), io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(case["argv"] + ["--seed", str(seed)])
        except Exception:               # an uncaught exception is a failed case
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - begin


def _run_pass(main, cases, seed, outcomes, pass_no, tracer=None):
    """One closed-loop pass; returns its wall seconds.  Every pass starts
    from a collected heap, and outputs are digested after the pass, outside
    the timed region."""
    results = []
    gc.collect()
    begin = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = pass_no * len(cases) + i
        results.append(_run_case(main, case, seed))
    wall = time.perf_counter() - begin
    for i, outcome in enumerate(results):
        outcomes.add(i, seed, *outcome, pass_no, tracer is not None)
    return wall


def _check_outputs(cases, outcomes):
    """Checks the first output of every key.  Returns the failed checks by
    key and the number of report stages with status error by key."""
    import checks
    docs = {case["file"]: _read_json(case["file"]) for case in cases}
    problems, stage_errors = {}, {}
    try:
        checks.self_test(_read_json(os.path.join("problems", "e1.json")))
    except checks.CheckError as exc:
        problems["own oracle"] = str(exc)
    by_name = {case["name"]: case for case in cases}
    for key, (code, out, err, _) in outcomes.first.items():
        case = by_name[key[0]]
        doc, argv = docs[case["file"]], case["argv"]
        try:
            if code is None:            # uncaught exception: failed, nothing to check
                continue
            if code == 1:
                checks.check_error(err)
            elif argv[0] == "report":
                stage_errors[key] = checks.check_report(doc, out, code)
            elif argv[0] == "certify":
                checks.check_certify(out, code)
            elif argv[0] == "scan":
                checks.check_scan(doc, argv, out)
            elif argv[0] == "errorbound":
                checks.check_errorbound(doc, argv, out)
        except (checks.CheckError, KeyError, ValueError) as exc:
            problems[key] = f"{case['name']}: {type(exc).__name__}: {exc}"
    return problems, stage_errors


def _layer_metrics(tracer, passes, n_cases):
    """Per-layer values of each traced pass, then the median over passes.
    ``passes`` holds (pass number, wall seconds) of the traced passes."""
    import numpy as np
    from tracing import COUNTERS
    dur, self_time = tracer.self_times()
    layer = np.frombuffer(tracer.layer, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    pass_of = np.frombuffer(tracer.case, dtype=np.int32) // n_cases
    per_pass = []
    for pass_no, wall in passes:
        in_pass = pass_of == pass_no
        values = dict.fromkeys(COUNTERS, 0)
        for layer_id, name in enumerate(tracer.layers):
            key = "cli.self_s" if name == "cli" else f"{name}.s"
            values[key] = float(self_time[in_pass & (layer == layer_id)].sum())
        values["trace.unattributed_s"] = wall - float(dur[in_pass & (parent < 0)].sum())
        for (case_id, key), amount in tracer.counts.items():
            if case_id // n_cases == pass_no:
                values[key] += amount
        per_pass.append(values)
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    n_checks, points = out["regularity.increase.checks"], out["oracle.scan.points"]
    out["regularity.increase.pass_ratio"] = (
        out["regularity.increase.passes"] / n_checks if n_checks else 0.0)
    out["oracle.scan.feasible_ratio"] = out["oracle.scan.feasible"] / points if points else 0.0
    return out


def run(work, seconds, trace):
    spec = _read_json(os.path.join(work, "cases.json"))
    cases, seeds = spec["cases"], spec["program_seeds"]
    cli, setup_s = _setup(cases)
    outcomes = Outcomes(cases)
    cold = _run_pass(cli.main, cases, seeds[0], outcomes, 0)

    if trace:
        from tracing import Tracer
        tracer = Tracer()
        traced_main = tracer.wrap(cli.main, "cli")
    warm, traced = [], []            # wall seconds; (pass number, wall seconds)
    begin = time.perf_counter()
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - begin < seconds:
        pass_no = 2 * len(warm) + 1
        seed = seeds[(len(warm) + 1) % len(seeds)]
        warm.append(_run_pass(cli.main, cases, seed, outcomes, pass_no))
        if trace:
            tracer.install()
            try:
                wall = _run_pass(traced_main, cases, seed, outcomes, pass_no + 1, tracer)
            finally:
                tracer.uninstall()
            traced.append((pass_no + 1, wall))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, stage_errors = _check_outputs(cases, outcomes)
    bad = {key for key, (code, *_) in outcomes.first.items() if code in (None, 1)}
    bad |= {key for key, count in stage_errors.items() if count} | set(problems)
    mismatched = {key for key, _, same in outcomes.records if not same}
    messages = list(problems.values()) + [
        f"{' seed '.join(map(str, key))}: output bytes differ between passes with "
        "identical inputs" for key in sorted(mismatched)]
    outputs = []
    for key, (code, _, err, digest) in sorted(outcomes.first.items()):
        runs = [same for k, _, same in outcomes.records if k == key]
        outputs.append({"case": key[0], "seed": key[1] if len(key) > 1 else None,
                        "exit_code": code, "digest": digest, "failed": key in bad,
                        "error": err.strip().splitlines()[-1] if err.strip() else None,
                        "stage_errors": stage_errors.get(key, 0),
                        "runs": len(runs), "mismatches": runs.count(False),
                        "seconds": outcomes.seconds.get(key, [])})
    result = {"problems": messages, "setup_s": setup_s, "cold_pass_s": cold,
              "warm_passes": warm, "peak_rss_mib": peak_rss_mib,
              "numpy": sys.modules["numpy"].__version__, "outputs": outputs}
    if trace:
        layers = _layer_metrics(tracer, traced, len(cases))
        layers["trace.overhead_ratio"] = (statistics.median(w for _, w in traced)
                                          / statistics.median(warm))
        layers["reporting.stage_errors"] = statistics.median(
            sum(stage_errors.get(key, 0) for key, no, _ in outcomes.records if no == pass_no)
            for pass_no, _ in traced)
        result["layers"] = layers
        tracer.save(os.path.join(work, f"spans-{os.getpid()}.npz"),
                    [case["name"] for case in cases])
    print(json.dumps(result))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "generate":
        generate(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    elif mode == "setup":
        setup(sys.argv[2])
    elif mode == "run":
        run(sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
