"""rvopt benchmark: four closed-loop workloads through the public CLI entry.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script generates the workload's
inputs from --seed, then runs the case list in WORKERS fresh processes one
after another, each with BLAS threads pinned to 1, timing set-up and a cold
pass in each and splitting the --seconds of warm passes between them, with
set-up-only processes in between.  Spreading every kind of sample over the
whole run keeps the medians steady on a host whose speed drifts by tens of
percent within seconds.  Every output is checked, and identical inputs must
give identical bytes in every process.  The last line printed is one JSON
object with the metrics named in BENCHMARK.json: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1.  Details of the run (exit
codes, digests, per-pass times, the machine) go to
.bench_work/<workload>/result.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKERS = 3                   # fresh processes running the workload
SETUP_PROBES = 2              # set-up-only processes before each worker
DEADLINE_S = 170.0            # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, env, deadline):
    """Run one worker step to completion; returns its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for worker step {args[0]}")
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker step {args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def _machine(numpy_version):
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_model": model, "nproc": len(os.sched_getaffinity(0))}


def _merge(workers, setups):
    """One result from the worker processes.  The first process to run an
    input gives the reference bytes; a case execution fails when its key
    failed there, or when its bytes differ from the reference."""
    reference, seconds = {}, {}
    attempted = failed = 0
    problems = []
    for worker in workers:
        problems += worker["problems"]
        for out in worker["outputs"]:
            key = (out["case"], out["seed"])
            ref = reference.setdefault(key, out)
            seconds.setdefault(key, []).extend(out["seconds"])
            attempted += out["runs"]
            if out["digest"] != ref["digest"]:
                problems.append(f"{out['case']} seed {out['seed']}: output bytes differ "
                                "between processes")
                failed += out["runs"]
            else:
                failed += out["runs"] if ref["failed"] else out["mismatches"]
    outputs = [{**{k: v for k, v in reference[key].items() if k != "seconds"},
                "median_s": statistics.median(seconds[key])}
               for key in sorted(reference, key=str)]
    warm = [w for worker in workers for w in worker["warm_passes"]]
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": sorted(set(problems)),
        "setup_s": statistics.median([w["setup_s"] for w in workers] + setups),
        "cold_pass_s": statistics.median(w["cold_pass_s"] for w in workers),
        "pass_s": statistics.median(warm),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mib": max(w["peak_rss_mib"] for w in workers),
        "setup_samples": [w["setup_s"] for w in workers] + setups,
        "cold_pass_samples": [w["cold_pass_s"] for w in workers],
        "warm_passes": warm,
        "outputs": outputs,
    }
    if "layers" in workers[0]:
        result["layers"] = {k: statistics.median(w["layers"][k] for w in workers)
                            for k in workers[0]["layers"]}
        result["layers"]["failed_ratio"] = failed / attempted
    return result


def _metric_specs(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer"] if trace else spec["end_to_end"], [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    for needed in ("src/rvopt/__init__.py", "problems/e1.json", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"bench: {needed} not found; run from the root of an rvopt checkout")
    metrics, workloads = _metric_specs(root, args.trace)
    if args.workload not in workloads:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {workloads}")

    work = os.path.join(".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = _child_env(root)
    workers, setups = [], []
    try:
        _child(["generate", work, args.workload, str(args.seed)], env, deadline)
        for _ in range(WORKERS):
            setups += [json.loads(_child(["setup", work], env, deadline))["setup_s"]
                       for _ in range(SETUP_PROBES)]
            workers.append(json.loads(_child(
                ["run", work, str(args.seconds / WORKERS), str(args.trace)], env, deadline)))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.exit(f"bench: {exc}")
    result = _merge(workers, setups)
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=_machine(workers[0]["numpy"]))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    values = result["layers"] if args.trace else result
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        sys.exit(f"bench: the run produced no value for {missing}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({"machine": result["machine"], "warm_passes": result["warm_passes"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in metrics}}))


if __name__ == "__main__":
    main()
