"""khcube benchmark: run a workload, check its outputs, print its metrics.

Run from the root of a khcube checkout:

    python3 bench/run.py --workload t45-deduction --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see BENCHMARK.json).  Every metric is printed by name with its unit,
then the check verdict and the run's record: commit, Python, nproc,
seed and digests of the generated inputs and of all outputs.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run's record and, when
traced, its spans are written under ``.bench_out/``.

Each workload runs in a fresh interpreter (``worker.py``) with
``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and without ``KH_THREADS``.
Set-up time is the median over several fresh interpreters that stop
just before the first timed call.  Times are converted to a reference
CPU speed measured during the run (see ``speed.py``), because the
host's speed drifts; the measured times are printed beside them.  A traced run also runs the workload
untraced, to report the tracing overhead and to require that both runs
give the same outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("t45-deduction", "braid-sweep-z", "ss-sandbox")
SETUP_SAMPLES = 9
RUN_BUDGET_S = 175.0
OUT_DIR = ".bench_out"

END_TO_END = ("wall_s", "item_p50_s", "item_p90_s", "peak_rss_mb")


def metric_units(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


# -- provenance ---------------------------------------------------------------


def git_commit(root: str):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """sha256 over src/khcube's Python files, names and contents."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "khcube")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def provenance(root: str, seed: int, seconds: int) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
    }


# -- child processes ------------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("KH_THREADS", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, deadline: float, what: str) -> str:
    """Run a child to completion within the deadline; return its stdout."""
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError(f"{what}: no time left in the run budget")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what}: killed after {left:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def worker(env, workload: str, seed: int, seconds: int, trace: int,
           deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra,
           "--spawned-at"]
    out = spawn(cmd + [repr(perf_counter())], env, deadline,
                f"{workload} worker")
    return json.loads(out.strip().splitlines()[-1])


# -- one workload ---------------------------------------------------------------


def run_workload(root: str, env, workload: str, seed: int, seconds: int,
                 trace: int) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    record = {"workload": workload, "trace": trace,
              **provenance(root, seed, seconds)}
    if trace:
        base = worker(env, workload, seed, seconds, 0, deadline)
        res = worker(env, workload, seed, seconds, 1, deadline,
                     "--spans", stem + ".spans.jsonl")
        metrics = dict(res["layers"])
        metrics["trace.overhead_frac"] = res["wall_s"] / base["wall_s"] - 1
        same = all(base[k] == res[k] for k in
                   ("items", "failed", "inputs_sha256", "outputs_sha256"))
        record["trace_changes_nothing"] = same
    else:
        setups = [worker(env, workload, seed, seconds, 0, deadline,
                         "--setup-only")
                  for _ in range(SETUP_SAMPLES - 1)]
        res = worker(env, workload, seed, seconds, 0, deadline)
        setups.append({k: res[k] for k in ("setup_s",)})
        setups[-1]["setup_raw_s"] = res["raw"]["setup_s"]
        metrics = {name: res[name] for name in END_TO_END}
        metrics["setup_s"] = statistics.median(x["setup_s"] for x in setups)
        record["raw"] = dict(res["raw"], setup_s=statistics.median(
            x["setup_raw_s"] for x in setups))
        record["setup_samples_s"] = setups
        same = True
    record.update({
        "correct": res["failed"] == 0 and same,
        "attempted": res["items"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["items"],
        "failures": res["failures"],
        "inputs_sha256": res["inputs_sha256"],
        "outputs_sha256": res["outputs_sha256"],
        "metrics": metrics,
    })
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record: dict, units: dict) -> None:
    verdict = "PASS" if record["correct"] else "FAIL"
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  check {verdict}")
    for name, value in record["metrics"].items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<30} {shown} {units[name]}")
    print(f"  {'items':<30} {record['attempted']:>16d} count")
    print(f"  {'failed_frac':<30} {record['failed_frac']:>16.6f} ratio")
    for line in record["failures"]:
        print(f"  failure: {line}")
    if "raw" in record:
        raw = record["raw"]
        print(f"  measured at {raw['speed']:.3f} x reference speed "
              f"({raw['probes']} probes): wall {raw['wall_s']:.6f} s, "
              f"p50 {raw['item_p50_s']:.6f} s, p90 {raw['item_p90_s']:.6f} s, "
              f"setup {raw['setup_s']:.6f} s")
    if "trace_changes_nothing" in record:
        print(f"  traced outputs equal untraced: "
              f"{record['trace_changes_nothing']}")
    print(f"  commit {record['commit']}  src {record['src_sha256'][:16]}  "
          f"python {record['python']}  nproc {record['nproc']}")
    print(f"  inputs {record['inputs_sha256'][:16]}  "
          f"outputs {record['outputs_sha256'][:16]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "khcube", "__init__.py")):
        print("bench/run.py: no src/khcube here; run it from the root of a "
              "khcube checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    units = metric_units(root)
    try:
        # Compile bytecode first, as an install would; set-up excludes it.
        spawn([sys.executable, "-m", "compileall", "-q",
               os.path.join(root, "src", "khcube"), BENCH], env,
              perf_counter() + RUN_BUDGET_S, "compileall")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            records.append(run_workload(root, env, name, args.seed,
                                        args.seconds, args.trace))
            report(records[-1], units)
    except BenchError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for k, v in r["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
