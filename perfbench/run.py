"""csacode benchmark: full coded-computation rounds, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
Round times are paced by a reference kernel timed just before each operation
(see ``reference_kernels``): ``round_p50_ref`` and ``round_p75_ref`` are the
median and tail of round time over kernel time, ``results_per_kref`` is
decoded results per 1000 kernel times.  ``setup_s`` and ``peak_rss_mb`` are
plain seconds and megabytes.  The summary also prints the raw wall-time
``round_p50_ms``, ``round_p75_ms``, ``results_per_s`` and ``failed_ratio``
(``failed`` over ``attempted`` in the result).

``--trace 1`` measures the per-layer metrics: it first times untraced rounds
in this process, which never installs a wrapper, then runs ``tracer.py`` as a
child process on the same seed; the difference of the two round medians is
the tracing overhead.  ``--workload all`` runs every workload in turn, each in
its own process.

The workloads, why each was chosen and which layer metrics it should move are
in ``workloads.py``.  Every round is checked against the direct oracle outside
the timed region.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full result, provenance
included, is also written under ``perfbench/out/``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread; before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The tail percentile: at 24 s the slowest workload (cdbmm-large, about 0.45 s
# a round with its kernel and oracle check) gives 46 to 57 rounds, so p75 is
# the highest percentile that keeps at least 10 samples beyond it on every
# workload.
TAIL = 75
SETUP_PROBES = 7
# A --trace 1 run spends this share of --seconds on untraced rounds; the traced
# child runs a fixed number of operations sized to about half of --seconds, so
# two traced runs on one seed give identical counts.
UNTRACED_SHARE = 0.4
TRACED_SHARE = 0.5
TRACED_OPS = (5, 100)  # bounds; span memory grows with the count
CHILD_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import the csacode of this checkout, never an installed copy."""
    if not (SRC / "csacode" / "__init__.py").is_file():
        fail(f"no csacode sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import csacode
    import workloads

    if Path(csacode.__file__).resolve().parent != SRC / "csacode":
        fail(f"imported csacode from {csacode.__file__}, not from {SRC}")
    return workloads


def provenance(workloads, workload, args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "csacode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, "moves": list(workload.moves),
        **workloads.provenance(workload),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def reference_kernels() -> dict:
    """Fixed work that uses no csacode code, timed just before every operation.

    On a shared machine the speed of this process drifts by up to 2x over
    minutes with the host's load, and interpreter-bound code drifts more than
    array kernels.  Dividing each round's time by the time of a kernel of the
    same kind, measured a moment earlier, cancels that drift; a change to
    csacode moves the round and not the kernel.
    """
    import numpy as np

    small = np.arange(64, dtype=np.int64).reshape(8, 8)
    ints = (np.arange(128 * 128, dtype=np.int64).reshape(128, 128) * 7919) % 65537
    floats = ints[:96, :96].astype(np.float64)

    def python_kernel():  # hashing, int conversions and small-array calls
        acc = 0
        for i in range(2000):
            digest = hashlib.sha256(i.to_bytes(8, "little")).digest()
            acc += int.from_bytes(digest[:8], "little") & 7
        for i in range(100):
            acc += int(((small * 3 + i) % 65537).sum())
        return acc

    def numpy_kernel():  # int64 and float64 products
        return int(((ints @ ints) % 65537)[0, 0] + ((floats @ floats) % 65537)[0, 0])

    return {"python": python_kernel, "numpy": numpy_kernel}


def untraced(workloads, workload, seed: int, seconds: float) -> dict:
    """Time whole operations until ``seconds`` of wall time have passed.

    Operation 0 shows the gate works, then runs once as an untimed warm-up
    (checked and counted).  Timed operations start at 1.  Each is preceded by
    the workload's reference kernel, timed on its own.
    """
    clock = time.perf_counter
    kernel = reference_kernels()[workload.reference]
    rounds = workloads.build(workload)
    warm = workloads.draw_op(rounds, seed, 0)
    workloads.self_test(rounds, warm)
    attempted = failed = 0
    times, refs, oracle, results = [], [], [], 0
    problems = []
    index = 0
    deadline = None
    while deadline is None or clock() < deadline:
        inputs = warm if index == 0 else workloads.draw_op(rounds, seed, index)
        t0 = clock()
        kernel()
        ref = clock() - t0
        outcomes = workloads.run_op(rounds, inputs, clock)
        del inputs
        warm = None
        attempted += 1
        bad = [f"op {index} {o.spec.label}: {p}" for o in outcomes for p in o.problems]
        failed += bool(bad)
        problems += bad
        if index == 0:
            deadline = clock() + seconds
        else:
            times.append(sum(o.seconds for o in outcomes))
            refs.append(ref)
            oracle.append(sum(o.oracle_seconds for o in outcomes))
            results += sum(o.results for o in outcomes)
        index += 1
    return {"attempted": attempted, "failed": failed, "problems": problems[:10],
            "times": times, "refs": refs, "oracle": oracle, "results": results}


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def setup_seconds(workload_name: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload",
             workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60)
        if proc.returncode:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(workloads, workload, args) -> tuple:
    setup = setup_seconds(workload.name, args.seed)
    run = untraced(workloads, workload, args.seed, args.seconds)
    times_ms = [t * 1e3 for t in run["times"]]
    paced = [t / r for t, r in zip(run["times"], run["refs"])]
    tail = f"round_p{TAIL}_ref"
    metrics = {
        "round_p50_ref": (statistics.median(paced), "ref"),
        tail: (percentile(paced, TAIL), "ref"),
        "results_per_kref": (run["results"] / sum(paced) * 1e3, "1/kref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"samples": len(times_ms),
             "samples_beyond_tail": sum(p > metrics[tail][0] for p in paced),
             "wall_time": {
                 "round_p50_ms": [statistics.median(times_ms), "ms"],
                 f"round_p{TAIL}_ms": [percentile(times_ms, TAIL), "ms"],
                 "results_per_s": [run["results"] / sum(run["times"]), "1/s"]},
             "reference": workload.reference,
             "reference_p50_ms": statistics.median(run["refs"]) * 1e3,
             "setup_samples_s": setup,
             "failed_ratio": run["failed"] / run["attempted"],
             "problems": run["problems"]}
    return run, metrics, extra


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_computed"):
        return "B"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(workloads, workload, args) -> tuple:
    run = untraced(workloads, workload, args.seed, args.seconds * UNTRACED_SHARE)
    ops = round(args.seconds * 1e3 * TRACED_SHARE / workload.nominal_op_ms)
    ops = min(max(ops, TRACED_OPS[0]), TRACED_OPS[1])
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--workload", workload.name,
         "--seed", str(args.seed), "--ops", str(ops)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        fail(f"traced run failed:\n{proc.stderr}")
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced_p50 = statistics.median(run["times"]) * 1e3
    metrics = {name: (value, layer_unit(name))
               for name, value in traced["metrics"].items()}
    metrics["harness.direct_oracle_ms"] = (statistics.median(run["oracle"]) * 1e3, "ms")
    metrics["trace.overhead_ms"] = (traced["round_p50_ms"] - untraced_p50, "ms")
    run["attempted"] += traced["ops"]
    run["failed"] += traced["failed"]
    run["problems"] += traced["problems"]
    extra = {"untraced_samples": len(run["times"]), "traced_ops": traced["ops"],
             "traced_round_p50_ms": traced["round_p50_ms"],
             "untraced_round_p50_ms": untraced_p50, "spans": traced["spans"],
             "server_mults_by_round": traced["server_mults_by_round"],
             "failed_ratio": run["failed"] / run["attempted"],
             "problems": run["problems"]}
    return run, metrics, extra


def run_one(args) -> int:
    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    info = provenance(workloads, workload, args)
    measure = per_layer if args.trace else end_to_end
    try:
        run, metrics, extra = measure(workloads, workload, args)
    except AssertionError as exc:  # the gate's self-test: the benchmark is broken
        fail(f"correctness gate self-test failed: {exc}")
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"provenance": info, "details": extra, **result},
                               indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    for problem in extra["problems"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in [*metrics.items(), *extra.get("wall_time", {}).items()]:
        print(f"{workload.name:17s} {name:38s} {value:14.4f} {unit}")
    print(f"{workload.name:17s} {'failed_ratio':38s} {extra['failed_ratio']:14.4f} "
          f"({run['failed']} of {run['attempted']} operations)")
    print(json.dumps({"details": {k: v for k, v in extra.items() if k != "problems"}}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints their results in turn."""
    workloads = load_library()
    combined = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode:
            fail(f"workload {name} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1]))  # the summary, without provenance
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
