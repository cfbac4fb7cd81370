"""Traced run of one workload: per-layer spans recorded from outside csacode.

The layer modules are not edited.  ``Tracer.install`` rebinds every public
function of each layer module, and the ``PrimeField`` kernels, to a wrapper
that records a span (name, start, end, parent span, operation id).  A name
imported by value (``from .structmat import solve_batch`` in ``csa``) is
rebound in every layer module that holds it, so such calls are seen too.
Spans are recorded only inside ``harness.run_cdbmm`` / ``harness.run_nlinear``,
so input generation and the direct oracle stay out of the trace.  Spans stay
in memory and are written to ``perfbench/out/spans-<workload>.npz`` when the
run ends.

``run.py --trace 1`` starts this file as a child process, so the untraced
measurement runs in a process that never installed the wrappers:

    python3 perfbench/tracer.py --workload small-mixed --seed 1 --ops 50
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

LAYERS = ("ffield", "structmat", "ep", "csa", "gcsa", "ncsa", "harness")
ROOTS = ("harness.run_cdbmm", "harness.run_nlinear")
# Scalar add/sub/mul/pow are left bare: a span costs about a microsecond,
# more than the call it would time.
FIELD_METHODS = ("matmul", "inv", "batch_inv")
# 81,920 calls a secure-byzantine round; its time stays inside noise_block.
UNWRAPPED = ("ncsa.noise_element",)
# Names other layers import by value; install() refuses to run without them.
BY_VALUE = (("csa", "solve_batch"), ("ep", "solve_batch"), ("gcsa", "solve_batch"),
            ("ncsa", "solve_batch"), ("csa", "cv_matrix"),
            ("gcsa", "confluent_cv_matrix"), ("ncsa", "rs_error_correct"))

# Metric prefix -> spans whose self time it sums.  A span of no group (a
# helper such as ep.split_blocks) counts toward its parent's group when both
# sit in the same module; work in another layer counts toward that layer.
GROUPS = {
    "ffield.matmul": ("ffield.PrimeField.matmul",),
    "ffield.inv": ("ffield.PrimeField.inv",),
    "structmat.solve_batch": ("structmat.solve_batch",),
    "structmat.cv_matrix": ("structmat.cv_matrix", "structmat.confluent_cv_matrix"),
    "structmat.rs_error_correct": ("structmat.rs_error_correct",),
    "ep.encode": ("ep.ep_encode_a", "ep.ep_encode_b"),
    "ep.answer": ("ep.ep_answer",),
    "ep.decode": ("ep.ep_decode",),
    "csa.encode": ("csa.csa_encode_a", "csa.csa_encode_b", "csa.systematic_encode"),
    "csa.answer": ("csa.csa_answer", "csa.systematic_answer"),
    "csa.decode": ("csa.csa_decode", "csa.systematic_decode"),
    "gcsa.encode": ("gcsa.gcsa_encode_a", "gcsa.gcsa_encode_b"),
    "gcsa.answer": ("gcsa.gcsa_answer",),
    "gcsa.decode": ("gcsa.gcsa_decode",),
    "ncsa.encode": ("ncsa.ncsa_encode", "ncsa.xs_encode", "ncsa.ncsa_systematic_encode"),
    "ncsa.noise": ("ncsa.noise_block",),
    "ncsa.answer": ("ncsa.ncsa_answer", "ncsa.poly_batch_eval_answer",
                    "ncsa.ncsa_systematic_answer"),
    "ncsa.decode": ("ncsa.ncsa_decode", "ncsa.xsb_decode", "ncsa.ncsa_systematic_decode"),
    "harness.round": ("harness.run_cdbmm", "harness.run_nlinear"),
}
SELF_TIME_METRICS = {g + (".self_ms" if g == "harness.round" else ".time_ms"): g
                     for g in GROUPS}


class Tracer:
    """Spans of one traced run, in flat arrays: name id, start and end in ns,
    parent span index (-1 for a root) and operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self.enabled = False  # roots record once the warm-up is over
        self.active = False   # inside a root span
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.noise_keys: set = set()

    # ---- recording ----

    def wrap(self, label: str, fn, count=None):
        name_id = len(self.names)
        self.names.append(label)
        is_root = label in ROOTS
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if not (self.active or (is_root and self.enabled)):
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(idx)
            self.active = True
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                self.active = bool(stack)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind the layers' public functions and the PrimeField kernels."""
        mods = {m: importlib.import_module(f"csacode.{m}") for m in LAYERS}
        wrappers = {}  # original function -> its wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                label = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and label not in UNWRAPPED):
                    wrappers[obj] = self.wrap(label, obj, COUNTERS.get(label))
        for mod in mods.values():  # names imported by value, and the originals
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        field_cls = mods["ffield"].PrimeField
        for meth in FIELD_METHODS:
            label = f"ffield.PrimeField.{meth}"
            setattr(field_cls, meth,
                    self.wrap(label, getattr(field_cls, meth), COUNTERS.get(label)))
        for short, attr in BY_VALUE:
            if getattr(getattr(mods[short], attr), "__wrapped__", None) is None:
                raise RuntimeError(f"csacode.{short}.{attr} escaped the tracer")

    # ---- aggregation ----

    def self_times(self, ops: int) -> dict:
        """Median over operations of each group's self time, in ms."""
        n = len(self.start)
        group_of = {}
        for g, labels in GROUPS.items():
            for label in labels:
                group_of[label] = g
        name_group = [group_of.get(label) for label in self.names]
        name_module = [label.split(".", 1)[0] for label in self.names]
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        attributed = [None] * n
        per_op = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            nid = self.name[i]
            g = name_group[nid]
            p = self.parent[i]
            if g is None and p >= 0 and attributed[p] is not None \
                    and name_module[nid] == attributed[p].split(".", 1)[0]:
                g = attributed[p]
            attributed[i] = g
            if g is not None:
                per_op[self.op[i]][g] += self.end[i] - self.start[i] - child_ns[i]
        out = {}
        for metric, g in SELF_TIME_METRICS.items():
            out[metric] = statistics.median(
                per_op[op].get(g, 0) / 1e6 for op in range(1, ops + 1))
        return out

    def locate_ms(self, ops: int) -> float:
        """Median per operation of the Berlekamp-Welch time that N-CSA decoding
        spends locating forged answers: rs_error_correct spans called from
        ncsa, children included."""
        rs = self.names.index("structmat.rs_error_correct")
        xsb = self.names.index("ncsa.xsb_decode")
        per_op = defaultdict(int)
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == rs and p >= 0 and self.name[p] == xsb:
                per_op[self.op[i]] += self.end[i] - self.start[i]
        return statistics.median(per_op.get(op, 0) / 1e6 for op in range(1, ops + 1))

    def save(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int64),
            start_ns=np.frombuffer(self.start, np.int64),
            end_ns=np.frombuffer(self.end, np.int64),
            parent=np.frombuffer(self.parent, np.int64),
            op=np.frombuffer(self.op, np.int64))


# ---- counters taken at the same boundaries as the spans ----


def _count_matmul(tr, args, result):
    _, a, b = args
    tr.counts["ffield.matmul.calls"] += 1
    tr.counts["ffield.matmul.macs"] += (a.size // a.shape[-1]) * a.shape[-1] * (
        b.size // b.shape[0])
    tr.counts["ffield.matmul.bytes_computed"] += a.nbytes + b.nbytes + result.nbytes


def _calls(metric: str):
    def count(tr, args, result):
        tr.counts[metric] += 1
    return count


def _count_noise(tr, args, result):
    _, seed, var, l, k, x, shape = args
    tr.counts["ncsa.noise.blocks_generated"] += 1
    tr.noise_keys.add((tr.current_op, seed, var, l, k, x, tuple(shape)))


def _count_solve_batch(tr, args, result):
    _, mat, rhs = args
    tr.counts["structmat.solve_batch.calls"] += 1
    tr.counts["structmat.solve_batch.rows"] += mat.shape[0]
    tr.counts["structmat.solve_batch.rhs_cols"] += rhs.size // mat.shape[0]


COUNTERS = {
    "ffield.PrimeField.matmul": _count_matmul,
    "ffield.PrimeField.inv": _calls("ffield.inv.calls"),
    "structmat.solve_batch": _count_solve_batch,
    "structmat.rs_error_correct": _calls("structmat.rs_error_correct.calls"),
    "structmat.solve_any": _calls("structmat.solve_any.calls"),
    "ncsa.noise_block": _count_noise,
}
COUNT_METRICS = ("ffield.matmul.calls", "ffield.matmul.macs",
                 "ffield.matmul.bytes_computed", "ffield.inv.calls",
                 "structmat.solve_batch.calls", "structmat.solve_batch.rows",
                 "structmat.solve_batch.rhs_cols", "structmat.rs_error_correct.calls",
                 "structmat.solve_any.calls", "ncsa.noise.blocks_generated")


def harness_metrics(ops_outcomes) -> dict:
    """Counts read off the CostReports of every round, per operation."""
    n = len(ops_outcomes)
    rounds = [o for op in ops_outcomes for o in op if o.report is not None]
    seen = set()
    repeats = 0
    for o in rounds:
        key = (o.spec.label, o.responsive)
        repeats += key in seen
        seen.add(key)
    counted = [o.server_mults for o in rounds if o.server_mults is not None]
    return {
        "harness.answer_useful_ratio":
            sum(o.report.theory.threshold for o in rounds)
            / sum(len(o.responsive) for o in rounds),
        "harness.responsive_set_repeat_ratio": repeats / len(rounds),
        "harness.uploaded_elements":
            sum(sum(o.report.uploaded_elements) for o in rounds) / n,
        "harness.downloaded_elements":
            sum(o.report.downloaded_elements for o in rounds) / n,
        # Only maps with a multiplication count; see server_mults_uncounted.
        "harness.server_mults": sum(counted) / n,
        "harness.server_mults_uncounted": (len(rounds) - len(counted)) / n,
    }


def traced_run(workload_name: str, seed: int, ops: int) -> dict:
    import workloads

    tracer = Tracer()
    tracer.install()
    workload = workloads.WORKLOADS[workload_name]
    rounds = workloads.build(workload)
    workloads.run_op(rounds, workloads.draw_op(rounds, seed, 0),
                     time.perf_counter)  # untraced warm-up, operation 0
    tracer.enabled = True
    ops_outcomes = []
    for index in range(1, ops + 1):
        inputs = workloads.draw_op(rounds, seed, index)
        tracer.current_op = index
        ops_outcomes.append(workloads.run_op(rounds, inputs, time.perf_counter))
        del inputs
    problems = [f"traced op {index} {o.spec.label}: {p}"
                for index, op in enumerate(ops_outcomes, 1) for o in op for p in o.problems]
    metrics = tracer.self_times(ops)
    metrics["ncsa.locate.time_ms"] = tracer.locate_ms(ops)
    for name in COUNT_METRICS:
        metrics[name] = tracer.counts[name] / ops
    generated = tracer.counts["ncsa.noise.blocks_generated"]
    # With no block generated, none was wasted.
    metrics["ncsa.noise.useful_ratio"] = (len(tracer.noise_keys) / generated
                                          if generated else 1.0)
    metrics.update(harness_metrics(ops_outcomes))
    tracer.save(OUT / f"spans-{workload_name}.npz")
    return {
        "ops": ops,
        "failed": sum(any(o.problems for o in op) for op in ops_outcomes),
        "problems": problems[:10],
        "spans": len(tracer.start),
        "round_p50_ms": statistics.median(
            sum(o.seconds for o in op) * 1e3 for op in ops_outcomes),
        # None (JSON null), never 0, for a map without a multiplication count.
        "server_mults_by_round": {o.spec.label: o.server_mults for o in ops_outcomes[0]},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(traced_run(args.workload, args.seed, args.ops)))
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
