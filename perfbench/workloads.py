"""Workloads of the csacode benchmark: inputs, one operation, and its gate.

One operation is one full round through ``harness.run_cdbmm`` or
``harness.run_nlinear``: encode, server answers, stragglers and forgeries,
decode.  For ``small-mixed`` it is a sweep of five small rounds.  The inputs,
the responsive set and the forger of every round are drawn from the workload
seed outside the timed region, and a fresh responsive set is drawn for every
round; the library receives only the generated inputs.

Left untimed on purpose:

- ``analysis``, ``cli`` and ``matfile``: no planned change targets their
  speed, and a one-shot ``csacode run`` (about 0.33 s) is mostly interpreter
  start and imports, which ``setup_s`` already reflects.
- ``lcc``: ``"scheme": "lcc"`` runs N-CSA until the Lagrange code is wired to
  the shared linear-code core, so a workload for it would time N-CSA twice
  under another name.

Every workload runs in one process with one BLAS thread
(``OPENBLAS_NUM_THREADS=1``, pinned by ``run.py`` before numpy loads).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from csacode import csa, gcsa, harness, ncsa
from csacode.ffield import PrimeField

Q16 = 65537
Q31 = 2147483629  # largest prime below 2**31 that the tests already use


@dataclass(frozen=True)
class RoundSpec:
    """One kind of round: code, field, sizes, straggler and forger mix.

    ``dims`` is (rows, inner, cols) of every product for the CDBMM schemes;
    for ``ncsa`` the shapes come from ``map``, which is ("matmul", dims),
    ("chain", dims) or ("determinant", size).
    """

    label: str
    scheme: str
    q: int
    servers: int
    responsive: int
    params: tuple  # sorted (name, value) pairs, keeps the spec hashable
    dims: tuple = ()
    map: tuple = ()
    forgers: int = 0

    def param(self, name, default=None):
        return dict(self.params).get(name, default)


@dataclass(frozen=True)
class Workload:
    """A named workload, why it exists and which layer metrics it should move."""

    name: str
    why: str
    moves: tuple
    rounds: tuple
    nominal_op_ms: float  # sizes the traced run; measured on a 2-core box
    # Which reference kernel of run.py paces this workload's rounds: "numpy"
    # where array kernels take most of the round, "python" where the
    # interpreter does.
    reference: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cdbmm-large",
        why=("CSA at q=65537 with 192x192 blocks, above the int64/float64 "
             "crossover (9.8 vs 5.9 ms per 192^3 product): ffield.matmul is "
             "about 228 ms of a ~330 ms round, csa encode about 61 ms and "
             "decode about 42 ms, so a BLAS matmul and one-product encode "
             "show here."),
        moves=("ffield.matmul.time_ms", "ffield.matmul.calls",
               "ffield.matmul.macs", "ffield.matmul.bytes_computed",
               "csa.encode.time_ms", "csa.answer.time_ms", "csa.decode.time_ms",
               "structmat.solve_batch.time_ms"),
        rounds=(RoundSpec("csa", "csa", Q16, servers=14, responsive=12,
                          params=(("ell", 2), ("kc", 4)), dims=(192, 192, 192)),),
        nominal_op_ms=330.0,
        reference="numpy",
    ),
    Workload(
        name="cdbmm-q31",
        why=("The same CSA shape at q=2147483629 with 64x64 blocks: "
             "ffield.matmul takes its one-column chunked path "
             "(2**61 // (q-1)**2 == 1), about 56 of a ~65 ms round, so a "
             "kernel that helps q=65537 but costs the large-q path shows here."),
        moves=("ffield.matmul.time_ms", "ffield.matmul.calls",
               "ffield.matmul.macs", "ffield.matmul.bytes_computed"),
        rounds=(RoundSpec("csa-q31", "csa", Q31, servers=14, responsive=12,
                          params=(("ell", 2), ("kc", 4)), dims=(64, 64, 64)),),
        nominal_op_ms=65.0,
        reference="numpy",
    ),
    Workload(
        name="secure-byzantine",
        why=("X=2, B=1 N-CSA on a 16x16x16 matmul map with one seeded forger "
             "per round: matmul is under 1% of the round; noise generation "
             "(320 blocks where 16 are distinct) and per-entry Berlekamp-Welch "
             "(256 calls) dominate. The only workload that exercises "
             "one-shot noise and interleaved RS location; the others bypass "
             "both."),
        moves=("ncsa.noise.time_ms", "ncsa.noise.blocks_generated",
               "ncsa.noise.useful_ratio", "ncsa.locate.time_ms",
               "structmat.rs_error_correct.time_ms",
               "structmat.rs_error_correct.calls", "structmat.solve_any.calls"),
        rounds=(RoundSpec("ncsa-xb", "ncsa", Q16, servers=20, responsive=18,
                          params=(("B", 1), ("X", 2), ("ell", 2), ("kc", 2)),
                          map=("matmul", (16, 16, 16)), forgers=1),),
        nominal_op_ms=200.0,
        reference="python",
    ),
    Workload(
        name="small-mixed",
        why=("A sweep of five small rounds (ep, gcsa, csa-systematic, ncsa "
             "chain, X-secure ncsa determinant) where per-call Python overhead "
             "dominates and no function takes over 25%: the regime of the "
             "tier-1 suite and the shared-core refactor, where a float-BLAS "
             "path below its crossover must not slow things."),
        moves=("ffield.inv.calls", "ffield.inv.time_ms",
               "structmat.solve_batch.time_ms", "structmat.solve_batch.calls",
               "structmat.cv_matrix.time_ms", "ep.encode.time_ms",
               "gcsa.encode.time_ms", "ncsa.encode.time_ms",
               "harness.round.self_ms"),
        rounds=(
            RoundSpec("ep", "ep", Q16, servers=12, responsive=10,
                      params=(("batch", 4), ("m", 2), ("n", 2), ("p", 2)),
                      dims=(8, 8, 8)),
            RoundSpec("gcsa", "gcsa", Q16, servers=24, responsive=22,
                      params=(("ell", 2), ("kc", 2), ("m", 2), ("n", 1), ("p", 2)),
                      dims=(8, 8, 8)),
            # S=10 with exactly R=8 responsive mixes raw and coded answers.
            RoundSpec("csa-systematic", "csa-systematic", Q16, servers=10,
                      responsive=8, params=(("ell", 2), ("kc", 3)), dims=(8, 8, 8)),
            RoundSpec("ncsa-chain", "ncsa", Q16, servers=9, responsive=7,
                      params=(("ell", 2), ("kc", 2)), map=("chain", (4, 4, 4, 4))),
            # determinant_map has no multiplication count (mults=None).
            RoundSpec("ncsa-det", "ncsa", Q16, servers=12, responsive=10,
                      params=(("X", 1), ("ell", 1), ("kc", 2)),
                      map=("determinant", 4)),
        ),
        nominal_op_ms=18.0,
        reference="python",
    ),
)}


@dataclass
class Inputs:
    """Everything one round receives, drawn from the seed."""

    operands: list  # [batch_a, batch_b] for CDBMM, one batch per slot for ncsa
    responsive: tuple
    forged: tuple
    straggler: harness.StragglerModel
    byzantine: Optional[harness.ByzantineModel]


@dataclass
class Outcome:
    """One round as the gate and the metrics see it."""

    spec: RoundSpec
    responsive: tuple
    seconds: float
    oracle_seconds: float
    problems: list
    report: object = None  # CostReport, absent when the round raised
    results: int = 0       # decoded batch results
    server_mults: Optional[int] = None  # None where the map has no count


class Round:
    """A RoundSpec bound to its field and validated parameters."""

    def __init__(self, spec: RoundSpec):
        self.spec = spec
        self.field = PrimeField(spec.q)
        self.omega = None
        p = spec.param
        if spec.scheme == "ep":
            self.setup = harness.ep_setup(self.field, p("p"), p("m"), p("n"),
                                          spec.servers)
            self.batch = p("batch")
        elif spec.scheme in ("csa", "csa-systematic"):
            self.setup = csa.csa_params(self.field, p("ell"), p("kc"), spec.servers,
                                        systematic=spec.scheme == "csa-systematic")
            self.batch = self.setup.batch_size
        elif spec.scheme == "gcsa":
            self.setup = gcsa.gcsa_params(self.field, p("ell"), p("kc"), p("p"),
                                          p("m"), p("n"), spec.servers)
            self.batch = self.setup.batch_size
        else:
            kind, arg = spec.map
            self.omega = {"matmul": lambda d: ncsa.matmul_map(*d),
                          "chain": ncsa.matrix_chain_map,
                          "determinant": ncsa.determinant_map}[kind](arg)
            self.setup = ncsa.ncsa_params(self.field, self.omega.arity, p("ell"),
                                          p("kc"), spec.servers,
                                          x_secure=p("X", 0), byzantine=p("B", 0))
            self.batch = self.setup.batch_size
        scheme = "ncsa" if self.omega is not None else spec.scheme
        self.threshold = harness.theoretical_costs(scheme, self.setup).threshold
        if not self.threshold <= spec.responsive <= spec.servers:
            raise ValueError(f"{spec.label}: responsive count must lie in [R, S]")

    def draw(self, rng: np.random.Generator) -> Inputs:
        f, spec = self.field, self.spec
        if self.omega is None:
            lam, kap, mu = spec.dims
            operands = [[f.rand_matrix(rng, lam, kap) for _ in range(self.batch)],
                        [f.rand_matrix(rng, kap, mu) for _ in range(self.batch)]]
        else:
            operands = [[f.rand_matrix(rng, *(s if len(s) == 2 else (s[0], 1))).reshape(s)
                         for _ in range(self.batch)]
                        for s in self.omega.var_shapes]
        responsive = tuple(sorted(int(s) for s in rng.choice(
            spec.servers, size=spec.responsive, replace=False)))
        forged: tuple = ()
        byzantine = None
        if spec.forgers:
            # Forge among the first R responders, the answers the decoder reads,
            # so the decoder must flag exactly the forged set.
            decoded = responsive[:self.threshold]
            forged = tuple(sorted(int(s) for s in rng.choice(
                decoded, size=spec.forgers, replace=False)))
            byzantine = harness.ByzantineModel.seeded(
                f, forged, seed=int(rng.integers(2**31)))
        return Inputs(operands, responsive, forged,
                      harness.StragglerModel(responsive=responsive), byzantine)

    def run(self, x: Inputs):
        # Look the entry points up on the module at call time, so a traced
        # process sees its wrappers.
        if self.omega is None:
            return harness.run_cdbmm(self.field, self.spec.scheme, self.setup,
                                     x.operands[0], x.operands[1], x.straggler)
        return harness.run_nlinear(self.field, self.setup, self.omega, x.operands,
                                   x.straggler, x.byzantine)

    def oracle(self, x: Inputs) -> list:
        if self.omega is None:
            return harness.direct_products(self.field, x.operands[0], x.operands[1])
        return harness.direct_evaluations(self.field, self.omega, x.operands)


def costs_match(report) -> bool:
    """``measured == theory``.  A systematic layout uploads one raw pair to
    each of its first L servers instead of ell coded ones, so there its upload
    may only fall below the closed form (the contract the tests state)."""
    m, t = report.measured, report.theory
    if report.scheme != "csa-systematic":
        return m == t
    return (m.threshold == t.threshold and m.download == t.download
            and all(u <= v for u, v in zip(m.uploads, t.uploads)))


WRONG_OUTPUT = "output differs from the direct oracle"
WRONG_FLAGS = "flagged servers differ from the forged set"


def check(x: Inputs, outputs, report, expected) -> list:
    """Correctness gate of one round: every reason it failed, or []."""
    problems = []
    if len(outputs) != len(expected) or not all(
            np.array_equal(o, e) for o, e in zip(outputs, expected)):
        problems.append(WRONG_OUTPUT)
    if not costs_match(report):
        problems.append("measured costs differ from theory")
    if tuple(report.flagged_servers) != x.forged:
        problems.append(f"{WRONG_FLAGS}: flagged {tuple(report.flagged_servers)}, "
                        f"forged {x.forged}")
    return problems


def build(workload: Workload) -> list:
    return [Round(spec) for spec in workload.rounds]


def draw_op(rounds, seed: int, index: int) -> list:
    """Inputs of operation ``index``: one independent stream per round kind."""
    return [r.draw(np.random.default_rng([seed, index, j]))
            for j, r in enumerate(rounds)]


def run_op(rounds, inputs, clock) -> list:
    """Run, time and check one operation; the oracle and the gate are untimed."""
    outcomes = []
    for r, x in zip(rounds, inputs):
        t0 = clock()
        try:
            outputs, report = r.run(x)
        except Exception as exc:  # a raising round is a failed round, not a crash
            outcomes.append(Outcome(r.spec, x.responsive, clock() - t0, 0.0,
                                    [f"raised {type(exc).__name__}: {exc}"]))
            continue
        t1 = clock()
        expected = r.oracle(x)
        t2 = clock()
        mults = (report.server_mults
                 if r.omega is None or r.omega.mults is not None else None)
        outcomes.append(Outcome(r.spec, x.responsive, t1 - t0, t2 - t1,
                                check(x, outputs, report, expected), report,
                                len(outputs), mults))
    return outcomes


def self_test(rounds, inputs) -> None:
    """Show that the gate counts a wrong product and a wrong flagged set as
    failures, whether or not the library got the round right.  Raises
    AssertionError if it does not."""
    r, x = rounds[0], inputs[0]
    outputs, report = r.run(x)
    expected = r.oracle(x)
    wrong = [o.copy() for o in outputs]
    wrong[0].flat[0] = (wrong[0].flat[0] + 1) % r.field.q
    if WRONG_OUTPUT not in check(x, wrong, report, expected):
        raise AssertionError("gate accepts a wrong product")
    misflagged = replace(report, flagged_servers=tuple(sorted(
        set(report.flagged_servers) ^ {x.responsive[0]})))
    if not any(p.startswith(WRONG_FLAGS) for p in check(x, outputs, misflagged, expected)):
        raise AssertionError("gate accepts a wrong flagged set")


def provenance(workload: Workload) -> dict:
    return {"rounds": [
        {"label": s.label, "scheme": s.scheme, "q": s.q, "servers": s.servers,
         "responsive": s.responsive, "forgers": s.forgers,
         "params": dict(s.params), "dims": list(s.dims) or None,
         "map": [s.map[0], s.map[1]] if s.map else None}
        for s in workload.rounds]}
