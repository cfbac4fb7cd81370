"""Command-line front end: run configured experiments, print cost tables,
emit plot-ready CSVs, and drive the invariant suites.

Exit codes: 0 success, 2 configuration/usage error, 3 decode failure,
4 I/O error (unreadable config, malformed matrix file, unwritable output),
1 failed verification suite (2 when no suite failed but one could not run
at this field modulus).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import struct
import sys
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import analysis, csa, ep, gcsa, harness, matfile, ncsa
from .errors import (DecodingFailureError, InsufficientAnswersError,
                     ParameterError)
from .ffield import DEFAULT_MODULUS, PrimeField

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_IO = 4


def _frac(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _digest(products) -> str:
    h = hashlib.sha256()
    for m in products:
        h.update(struct.pack("<2Q", *m.shape))
        h.update(m.astype("<u8").tobytes(order="C"))
    return h.hexdigest()


def _write_csv(path, header: list, rows) -> None:
    """A header and rows as CSV, to the file ``path`` or, if None, stdout."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _summary_json(s: harness.CostSummary) -> dict:
    return {
        "threshold": s.threshold,
        "uploads": [_frac(u) for u in s.uploads],
        "download": _frac(s.download),
    }


# ---- run ----


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _build_straggler(cfg: dict, seeds: dict) -> harness.StragglerModel:
    spec = cfg.get("stragglers")
    if spec is None:
        return harness.StragglerModel(count=cfg["servers"],
                                      seed=seeds.get("straggler", 0))
    if "responsive" in spec:
        return harness.StragglerModel(responsive=tuple(spec["responsive"]))
    return harness.StragglerModel(count=int(spec["count"]),
                                  seed=seeds.get("straggler", 0))


def _build_map(spec: dict) -> ncsa.NLinearMap:
    kind = spec.get("type", "matmul")
    if kind == "matmul":
        lam, kap, mu = spec["dims"]
        return ncsa.matmul_map(lam, kap, mu)
    if kind == "chain":
        return ncsa.matrix_chain_map(tuple(spec["dims"]))
    if kind == "elementwise":
        return ncsa.elementwise_product_map(int(spec["arity"]), int(spec["dim"]))
    if kind == "determinant":
        return ncsa.determinant_map(int(spec["size"]))
    raise ParameterError(f"unknown map type {kind!r}")


def _build_setup(field: PrimeField, scheme: str, servers: int, p, arity: int = 2,
                noise_seed: int = 0):
    """The validated setup of ``scheme`` from its parameters ``p`` (a run
    config's ``params``, or the ``costs`` options): ell, kc, p, m, n, X, B.
    ``arity`` is the map arity N of ncsa and lcc; lcc is N-CSA with ell = 1
    and kc = L, the paper's Lagrange special case."""
    if scheme == "ep":
        return harness.ep_setup(field, int(p["p"]), int(p["m"]), int(p["n"]), servers)
    if scheme == "gcsa":
        return gcsa.gcsa_params(field, int(p["ell"]), int(p["kc"]), int(p["p"]),
                                int(p["m"]), int(p["n"]), servers)
    if scheme in ("csa", "csa-systematic"):
        return csa.csa_params(field, int(p["ell"]), int(p["kc"]), servers,
                              systematic=(scheme == "csa-systematic"))
    if scheme in ("ncsa", "lcc"):
        ell = int(p.get("ell", 1))
        if scheme == "lcc" and ell != 1:
            raise ParameterError(f"lcc runs N-CSA with ell = 1 and kc = L, got ell = {ell}")
        return ncsa.ncsa_params(field, arity, ell, int(p["kc"]), servers,
                                x_secure=int(p.get("X", 0)), byzantine=int(p.get("B", 0)),
                                noise_seed=noise_seed)
    raise ParameterError(f"unknown scheme {scheme!r}")


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except json.JSONDecodeError as exc:
        return _fail(args, "validation", f"config is not valid JSON: {exc}", EXIT_CONFIG)
    try:
        result = _run_config(cfg, args)
    except (DecodingFailureError, InsufficientAnswersError) as exc:
        return _fail(args, "decode-failure", str(exc), EXIT_DECODE)
    except (ValueError, KeyError, TypeError) as exc:  # ParameterError included
        return _fail(args, "validation", str(exc), EXIT_CONFIG)
    out = args.output or cfg.get("output")
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _fail(args, category: str, message: str, code: int) -> int:
    payload = {"error": {"category": category, "message": message}}
    print(json.dumps(payload, indent=2))
    return code


def _run_config(cfg: dict, args) -> dict:
    scheme = cfg["scheme"]
    q = int(cfg.get("field_modulus", args.field_modulus))
    field = PrimeField(q)
    servers = int(cfg["servers"])
    seeds = cfg.get("seeds", {})
    data_seed = int(seeds.get("data", args.seed))
    rng = np.random.default_rng(data_seed)
    straggler = _build_straggler(cfg, seeds)
    p = cfg.get("params", {})

    if scheme in harness.CDBMM_SCHEMES:
        lam, kap, mu = cfg["dims"]
        batch = int(cfg.get("batch", 1))
        if cfg.get("input_a"):
            try:
                qa, batch_a = matfile.read_matrices(cfg["input_a"])
                qb, batch_b = matfile.read_matrices(cfg["input_b"])
            except ValueError as exc:  # a malformed file is an I/O error
                raise OSError(f"malformed matrix file: {exc}") from exc
            if qa != q or qb != q:
                raise ParameterError("matrix file modulus differs from config")
        else:
            batch_a = [field.rand_matrix(rng, lam, kap) for _ in range(batch)]
            batch_b = [field.rand_matrix(rng, kap, mu) for _ in range(batch)]
        setup = _build_setup(field, scheme, servers, p)
        if len(batch_a) != cfg.get("batch", len(batch_a)):
            raise ParameterError("batch size does not match the loaded matrices")
        if cfg.get("byzantine"):
            raise ParameterError("Byzantine servers are only supported for ncsa runs")
        products, report = harness.run_cdbmm(field, scheme, setup, batch_a,
                                             batch_b, straggler)
        digest = _digest(products)
    elif scheme in ("ncsa", "lcc"):
        omega = _build_map(cfg["map"])
        params = _build_setup(field, scheme, servers, p, omega.arity,
                             noise_seed=int(seeds.get("noise", 0)))
        batches = [[field.rand_matrix(rng, *(shape if len(shape) == 2 else (shape[0], 1)))
                    .reshape(shape) for _ in range(params.batch_size)]
                   for shape in omega.var_shapes]
        byz = None
        if cfg.get("byzantine"):
            byz = harness.ByzantineModel.seeded(
                field, tuple(cfg["byzantine"]["servers"]),
                int(cfg["byzantine"].get("seed", 0)))
        evals, report = harness.run_nlinear(field, params, omega, batches,
                                            straggler, byz)
        digest = _digest([np.atleast_2d(e) for e in evals])
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")

    return {
        "scheme": scheme,
        "field_modulus": q,
        "threshold": report.theory.threshold,
        "products_digest": f"sha256:{digest}",
        "costs": {
            "theory": _summary_json(report.theory),
            "measured": _summary_json(report.measured),
        },
        "uploaded_elements": list(report.uploaded_elements),
        "downloaded_elements": report.downloaded_elements,
        "server_mults": report.server_mults,
        "flagged_servers": list(report.flagged_servers),
    }


# ---- costs ----


def cmd_costs(args) -> int:
    field = PrimeField(args.field_modulus)
    try:  # every option is an attribute, so vars(args) reads as run's params
        summary = harness.theoretical_costs(args.scheme, _build_setup(
            field, args.scheme, args.servers, vars(args), args.N))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    uploads = " ".join(f"{u.numerator}/{u.denominator}" for u in summary.uploads)
    d = summary.download
    row = f"{args.scheme} R={summary.threshold} U={uploads} D={d.numerator}/{d.denominator}"
    print(row)
    if args.output:
        _write_csv(args.output, ["scheme", "R", "uploads", "D_num", "D_den"],
                   [[args.scheme, summary.threshold, uploads, d.numerator, d.denominator]])
    return EXIT_OK


# ---- hull ----

_HULL_FIELDS = ["family", "U_num", "U_den", "D_num", "D_den",
                "ell", "kc", "p", "m", "n"]


def hull_rows(family: str, servers: int, r_max: int, pmn_bound=None) -> list[list]:
    rows = []
    for point in analysis.pareto_hull(family, servers, r_max, pmn_bound):
        w = point.witness
        rows.append([
            family,
            point.upload.numerator, point.upload.denominator,
            point.download.numerator, point.download.denominator,
            w.get("ell", ""), w.get("kc", ""),
            w.get("p", ""), w.get("m", ""), w.get("n", ""),
        ])
    return rows


def cmd_hull(args) -> int:
    try:
        rows = hull_rows(args.family, args.servers, args.r_max, args.pmn_bound)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_csv(args.output, _HULL_FIELDS, rows)
    return EXIT_OK


# ---- latency ----

_LATENCY_FIELDS = ["K", "ep_lower", "gcsa_upper", "ell", "kc", "p", "m", "n"]


def latency_rows(job_size: int, eta: float, k_min: float, k_max: float,
                 steps: int) -> list[list]:
    if steps < 1:
        raise ParameterError("need at least one step")
    ks = [k_min + (k_max - k_min) * i / (steps - 1) if steps > 1 else k_min
          for i in range(steps)]
    rows = []
    for point in analysis.latency_curve(job_size, eta, ks):
        w = point.witness
        rows.append([repr(point.k), repr(point.ep_lower), repr(point.gcsa_upper),
                     w["ell"], w["kc"], w["p"], w["m"], w["n"]])
    return rows


def cmd_latency(args) -> int:
    try:
        rows = latency_rows(args.job_size, args.eta, args.k_min, args.k_max,
                            args.steps)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_csv(args.output, _LATENCY_FIELDS, rows)
    return EXIT_OK


# ---- verify ----


def _suite_field_axioms(field: PrimeField) -> bool:
    rng = np.random.default_rng(7)
    trips = rng.integers(0, field.q, size=(10_000, 3), dtype=np.int64)
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        if field.mul(field.mul(a, b), c) != field.mul(a, field.mul(b, c)):
            return False
        if field.mul(a, field.add(b, c)) != field.add(field.mul(a, b), field.mul(a, c)):
            return False
        if field.add(a, b) != field.add(b, a) or field.mul(a, b) != field.mul(b, a):
            return False
    for a in rng.integers(1, field.q, size=200, dtype=np.int64):
        if field.mul(int(a), field.inv(int(a))) != 1:
            return False
    return True


def _suite_csa_oracle(field: PrimeField) -> bool:
    rng = np.random.default_rng(11)
    for ell, kc in [(1, 2), (2, 2)]:
        r = csa.csa_threshold(ell, kc)
        params = csa.csa_params(field, ell, kc, r + 2)
        batch = params.batch_size
        aa = [field.rand_matrix(rng, 2, 2) for _ in range(batch)]
        bb = [field.rand_matrix(rng, 2, 2) for _ in range(batch)]
        truth = harness.direct_products(field, aa, bb)
        shares = [(csa.csa_encode_a(field, aa, params, s),
                   csa.csa_encode_b(field, bb, params, s))
                  for s in range(params.servers)]
        answers = [(s, csa.csa_answer(field, sa, sb)) for s, (sa, sb) in enumerate(shares)]
        for subset in itertools.combinations(range(params.servers), r):
            got = csa.csa_decode(field, [answers[s] for s in subset], params)
            if not all(np.array_equal(g, t) for g, t in zip(got, truth)):
                return False
    return True


def _suite_ep_oracle(field: PrimeField) -> bool:
    rng = np.random.default_rng(13)
    for p, m, n in [(1, 2, 2), (2, 1, 1), (2, 2, 2)]:
        params = ep.EPParams(p, m, n)
        r = ep.ep_threshold(params)
        setup = harness.ep_setup(field, p, m, n, r + 2)
        a = field.rand_matrix(rng, 4, 4)
        b = field.rand_matrix(rng, 4, 4)
        truth = field.matmul(a, b)
        answers = [
            (alpha, ep.ep_answer(field, ep.ep_encode_a(field, a, params, alpha),
                                 ep.ep_encode_b(field, b, params, alpha)))
            for alpha in setup.samples
        ]
        for subset in itertools.combinations(range(setup.servers), r):
            got = ep.ep_decode(field, [answers[s] for s in subset], params)
            if not np.array_equal(got, truth):
                return False
    return True


def _suite_gcsa_oracle(field: PrimeField) -> bool:
    rng = np.random.default_rng(17)
    for ell, kc, p, m, n in [(1, 2, 1, 2, 2), (1, 2, 2, 1, 1)]:
        r = gcsa.gcsa_threshold(ell, kc, p, m, n)
        params = gcsa.gcsa_params(field, ell, kc, p, m, n, r + 2)
        batch = params.batch_size
        aa = [field.rand_matrix(rng, 4, 4) for _ in range(batch)]
        bb = [field.rand_matrix(rng, 4, 4) for _ in range(batch)]
        truth = harness.direct_products(field, aa, bb)
        answers = []
        for s in range(params.servers):
            sa = gcsa.gcsa_encode_a(field, aa, params, s)
            sb = gcsa.gcsa_encode_b(field, bb, params, s)
            answers.append((s, csa.csa_answer(field, sa, sb)))
        rng2 = np.random.default_rng(18)
        subsets = list(itertools.combinations(range(params.servers), r))
        for subset in [subsets[int(i)] for i in
                       rng2.choice(len(subsets), size=min(20, len(subsets)),
                                   replace=False)]:
            got = gcsa.gcsa_decode(field, [answers[s] for s in subset], params)
            if not all(np.array_equal(g, t) for g, t in zip(got, truth)):
                return False
    return True


def _suite_security(field_unused: PrimeField) -> bool:
    field = PrimeField(13)
    params = ncsa.ncsa_params(field, 2, 1, 1, 4, x_secure=1)
    shapes = (1, 1)
    for data_value in (0, 7):
        batch = [np.full(shapes, data_value, dtype=np.int64)]
        for s in range(4):
            seen = []
            for z in range(13):
                noise = {(0, 0, 1): np.full(shapes, z, dtype=np.int64)}
                share = ncsa.xs_encode(field, batch, params, 0, s, noise=noise)
                seen.append(int(share[0][0, 0]))
            if sorted(seen) != list(range(13)):
                return False
    return True


def _suite_byzantine(field: PrimeField) -> bool:
    rng = np.random.default_rng(23)
    params = ncsa.ncsa_params(field, 2, 1, 1, 7, x_secure=1, byzantine=1,
                              noise_seed=5)
    omega = ncsa.matmul_map(1, 1, 1)
    batches = [[field.rand_matrix(rng, 1, 1)], [field.rand_matrix(rng, 1, 1)]]
    truth = harness.direct_evaluations(field, omega, batches)
    straggler = harness.StragglerModel(responsive=(0, 2, 3, 5, 6))
    byz = harness.ByzantineModel.seeded(field, (3,), seed=9)
    evals, report = harness.run_nlinear(field, params, omega, batches,
                                        straggler, byz)
    return (all(np.array_equal(e, t) for e, t in zip(evals, truth))
            and report.flagged_servers == (3,))


def _suite_systematic(field: PrimeField) -> bool:
    rng = np.random.default_rng(29)
    params = csa.csa_params(field, 1, 2, 5, systematic=True)
    aa = [field.rand_matrix(rng, 2, 2) for _ in range(2)]
    bb = [field.rand_matrix(rng, 2, 2) for _ in range(2)]
    truth = harness.direct_products(field, aa, bb)
    shares = csa.systematic_encode(field, aa, bb, params)
    answers = [(s, csa.systematic_answer(field, shares[s])) for s in range(5)]
    for subset in itertools.combinations(range(5), 3):
        got = csa.systematic_decode(field, [answers[s] for s in subset], params)
        if not all(np.array_equal(g, t) for g, t in zip(got, truth)):
            return False
    return True


def _suite_costs(field: PrimeField) -> bool:
    rng = np.random.default_rng(31)
    params = csa.csa_params(field, 2, 2, 8)
    aa = [field.rand_matrix(rng, 2, 2) for _ in range(4)]
    bb = [field.rand_matrix(rng, 2, 2) for _ in range(4)]
    _, report = harness.run_cdbmm(field, "csa", params, aa, bb,
                                  harness.StragglerModel(count=5, seed=1))
    return report.measured == report.theory


def _suite_interference(field: PrimeField) -> bool:
    for ell in (1, 2, 3):
        params = csa.csa_params(field, ell, 2, csa.csa_threshold(ell, 2) + 3)
        if csa.interference_rank(field, params) != 1:
            return False
    return True


SUITES = {
    "field-axioms": _suite_field_axioms,
    "csa-oracle": _suite_csa_oracle,
    "ep-oracle": _suite_ep_oracle,
    "gcsa-oracle": _suite_gcsa_oracle,
    "security-exhaustive": _suite_security,
    "byzantine-exhaustive": _suite_byzantine,
    "systematic-parity": _suite_systematic,
    "cost-accounting": _suite_costs,
    "interference-rank": _suite_interference,
}


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        known = ", ".join(sorted(SUITES) + ["all"])
        print(f"error: unknown suite {args.suite!r}; known suites: {known}",
              file=sys.stderr)
        return EXIT_CONFIG
    field = PrimeField(args.field_modulus)
    failed = errored = False
    for name in names:
        try:  # a suite whose parameters this field cannot hold
            passed = SUITES[name](field)
        except ParameterError as exc:
            print(f"ERROR {name}: {exc}")
            errored = True
            continue
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        failed = failed or not passed
    return EXIT_FAIL if failed else EXIT_CONFIG if errored else EXIT_OK


# ---- entry point ----


def _modulus(text: str) -> int:
    try:
        return PrimeField(int(text)).q
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csacode",
        description="coded distributed batch computation over GF(q)",
    )
    parser.add_argument("--field-modulus", type=_modulus, default=DEFAULT_MODULUS,
                        help="prime modulus (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fallback data seed for run")
    parser.add_argument("--output", help="output file (meaning depends on command)")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_output(p):
        # accepted after the subcommand too; SUPPRESS keeps a value given
        # in the global position intact
        p.add_argument("--output", default=argparse.SUPPRESS,
                       help="output file")
        return p

    p_run = with_output(sub.add_parser("run",
                                       help="run an experiment from a JSON config"))
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_costs = with_output(sub.add_parser("costs", help="closed-form cost table row"))
    p_costs.add_argument("scheme",
                         choices=["ep", "csa", "csa-systematic", "gcsa", "ncsa", "lcc"])
    p_costs.add_argument("--servers", type=int, required=True)
    p_costs.add_argument("--ell", type=int, default=1)
    p_costs.add_argument("--kc", type=int, default=1)
    p_costs.add_argument("--p", type=int, default=1)
    p_costs.add_argument("--m", type=int, default=1)
    p_costs.add_argument("--n", type=int, default=1)
    p_costs.add_argument("--N", type=int, default=2, help="map arity for ncsa/lcc")
    p_costs.add_argument("--X", type=int, default=0)
    p_costs.add_argument("--B", type=int, default=0)
    p_costs.set_defaults(func=cmd_costs)

    p_hull = with_output(sub.add_parser("hull", help="Pareto hull CSV for a code family"))
    p_hull.add_argument("family", choices=["ep", "csa", "gcsa"])
    p_hull.add_argument("--servers", type=int, required=True)
    p_hull.add_argument("--r-max", type=int, required=True)
    p_hull.add_argument("--pmn-bound", type=int, default=None)
    p_hull.set_defaults(func=cmd_hull)

    p_lat = with_output(sub.add_parser("latency", help="latency-constraint comparison CSV"))
    p_lat.add_argument("--job-size", type=int, required=True)
    p_lat.add_argument("--eta", type=float, default=0.75)
    p_lat.add_argument("--k-min", type=float, required=True)
    p_lat.add_argument("--k-max", type=float, required=True)
    p_lat.add_argument("--steps", type=int, required=True)
    p_lat.set_defaults(func=cmd_latency)

    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # e.g. an unwritable --output
        return _fail(args, "io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
