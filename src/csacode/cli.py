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
import math
import struct
import sys
from contextlib import nullcontext
from fractions import Fraction

import numpy as np

from . import analysis, csa, gcsa, harness, matfile, ncsa
from .errors import (DecodingFailureError, InsufficientAnswersError,
                     ParameterError)
from .ffield import DEFAULT_MODULUS, PrimeField, _integer

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


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"{what} must be a JSON object, not {value!r}")
    return value


def _int(section: dict, key: str, default=None) -> int:
    """The integer ``section[key]``, ``default`` if given and it is absent."""
    return _integer(section[key] if default is None else section.get(key, default), key)


def _dims(section: dict) -> tuple[int, ...]:
    return tuple(_integer(d, "each of dims") for d in section["dims"])


def _build_straggler(cfg: dict, servers: int, seeds: dict) -> harness.StragglerModel:
    spec = cfg.get("stragglers")
    spec = {"count": servers} if spec is None else _object(spec, "stragglers")
    if "responsive" in spec:
        return harness.StragglerModel(responsive=tuple(spec["responsive"]))
    return harness.StragglerModel(count=_int(spec, "count"), seed=_int(seeds, "straggler", 0))


def _build_map(spec: dict) -> ncsa.NLinearMap:
    kind = spec.get("type", "matmul")
    if kind == "matmul":
        lam, kap, mu = _dims(spec)
        return ncsa.matmul_map(lam, kap, mu)
    if kind == "chain":
        return ncsa.matrix_chain_map(_dims(spec))
    if kind == "elementwise":
        return ncsa.elementwise_product_map(_int(spec, "arity"), _int(spec, "dim"))
    if kind == "determinant":
        return ncsa.determinant_map(_int(spec, "size"))
    raise ParameterError(f"unknown map type {kind!r}")


def _build_setup(field: PrimeField, scheme: str, servers: int, p, arity: int = 2,
                noise_seed: int = 0):
    """The validated setup of ``scheme`` from its parameters ``p`` (a run
    config's ``params``, or the ``costs`` options) named in ``harness.SCHEMES``.
    ``arity`` is the map arity N of ncsa and lcc; lcc is N-CSA with ell = 1
    and kc = L, the paper's Lagrange special case."""
    row = harness.SCHEMES[scheme]
    values = {name: _int(p, name, default) for name, default in row.params.items()}
    if row.setup is csa.CSAParams:  # a matrix product, with the fields the name fixes
        builder = gcsa.gcsa_params if "p" in row.params else csa.csa_params
        return builder(field, servers=servers, **values, **row.fixed)
    ell, kc, x_secure, byzantine = values.values()
    if scheme == "lcc" and ell != 1:
        raise ParameterError(f"lcc runs N-CSA with ell = 1 and kc = L, got ell = {ell}")
    return ncsa.ncsa_params(field, arity, ell, kc, servers, x_secure=x_secure,
                            byzantine=byzantine, noise_seed=noise_seed)


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
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
    scheme = _object(cfg, "the config")["scheme"]
    if not isinstance(scheme, str) or scheme not in harness.SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    field = PrimeField(_int(cfg, "field_modulus", args.field_modulus))
    servers = _int(cfg, "servers")
    seeds = _object(cfg.get("seeds", {}), "seeds")
    rng = np.random.default_rng(_int(seeds, "data", args.seed))
    straggler = _build_straggler(cfg, servers, seeds)
    p = _object(cfg.get("params", {}), "params")
    _refuse_unknown(scheme, p)

    if scheme in harness.CDBMM_SCHEMES:
        lam, kap, mu = _dims(cfg)
        batch = _int(cfg, "batch", 1)
        if cfg.get("input_a"):
            try:
                qa, batch_a = matfile.read_matrices(cfg["input_a"])
                qb, batch_b = matfile.read_matrices(cfg["input_b"])
            except ValueError as exc:  # a malformed file is an I/O error
                raise OSError(f"malformed matrix file: {exc}") from exc
            if qa != field.q or qb != field.q:
                raise ParameterError("matrix file modulus differs from config")
        else:
            batch_a = [field.rand_matrix(rng, lam, kap) for _ in range(batch)]
            batch_b = [field.rand_matrix(rng, kap, mu) for _ in range(batch)]
        setup = _build_setup(field, scheme, servers, p)
        if len(batch_a) != _int(cfg, "batch", len(batch_a)):
            raise ParameterError("batch size does not match the loaded matrices")
        if cfg.get("byzantine"):
            raise ParameterError("Byzantine servers are only supported for ncsa runs")
        products, report = harness.run_cdbmm(field, scheme, setup, batch_a,
                                             batch_b, straggler)
        digest = _digest(products)
    else:
        omega = _build_map(_object(cfg["map"], "map"))
        params = _build_setup(field, scheme, servers, p, omega.arity,
                             noise_seed=_int(seeds, "noise", 0))
        batches = [[field.rand_matrix(rng, *(shape if len(shape) == 2 else (shape[0], 1)))
                    .reshape(shape) for _ in range(params.batch_size)]
                   for shape in omega.var_shapes]
        byz = None
        if cfg.get("byzantine"):
            spec = _object(cfg["byzantine"], "byzantine")
            byz = harness.ByzantineModel.seeded(field, spec["servers"], _int(spec, "seed", 0))
        evals, report = harness.run_nlinear(field, params, omega, batches,
                                            straggler, byz)
        digest = _digest([np.atleast_2d(e) for e in evals])

    return {
        "scheme": scheme,
        "field_modulus": field.q,
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


def _refuse_unknown(scheme: str, params, also=()) -> None:
    """Refuse a parameter ``scheme`` does not take (nor one of ``also``),
    which would otherwise be silently ignored."""
    for key in params:
        if key not in harness.SCHEMES[scheme].params and key not in also:
            raise ParameterError(f"scheme {scheme!r} takes no parameter {key!r}")


# The code parameters of ``costs``, with the value an option left out takes
_COSTS_OPTIONS = {"ell": 1, "kc": 1, "p": 1, "m": 1, "n": 1, "N": 2, "X": 0, "B": 0}


def cmd_costs(args) -> int:
    field = PrimeField(args.field_modulus)
    given = {name: value for name, value in vars(args).items() if name in _COSTS_OPTIONS}
    _refuse_unknown(args.scheme, given,
                    ("N",) if harness.SCHEMES[args.scheme].setup is ncsa.NCSAParams else ())
    p = {**_COSTS_OPTIONS, **given}
    summary = harness.theoretical_costs(args.scheme, _build_setup(
        field, args.scheme, args.servers, p, p["N"]))
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
            *(w.get(name, "") for name in _HULL_FIELDS[5:]),  # the witness
        ])
    return rows


def cmd_hull(args) -> int:
    rows = hull_rows(args.family, args.servers, args.r_max, args.pmn_bound)
    _write_csv(args.output, _HULL_FIELDS, rows)
    return EXIT_OK


# ---- latency ----

_LATENCY_FIELDS = ["K", "ep_lower", "gcsa_upper", "ell", "kc", "p", "m", "n"]


def latency_rows(job_size: int, eta: float, k_min: float, k_max: float,
                 steps: int) -> list[list]:
    if steps < 1:
        raise ParameterError("need at least one step")
    ks = [_grid_point(k_min, k_max, i, steps) for i in range(steps)]
    rows = []
    for point in analysis.latency_curve(job_size, eta, ks):
        w = point.witness
        rows.append([repr(point.k), repr(point.ep_lower), repr(point.gcsa_upper),
                     w["ell"], w["kc"], w["p"], w["m"], w["n"]])
    return rows


def _grid_point(k_min: float, k_max: float, i: int, steps: int) -> float:
    """Point i of ``steps`` evenly spaced from k_min to k_max.  Where the
    float formula overflows between finite bounds (near 1e308), the exact
    point, rounded once, stands in."""
    k = k_min + (k_max - k_min) * i / (steps - 1) if steps > 1 else k_min
    if math.isinf(k) and math.isfinite(k_min) and math.isfinite(k_max):
        k = float(Fraction(k_min) + (Fraction(k_max) - Fraction(k_min)) * i / (steps - 1))
    return k


def cmd_latency(args) -> int:
    rows = latency_rows(args.job_size, args.eta, args.k_min, args.k_max, args.steps)
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


def _oracle_suite(scheme: str, seed: int, cases, size: int, sampled: bool = False):
    """A suite that checks ``scheme`` against the direct products.  Each case
    gives its non-unit GCSA parameters (EP and CSA are GCSA cases); seeded
    size x size batches of L = ell * kc pairs then run a harness round on
    every threshold-sized responsive subset of R + 2 servers, or on 20 of
    them drawn with seed 18 when ``sampled``."""

    def suite(field: PrimeField) -> bool:
        rng = np.random.default_rng(seed)
        for case in cases:
            full = {"ell": 1, "kc": 1, "p": 1, "m": 1, "n": 1, **case}
            r = gcsa.gcsa_threshold(**full)
            setup = _build_setup(field, scheme, r + 2, full)
            batch = full["ell"] * full["kc"]
            aa = [field.rand_matrix(rng, size, size) for _ in range(batch)]
            bb = [field.rand_matrix(rng, size, size) for _ in range(batch)]
            truth = harness.direct_products(field, aa, bb)
            subsets = list(itertools.combinations(range(r + 2), r))
            if sampled:
                picks = np.random.default_rng(18).choice(
                    len(subsets), size=min(20, len(subsets)), replace=False)
                subsets = [subsets[int(i)] for i in picks]
            for subset in subsets:
                got, _ = harness.run_cdbmm(field, scheme, setup, aa, bb,
                                           harness.StragglerModel(responsive=subset))
                if not all(np.array_equal(g, t) for g, t in zip(got, truth)):
                    return False
        return True

    return suite


def _suite_security(field_unused: PrimeField) -> bool:
    """X = 1 at q = 13: over the 13 noise values, one server's share takes
    every residue once, whatever the data."""
    field = PrimeField(13)
    params = ncsa.ncsa_params(field, 2, 1, 1, 4, x_secure=1)
    return all(sorted(int(ncsa.xs_encode(field, [[np.full((1, 1), value)]], params, s,
                                         noise={(0, 0, 1): np.full((1, 1), z)})[0][0, 0, 0])
                      for z in range(13)) == list(range(13))
               for value in (0, 7) for s in range(4))


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
    "csa-oracle": _oracle_suite("csa", 11, [{"ell": 1, "kc": 2}, {"ell": 2, "kc": 2}], 2),
    "ep-oracle": _oracle_suite("ep", 13, [{"p": 1, "m": 2, "n": 2}, {"p": 2, "m": 1, "n": 1},
                                          {"p": 2, "m": 2, "n": 2}], 4),
    "gcsa-oracle": _oracle_suite("gcsa", 17, [{"ell": 1, "kc": 2, "p": 1, "m": 2, "n": 2},
                                              {"ell": 1, "kc": 2, "p": 2, "m": 1, "n": 1}],
                                 4, sampled=True),
    "security-exhaustive": _suite_security,
    "byzantine-exhaustive": _suite_byzantine,
    "systematic-parity": _oracle_suite("csa-systematic", 29, [{"ell": 1, "kc": 2}], 2),
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
    p_costs.add_argument("scheme", choices=list(harness.SCHEMES))
    p_costs.add_argument("--servers", type=int, required=True)
    for name, default in _COSTS_OPTIONS.items():  # SUPPRESS: absent unless given
        p_costs.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS,
                             help=f"default {default}; only for a scheme that takes it"
                             + (" (the map arity of ncsa/lcc)" if name == "N" else ""))
    p_costs.set_defaults(func=cmd_costs)

    p_hull = with_output(sub.add_parser("hull", help="Pareto hull CSV for a code family"))
    p_hull.add_argument("family", choices=list(analysis.FAMILIES))
    p_hull.add_argument("--servers", type=int, required=True)
    p_hull.add_argument("--r-max", type=int, required=True,
                        help=f"the threshold budget, at most {analysis.R_MAX_LIMIT}")
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
    except ParameterError as exc:  # run and verify report their own
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # e.g. an unwritable --output
        return _fail(args, "io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
