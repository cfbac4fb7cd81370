"""Deterministic source -> servers -> sink simulation with exact cost accounting.

Sources encode, every server computes its answer in-process, a straggler
model withholds responses and an optional Byzantine model forges them, and
the sink decodes from the survivors.  Communication costs are measured by
counting actual field elements and normalized exactly (fractions, never
floats); server computation is counted in field multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import csa, ep, gcsa, ncsa
from .errors import InsufficientAnswersError, ParameterError
from .ffield import _ROUND, PrimeField, _arena, _integer

CDBMM_SCHEMES = ("ep", "csa", "csa-systematic", "gcsa")


@dataclass
class OpCounter:
    mults: int = 0


@dataclass(frozen=True)
class StragglerModel:
    """Which servers respond: an explicit set, or a seeded random subset."""

    responsive: Optional[tuple[int, ...]] = None
    count: Optional[int] = None
    seed: int = 0

    def pick(self, servers: int) -> list[int]:
        if self.responsive is not None:
            picked = sorted({_integer(s, "a responsive index") for s in self.responsive})
            if picked and (picked[0] < 0 or picked[-1] >= servers):
                raise ParameterError("responsive indices out of range")
            return picked
        if self.count is None:
            raise ParameterError("straggler model needs a responsive set or a count")
        if not 0 <= _integer(self.count, "the responsive count") <= servers:
            raise ParameterError("responsive count out of range")
        rng = np.random.default_rng(self.seed)
        picked = rng.choice(servers, size=self.count, replace=False)
        return sorted(int(s) for s in picked)


@dataclass(frozen=True)
class ByzantineModel:
    """Corrupted servers and the forgery applied to their true answers."""

    corrupted: tuple[int, ...]
    forge: Callable[[int, np.ndarray], np.ndarray]

    @classmethod
    def seeded(cls, field: PrimeField, corrupted, seed: int = 0) -> "ByzantineModel":
        """Forge by adding a seeded nonzero offset to every entry."""

        def forge(server: int, answer: np.ndarray) -> np.ndarray:
            rng = np.random.default_rng((seed, server))
            offset = rng.integers(1, field.q, size=answer.shape, dtype=np.int64)
            return (answer + offset) % field.q

        return cls(tuple(sorted({_integer(s, "a corrupted index") for s in corrupted})), forge)


@dataclass(frozen=True)
class CostSummary:
    threshold: int
    uploads: tuple[Fraction, ...]
    download: Fraction


@dataclass
class CostReport:
    scheme: str
    theory: CostSummary
    measured: CostSummary
    uploaded_elements: tuple[int, ...]
    downloaded_elements: int
    server_mults: int
    normalized_server_mults: Fraction
    flagged_servers: tuple[int, ...] = ()


@dataclass(frozen=True)
class EPSetup:
    """EP code applied element-wise to a batch, sharing one point table."""

    params: ep.EPParams
    servers: int
    samples: tuple[int, ...]


def ep_setup(field: PrimeField, p: int, m: int, n: int, servers: int,
             samples=None) -> EPSetup:
    params = ep.EPParams(p, m, n)
    r = ep.ep_threshold(params)
    if r > servers:
        raise ParameterError(f"R <= S violated: threshold {r} exceeds {servers} servers")
    _, samples = csa.cauchy_points(field, 0, servers, (), samples, False)
    return EPSetup(params, servers, samples)


_SETUP_TYPES = {"ep": EPSetup, "csa": csa.CSAParams, "csa-systematic": csa.CSAParams,
                "gcsa": gcsa.GCSAParams, "ncsa": ncsa.NCSAParams, "lcc": ncsa.NCSAParams}


def _check_setup(scheme: str, setup) -> None:
    """Refuse an unknown scheme, a setup of another family than the
    scheme's, and CSA parameters whose layout the scheme does not name."""
    kind = _SETUP_TYPES.get(scheme)
    if kind is None:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if not isinstance(setup, kind):
        raise ParameterError(f"{scheme!r} takes {kind.__name__}, not {type(setup).__name__}")
    if kind is csa.CSAParams and setup.systematic != (scheme == "csa-systematic"):
        raise ParameterError(f"scheme {scheme!r} does not match parameters "
                             f"built with systematic={setup.systematic}")


def theoretical_costs(scheme: str, setup) -> CostSummary:
    """Closed-form recovery threshold and normalized costs."""
    _check_setup(scheme, setup)
    if scheme in ("ep", "gcsa"):  # EP is GCSA with ell = kc = 1
        ell, kc = (1, 1) if scheme == "ep" else (setup.ell, setup.kc)
        inner = setup.params if scheme == "ep" else setup.ep
        return CostSummary(*gcsa._gcsa_costs(ell, kc, inner.p, inner.m, inner.n,
                                             setup.servers))
    r = setup.threshold  # CSA is N-CSA with N = 2
    u = Fraction(setup.servers, setup.kc)
    return CostSummary(r, (u,) * setup.arity, Fraction(r, setup.batch_size))


def run_cdbmm(field: PrimeField, scheme: str, setup, batch_a, batch_b,
              straggler: StragglerModel,
              byzantine: Optional[ByzantineModel] = None):
    """Full encode / compute / straggle / decode round for matrix batches.

    Returns (products, CostReport); products equal the direct batch product.
    """
    if scheme not in CDBMM_SCHEMES:
        raise ParameterError(f"unknown CDBMM scheme {scheme!r}")
    _check_setup(scheme, setup)
    if byzantine is not None:
        raise ParameterError("the CDBMM decoders assume honest answers (B = 0)")
    batch_a, batch_b = ([field.residues(x) for x in csa._batch_entries(field, b, matrices=True)]
                        for b in (batch_a, batch_b))
    if len(batch_a) != len(batch_b):
        raise ParameterError("A and B batches must have equal length")
    if batch_a[0].shape[1] != batch_b[0].shape[0]:
        raise ParameterError("inner dimensions of A and B do not match")
    servers = range(setup.servers)
    shape = (batch_a[0].shape[0], batch_b[0].shape[1])  # of one answer

    def answer(s, share, counter, out):  # csa and gcsa: the server work is the CSA answer
        return csa.csa_answer(field, *share, counter, out)

    if scheme == "ep":  # one call per side: every server and batch entry
        shape = (len(batch_a), shape[0] // setup.params.m, shape[1] // setup.params.n)

        def encode(responsive):
            return list(zip(ep.ep_encode_a(field, batch_a, setup.params, setup.samples),
                            ep.ep_encode_b(field, batch_b, setup.params, setup.samples)))

        def answer(s, share, counter, out):
            out = np.empty(shape, np.int64) if out is None else out
            for a, b, y in zip(*share, out):
                ep.ep_answer(field, a, b, counter, y)
            return out

        def decode(answers):  # the whole batch as columns of one plan product
            return list(ep.ep_decode(field, [(setup.samples[s], y) for s, y in answers],
                                     setup.params)), ()
    elif scheme in ("csa", "csa-systematic"):  # the layout is the setup's

        def encode(responsive):
            return list(zip(csa.csa_encode_a(field, batch_a, setup, servers),
                            csa.csa_encode_b(field, batch_b, setup, servers)))

        def decode(answers):
            return csa.csa_decode(field, answers, setup), ()
    else:
        shape = (shape[0] // setup.m, shape[1] // setup.n)

        def encode(responsive):
            return list(zip(gcsa.gcsa_encode_a(field, batch_a, setup, servers),
                            gcsa.gcsa_encode_b(field, batch_b, setup, servers)))

        def decode(answers):
            return gcsa.gcsa_decode(field, answers, setup), ()

    return _round(scheme, setup, [batch_a, batch_b], straggler, None,
                  encode, answer, decode, shape)


def run_nlinear(field: PrimeField, params: ncsa.NCSAParams, job, batches,
                straggler: StragglerModel,
                byzantine: Optional[ByzantineModel] = None):
    """N-linear (or degree-N polynomial) batch round.

    ``job`` is an NLinearMap or a PolynomialSpec; ``batches`` holds one
    variable batch per map slot (per polynomial variable for a spec).
    Returns (evaluations, CostReport).
    """
    _check_setup("ncsa", params)
    is_spec = isinstance(job, ncsa.PolynomialSpec)
    if params.systematic and is_spec:
        raise ParameterError("the systematic layout takes an N-linear map, not a polynomial spec")
    if byzantine is not None and byzantine.corrupted and not params.byzantine:
        raise ParameterError("corrupted servers need a Byzantine budget B >= 1")
    if not is_spec and job.arity != params.arity:
        raise ParameterError("map arity does not match the parameters")
    want_batches = job.num_vars if is_spec else job.arity
    if len(batches) != want_batches:
        raise ParameterError(
            f"need one variable batch per slot: got {len(batches)}, "
            f"expected {want_batches}")
    batches = [[field.residues(x) for x in csa._batch_entries(field, b)] for b in batches]
    uses = ([(slot, t.omega.var_shapes[i]) for t in job.terms
             for i, slot in enumerate(t.slots)] if is_spec
            else enumerate(job.var_shapes))
    for v, shape in uses:
        if v is not None and batches[v][0].shape != tuple(shape):
            raise ParameterError(
                f"variable {v} has entries of shape {batches[v][0].shape}, "
                f"the map expects {tuple(shape)}")
    const_shares = {}  # a spec's constant-one shares, by responsive server

    def encode(responsive):
        by_var = [ncsa.xs_encode(field, batch, params, v, range(params.servers))
                  for v, batch in enumerate(batches)]
        if is_spec and any(slot is None for t in job.terms for slot in t.slots):
            ones = [np.ones(_const_shape(job), dtype=np.int64)] * params.batch_size
            const_shares.update(zip(responsive, ncsa.xs_encode(
                field, ones, params, len(batches), responsive)))
        return [list(row) for row in zip(*by_var)]

    def answer(s, share, counter, out):
        if not is_spec:
            return ncsa.ncsa_answer(field, share, job, params, s, counter)
        shares_by_var = dict(enumerate(share))
        if const_shares:
            shares_by_var[None] = const_shares[s]
        return ncsa.poly_batch_eval_answer(field, shares_by_var, job, params, s)

    def decode(answers):  # with B = 0 it flags nothing: the plain decode
        evals, found = ncsa.xsb_decode(field, answers, params)
        return evals, tuple(found)

    return _round("ncsa", params, batches, straggler, byzantine, encode, answer, decode)


def _round(scheme: str, setup, operands, straggler: StragglerModel,
           byzantine: Optional[ByzantineModel], encode, answer, decode,
           answer_shape: Optional[tuple] = None):
    """One round of any code family: pick the responsive servers, encode,
    answer (forging the corrupted answers), decode and count the costs.

    ``operands`` holds the residue batches, one per variable.
    ``encode(responsive)`` returns one share per server: a tuple of
    per-variable share lists.  ``answer(s, share, counter, out)`` is server
    s's answer, and ``decode(answers)`` returns (results, flagged servers).

    Large intermediates live in this thread's round arena
    (``ffield._arena``), reused by every round instead of faulting in fresh
    pages.  The round opens this thread's round state (``ffield._ROUND``),
    so during its encode step the i-th encode writes its shares into the
    buffer "shares-<i>", and with an ``answer_shape`` each responsive
    server writes its answer into ``out``, its own row of the buffer
    ``answers``, whose first R rows the decoder reads in place.  Without
    one, or when the answers are too small for the arena, ``out`` is None.
    A round run inside another round in this thread (by a map or a forger)
    uses no arena, so it leaves the outer round's buffers alone.  The
    decoders return fresh results, so no result views the arena.
    """
    theory = theoretical_costs(scheme, setup)
    r = theory.threshold
    responsive = straggler.pick(setup.servers)
    if len(responsive) < r:
        raise InsufficientAnswersError(f"{len(responsive)} responsive servers, threshold is {r}")
    bad = set() if byzantine is None else set(byzantine.corrupted)
    # Not rejected here: xsb_decode corrects up to B forgeries among the first R
    # answers, but past B it fails only with high probability at large q; at
    # small q an over-budget forgery can decode to wrong values, unflagged.
    if not bad <= set(responsive):
        raise ParameterError("corrupted servers must be responsive")

    nested = _ROUND.running
    _ROUND.running, _ROUND.shares = True, None if nested else 0
    try:
        shares = encode(responsive)
        _ROUND.shares = None  # later encodes, by a map or a forger, allocate
        uploaded = [0] * len(operands)
        for share in shares:
            for v, item in enumerate(share):
                uploaded[v] += sum(x.size for x in item)
        rows = (_arena("answers", (len(responsive),) + answer_shape)
                if answer_shape and not nested else None)
        if rows is None:
            rows = [None] * len(responsive)
        answers = []
        server_mults = 0
        for s, out in zip(responsive, rows):
            counter = OpCounter()
            y = answer(s, shares[s], counter, out)
            server_mults = max(server_mults, counter.mults)
            if s in bad:
                y = byzantine.forge(s, y)
            answers.append((s, y))
        results, flagged = decode(answers)
    finally:
        _ROUND.running, _ROUND.shares = nested, None

    batch = len(operands[0])
    downloaded = sum(y.size for _, y in answers[:r])  # the decoders read the first R
    measured = CostSummary(
        r, tuple(Fraction(u, batch * x[0].size) for u, x in zip(uploaded, operands)),
        Fraction(downloaded, batch * results[0].size))
    return results, CostReport(
        scheme=scheme, theory=theory, measured=measured,
        uploaded_elements=tuple(uploaded), downloaded_elements=downloaded,
        server_mults=server_mults, normalized_server_mults=Fraction(server_mults, batch),
        flagged_servers=flagged)


def _const_shape(spec: ncsa.PolynomialSpec):
    shapes = {t.omega.var_shapes[i]
              for t in spec.terms for i, slot in enumerate(t.slots) if slot is None}
    if len(shapes) != 1:
        raise ParameterError("constant slots must share one shape")
    return shapes.pop()


def direct_products(field: PrimeField, batch_a, batch_b) -> list[np.ndarray]:
    """Brute-force oracle: multiply every pair directly."""
    return [field.matmul(field.residues(a), field.residues(b))
            for a, b in zip(batch_a, batch_b)]


def direct_evaluations(field: PrimeField, omega: ncsa.NLinearMap, batches) -> list[np.ndarray]:
    """Brute-force oracle: evaluate the map on every batch entry directly."""
    return [omega(field, *entry) for entry in zip(*batches)]
