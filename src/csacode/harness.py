"""Deterministic source -> servers -> sink simulation with exact cost accounting.

Sources encode, every server computes its answer in-process, a straggler
model withholds responses and an optional Byzantine model forges them, and
the sink decodes from the survivors.  Communication costs are measured by
counting actual field elements and normalized exactly (fractions, never
floats); server computation is counted in field multiplications.

Every code takes one parameter type, ``csa.CSAParams``.  Every matrix
product (EP, CSA, its systematic layout, GCSA) is one code, run by csa's
encoders, answer and decoder; N-CSA and LCC rounds run ncsa's.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import csa, ncsa
from .errors import InsufficientAnswersError, ParameterError
from .ffield import _ARENA_MIN_BYTES, _ROUND, PrimeField, _arena, _integer

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
        if (ids := self.responsive) is not None:  # a tuple of ints skips the full rule
            picked = sorted(set(ids) if type(ids) is tuple and all(type(s) is int for s in ids)
                            else {_integer(s, "a responsive index") for s in ids})
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


def ep_setup(field: PrimeField, p: int, m: int, n: int, servers: int,
             samples=None) -> csa.CSAParams:
    """EP as GCSA with ell = kc = 1: one pole and S samples, so S <= q - 1.
    Its rounds take a batch of any length, each entry encoded alone."""
    return csa.csa_params(field, 1, 1, servers, samples=samples, p=p, m=m, n=n)


class Scheme(NamedTuple):  # a row of SCHEMES
    params: dict  # a config's parameters: name -> default (None if required)
    fixed: dict  # the setup's fields the name fixes: field -> value, in the order checked


_GROUPS, _PARTITION = {"ell": None, "kc": None}, {"p": None, "m": None, "n": None}
_NCSA = {"ell": 1, "kc": None, "X": 0, "B": 0}  # X and B set x_secure and byzantine
_BILINEAR = {"arity": 2, "x_secure": 0, "byzantine": 0, "noise_seed": 0}  # a matrix product's
_UNSPLIT = {"p": 1, "m": 1, "n": 1}

# Every scheme, said once: the parameters its name takes, and the fields of
# its ``csa.CSAParams`` setup it fixes.  A matrix product fixes N = 2 and no
# X, B or noise seed, and its rounds run csa's encoders, answer and decoder;
# N-CSA fixes no partition, and LCC is N-CSA with ell = 1 and kc = L.
SCHEMES = {
    "ep": Scheme(_PARTITION, {"ell": 1, "kc": 1, "systematic": False, **_BILINEAR}),
    "csa": Scheme(_GROUPS, {**_UNSPLIT, "systematic": False, **_BILINEAR}),
    "csa-systematic": Scheme(_GROUPS, {**_UNSPLIT, "systematic": True, **_BILINEAR}),
    "gcsa": Scheme({**_GROUPS, **_PARTITION}, {"systematic": False, **_BILINEAR}),
    "ncsa": Scheme(_NCSA, _UNSPLIT),
    "lcc": Scheme(_NCSA, {"ell": 1, **_UNSPLIT}),
}
CDBMM_SCHEMES = tuple(name for name, row in SCHEMES.items() if row.fixed.get("arity") == 2)


def _check_setup(scheme: str, setup) -> None:
    """Refuse an unknown scheme, a setup that is not ``csa.CSAParams``, and
    a field that differs from its value in the scheme's row of ``SCHEMES``
    (the CSA layout, EP's ell = kc = 1, a matrix product's N = 2 without X,
    B or noise seed, no partition under "csa" or N-CSA, LCC's ell = 1)."""
    row = SCHEMES.get(scheme)
    if row is None:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if not isinstance(setup, csa.CSAParams):
        raise ParameterError(f"{scheme!r} takes CSAParams, not {type(setup).__name__}")
    for name, value in row.fixed.items():
        if getattr(setup, name) != value:
            raise ParameterError(f"{scheme!r} takes parameters with {name}={value}")


def theoretical_costs(scheme: str, setup) -> CostSummary:
    """Closed-form recovery threshold and normalized costs (``_closed_costs``).
    The setup is checked on every call, the costs built once per setup."""
    _check_setup(scheme, setup)
    return _costs(setup)


@csa._plan_cache
def _costs(setup) -> CostSummary:
    return CostSummary(setup.threshold, *_closed_costs(
        setup.threshold, setup.servers, setup.ell, setup.kc, setup.p, setup.m, setup.n,
        setup.arity))


def _closed_costs(threshold: int, servers: int, ell: int, kc: int, p: int, m: int, n: int,
                  arity: int = 2) -> tuple:
    """(uploads, D) of a code of threshold R on S ``servers``: the normalized
    upload S/(kc p m) of each variable but the last, S/(kc p n) of the
    last, and the normalized download R/(mn ell kc).  GCSA's at N = 2 (EP at
    ell = kc = 1, CSA at p = m = n = 1), N-CSA's at p = m = n = 1."""
    return ((Fraction(servers, kc * p * m),) * (arity - 1) + (Fraction(servers, kc * p * n),),
            Fraction(threshold, m * n * ell * kc))


def run_cdbmm(field: PrimeField, scheme: str, setup, batch_a, batch_b,
              straggler: StragglerModel,
              byzantine: Optional[ByzantineModel] = None):
    """Full encode / compute / straggle / decode round for matrix batches.
    A code of batch size 1 (EP, or CSA with L = 1) takes a batch of any length.

    Returns (products, CostReport); products equal the direct batch product.
    """
    if scheme not in CDBMM_SCHEMES:
        raise ParameterError(f"unknown CDBMM scheme {scheme!r}")
    _check_setup(scheme, setup)
    if byzantine is not None:
        raise ParameterError("the CDBMM decoders assume honest answers (B = 0)")
    batch_a, batch_b = (csa._batch_entries(field, b, matrices=True) for b in (batch_a, batch_b))
    if len(batch_a) != len(batch_b):
        raise ParameterError("A and B batches must have equal length")
    if batch_a[0].shape[1] != batch_b[0].shape[0]:
        raise ParameterError("inner dimensions of A and B do not match")
    shape = (batch_a[0].shape[0] // setup.m, batch_b[0].shape[1] // setup.n)  # of one answer
    entries = len(batch_a) > setup.batch_size  # L = 1: shares, answers, result hold every entry
    if entries:
        shape = (len(batch_a),) + shape

    def encode():
        servers = range(setup.servers)
        return [csa.csa_encode_a(field, csa._Batch(batch_a), setup, servers),
                csa.csa_encode_b(field, csa._Batch(batch_b), setup, servers)]

    def respond(s, shares, counter, out):
        if not (entries and isinstance(s, int)):
            return csa.csa_answer(field, *shares, counter, out)
        # A server alone has reached _ARENA_MIN_BYTES: it answers entry by
        # entry, as a stack of large products runs slower (see ffield).
        out = np.empty(shape, np.int64) if out is None else out
        for a, b, y in zip(*shares, out):
            csa.csa_answer(field, a, b, counter, y)
        return out

    def decode(answers):  # the one result of every entry, split
        results = csa.csa_decode(field, answers, setup)
        return (list(results[0]) if entries else results), ()

    return _round(field, scheme, setup, [batch_a, batch_b], straggler, None, encode, respond,
                  decode, shape)


def run_nlinear(field: PrimeField, params: csa.CSAParams, job, batches,
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
    batches = [csa._batch_entries(field, b) for b in batches]
    uses = ([(slot, t.omega.var_shapes[i]) for t in job.terms
             for i, slot in enumerate(t.slots)] if is_spec
            else enumerate(job.var_shapes))
    ones_shapes = set()  # of a spec's constant-one slots
    for v, shape in uses:
        if v is None:
            ones_shapes.add(tuple(shape))
        elif batches[v][0].shape != tuple(shape):
            raise ParameterError(
                f"variable {v} has entries of shape {batches[v][0].shape}, "
                f"the map expects {tuple(shape)}")
    if len(ones_shapes) > 1:
        raise ParameterError("constant slots must share one shape")
    ones = [np.ones((params.batch_size,) + shape, dtype=np.int64) for shape in ones_shapes]
    const = []  # a spec's constant-one shares, every server's rows

    def encode():  # the constant-one batch, if any, as the last variable
        shares = ncsa.xs_encode(field, [csa._Batch(b) for b in batches + ones], params,
                                range(params.servers))
        const[:] = shares[len(batches):]
        return shares[:len(batches)]

    def answer(s, share, counter, out):
        if not is_spec:
            return ncsa.ncsa_answer(field, share, job, params, s, counter)
        shares_by_var = dict(enumerate(share))
        if const:
            shares_by_var[None] = const[0][s]
        return ncsa.poly_batch_eval_answer(field, shares_by_var, job, params, s, counter)

    def decode(answers):  # with B = 0 it flags nothing: the plain decode
        return ncsa.xsb_decode(field, answers, params)

    return _round(field, "ncsa", params, batches, straggler, byzantine, encode, answer, decode)


def _round(field: PrimeField, scheme: str, setup, operands, straggler: StragglerModel,
           byzantine: Optional[ByzantineModel], encode, answer, decode,
           answer_shape: Optional[tuple] = None):
    """One round of any code family: pick the responsive servers, encode,
    answer (forging the corrupted answers), decode and count the costs.
    Every matrix product is one code (``csa.CSAParams``): CSA has
    p = m = n = 1 and EP ell = kc = 1, its one pole a field point beside the
    S samples, so EP needs S <= q - 1; a share and an answer of a code of
    batch size 1 hold every batch entry.

    ``operands`` holds the caller's batches, checked once (``csa._batch_entries``),
    one per variable, which ``encode`` hands the encoders as ``csa._Batch``.
    ``encode()`` returns per variable the encoder's shares of every server
    (responsive or not), row s for server s: one encoder call per side of a
    matrix product, one ``xs_encode`` for all of an N-CSA round's variables.
    ``answer(s, shares, counter, out)`` answers server s from its rows, or a
    list of servers from theirs with a leading server axis (a list of rows
    in a systematic layout), stacking their answers; ``counter`` counts the
    call's multiplications (``server_mults`` is the largest per server).
    The responsive servers answer in one call (a systematic layout's raw
    and coded servers in one each), each alone once its shares reach
    ``ffield._ARENA_MIN_BYTES``.  The answers stay one (responsive x answer)
    int64 stack up to the decoder: a call's own output, the ``answers`` rows
    below, or the outputs joined once; raw answers (a map's own), others not
    int64 and forgeries enter it by ``_entered``.  ``decode`` takes it as
    ``csa._Answers``, whose first R rows the public decoders read in place,
    and returns (results, flagged servers).

    Large intermediates live in this thread's round arena
    (``ffield._arena``), reused by every round instead of faulting in fresh
    pages.  The round opens this thread's round state (``ffield._ROUND``),
    so during its encode step the i-th encode writes its shares into the
    buffer "shares-<i>", and with an ``answer_shape`` the answers are
    written into ``out``, their rows of the buffer ``answers``.  Without
    one, or when the answers are too small for the arena, ``out`` is None.
    A round run inside another round in this thread (by a map or a forger)
    uses no arena, so it leaves the outer round's buffers alone.  The
    decoders return fresh results, so no result views the arena.
    """
    theory = _costs(setup)  # the caller ran _check_setup
    r = theory.threshold
    responsive = straggler.pick(setup.servers)
    if len(responsive) < r:
        raise InsufficientAnswersError(f"{len(responsive)} responsive servers, threshold is {r}")
    bad = set() if byzantine is None else set(byzantine.corrupted)
    # Not rejected here: xsb_decode corrects up to B forgers among the first R
    # answers.  Past B nothing is promised: random offsets (ByzantineModel.seeded)
    # are usually refused, but a forgery that adds a codeword decodes wrong.
    if not bad <= set(responsive):
        raise ParameterError("corrupted servers must be responsive")

    nested = _ROUND.running
    _ROUND.running, _ROUND.shares = True, None if nested else 0
    try:
        shares = encode()
        _ROUND.shares = None  # later encodes, by a map or a forger, allocate
        uploaded = [stack.size if isinstance(stack, np.ndarray)
                    else sum(share.size for share in stack) for stack in shares]
        rows = (_arena("answers", (len(responsive),) + answer_shape)
                if answer_shape and not nested else None)
        alone = sum(stack[responsive[-1]].nbytes for stack in shares) >= _ARENA_MIN_BYTES
        raw = bisect.bisect_left(responsive, csa._raw(setup))  # the raw servers lead
        picks = range(len(responsive)) if alone else [
            pick for pick in (slice(0, raw), slice(raw, None)) if responsive[pick]]
        ys, server_mults = [], 0
        for pick in picks:
            servers, out = responsive[pick], None if rows is None else rows[pick]
            counter = OpCounter()
            y = answer(servers, [x[servers] if alone or isinstance(x, np.ndarray)
                                 else [x[s] for s in servers] for x in shares], counter, out)
            server_mults = max(server_mults, counter.mults // (1 if alone else len(servers)))
            if (pick if alone else pick.start) < raw or y.dtype != np.int64:  # raw: a map's own
                y = _entered(field, servers, y, y.shape)
            ys.append(y[None] if alone else y)
        stack = rows if rows is not None else ys[0] if len(ys) == 1 else np.concatenate(ys)
        for i, s in enumerate(responsive):
            if s in bad:
                stack[i] = _entered(field, s, byzantine.forge(s, stack[i]), stack.shape[1:])
        results, flagged = decode(csa._Answers(responsive, stack))
    finally:
        _ROUND.running, _ROUND.shares = nested, None

    downloaded = r * stack[0].size  # the decoders read the first R
    # a map may count in numpy ints, whose Fractions a plain-int key would share
    build = _measured if type(server_mults) is int else _measured.__wrapped__
    measured, normalized = build(r, tuple(uploaded), tuple(x[0].size for x in operands),
                                 len(operands[0]), downloaded, results[0].size, server_mults)
    return results, CostReport(
        scheme=scheme, theory=theory, measured=measured,
        uploaded_elements=tuple(uploaded), downloaded_elements=downloaded,
        server_mults=server_mults, normalized_server_mults=normalized,
        flagged_servers=tuple(flagged))


@csa._plan_cache
def _measured(r, uploaded, sizes, batch, downloaded, result, mults) -> tuple:
    """A round's measured ``CostSummary`` and normalized server mults, from element counts."""
    return (CostSummary(r, tuple(Fraction(u, batch * n) for u, n in zip(uploaded, sizes)),
                        Fraction(downloaded, batch * result)), Fraction(mults, batch))


def _entered(field: PrimeField, s, y, shape: tuple) -> np.ndarray:
    """Server(s) ``s``'s answer ``y`` as it enters a round's answer stack."""
    if not isinstance(y, np.ndarray) or y.dtype.kind not in "iu" or y.shape != shape:
        raise ParameterError(f"the answer of server {s} must be an integer array of shape {shape}")
    return field.residues(y)


def direct_products(field: PrimeField, batch_a, batch_b) -> list[np.ndarray]:
    """Brute-force oracle: multiply every pair directly."""
    return [field.matmul(field.residues(a), field.residues(b))
            for a, b in zip(batch_a, batch_b)]


def direct_evaluations(field: PrimeField, omega: ncsa.NLinearMap, batches) -> list[np.ndarray]:
    """Brute-force oracle: evaluate the map on every batch entry directly."""
    return [omega(field, *entry) for entry in zip(*batches)]
