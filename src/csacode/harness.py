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
from .ffield import PrimeField

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
            picked = sorted(set(int(s) for s in self.responsive))
            if picked and (picked[0] < 0 or picked[-1] >= servers):
                raise ParameterError("responsive indices out of range")
            return picked
        if self.count is None:
            raise ParameterError("straggler model needs a responsive set or a count")
        if not 0 <= self.count <= servers:
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

        return cls(tuple(sorted(set(int(s) for s in corrupted))), forge)


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
    if samples is None:
        samples = tuple(s % field.q for s in range(1, servers + 1))
    samples = tuple(s % field.q for s in samples)
    if len(samples) != servers or len(set(samples)) != servers:
        raise ParameterError("need one distinct evaluation point per server")
    return EPSetup(params, servers, samples)


def theoretical_costs(scheme: str, setup) -> CostSummary:
    """Closed-form recovery threshold and normalized costs."""
    if scheme == "ep":
        p, m, n = setup.params.p, setup.params.m, setup.params.n
        r = ep.ep_threshold(setup.params)
        return CostSummary(r, (Fraction(setup.servers, p * m),
                               Fraction(setup.servers, p * n)),
                           Fraction(r, m * n))
    if scheme in ("csa", "csa-systematic"):
        r = csa.csa_threshold(setup.ell, setup.kc)
        u = Fraction(setup.servers, setup.kc)
        return CostSummary(r, (u, u), Fraction(r, setup.batch_size))
    if scheme == "gcsa":
        r = gcsa.gcsa_threshold(setup.ell, setup.kc, setup.p, setup.m, setup.n)
        return CostSummary(
            r,
            (Fraction(setup.servers, setup.kc * setup.p * setup.m),
             Fraction(setup.servers, setup.kc * setup.p * setup.n)),
            Fraction(r, setup.m * setup.n * setup.batch_size),
        )
    if scheme in ("ncsa", "lcc"):
        r = setup.threshold
        u = Fraction(setup.servers, setup.kc)
        return CostSummary(r, tuple(u for _ in range(setup.arity)),
                           Fraction(r, setup.batch_size))
    raise ParameterError(f"unknown scheme {scheme!r}")


def run_cdbmm(field: PrimeField, scheme: str, setup, batch_a, batch_b,
              straggler: StragglerModel,
              byzantine: Optional[ByzantineModel] = None):
    """Full encode / compute / straggle / decode round for matrix batches.

    Returns (products, CostReport); products equal the direct batch product.
    """
    if scheme not in CDBMM_SCHEMES:
        raise ParameterError(f"unknown CDBMM scheme {scheme!r}")
    if byzantine is not None:
        raise ParameterError("the CDBMM decoders assume honest answers (B = 0)")
    batch_a = [np.asarray(a, dtype=np.int64) % field.q for a in batch_a]
    batch_b = [np.asarray(b, dtype=np.int64) % field.q for b in batch_b]
    if len(batch_a) != len(batch_b):
        raise ParameterError("A and B batches must have equal length")
    lam, kap = batch_a[0].shape
    kap2, mu = batch_b[0].shape
    if kap != kap2:
        raise ParameterError("inner dimensions of A and B do not match")
    batch = len(batch_a)
    servers = setup.servers
    theory = theoretical_costs(scheme, setup)
    responsive = straggler.pick(servers)
    if len(responsive) < theory.threshold:
        raise InsufficientAnswersError(
            f"{len(responsive)} responsive servers, threshold is {theory.threshold}"
        )

    uploaded_a = 0
    uploaded_b = 0
    shares = []
    if scheme == "ep":
        for s in range(servers):
            sa = [ep.ep_encode_a(field, a, setup.params, setup.samples[s])
                  for a in batch_a]
            sb = [ep.ep_encode_b(field, b, setup.params, setup.samples[s])
                  for b in batch_b]
            uploaded_a += sum(x.size for x in sa)
            uploaded_b += sum(x.size for x in sb)
            shares.append((sa, sb))
    elif scheme == "csa-systematic":
        sys_shares = csa.systematic_encode(field, batch_a, batch_b, setup)
        for share in sys_shares:
            if share[0] == "raw":
                uploaded_a += share[1].size
                uploaded_b += share[2].size
            else:
                uploaded_a += sum(x.size for x in share[1])
                uploaded_b += sum(x.size for x in share[2])
        shares = sys_shares
    else:
        encode_a = csa.csa_encode_a if scheme == "csa" else gcsa.gcsa_encode_a
        encode_b = csa.csa_encode_b if scheme == "csa" else gcsa.gcsa_encode_b
        for s in range(servers):
            sa = encode_a(field, batch_a, setup, s)
            sb = encode_b(field, batch_b, setup, s)
            uploaded_a += sum(x.size for x in sa)
            uploaded_b += sum(x.size for x in sb)
            shares.append((sa, sb))

    answers = []
    server_mults = 0
    for s in responsive:
        counter = OpCounter()
        if scheme == "ep":
            sa, sb = shares[s]
            y = np.stack([ep.ep_answer(field, a, b, counter)
                          for a, b in zip(sa, sb)])
        elif scheme == "csa-systematic":
            y = csa.systematic_answer(field, shares[s], counter)
        else:  # csa, and gcsa, whose server work is the CSA answer
            y = csa.csa_answer(field, shares[s][0], shares[s][1], counter)
        server_mults = max(server_mults, counter.mults)
        answers.append((s, y))

    r = theory.threshold
    used = answers[:r]  # the decoders consume exactly the first R answers
    if scheme == "ep":
        products = []
        for l in range(batch):
            per_element = [(setup.samples[s], y[l]) for s, y in used]
            products.append(ep.ep_decode(field, per_element, setup.params))
    elif scheme == "csa":
        products = csa.csa_decode(field, answers, setup)
    elif scheme == "csa-systematic":
        products = csa.systematic_decode(field, answers, setup)
    else:
        products = gcsa.gcsa_decode(field, answers, setup)

    downloaded = sum(y.size for _, y in used)
    measured = CostSummary(
        threshold=r,
        uploads=(Fraction(uploaded_a, batch * lam * kap),
                 Fraction(uploaded_b, batch * kap * mu)),
        download=Fraction(downloaded, batch * lam * mu),
    )
    report = CostReport(
        scheme=scheme,
        theory=theory,
        measured=measured,
        uploaded_elements=(uploaded_a, uploaded_b),
        downloaded_elements=downloaded,
        server_mults=server_mults,
        normalized_server_mults=Fraction(server_mults, batch),
    )
    return products, report


def run_nlinear(field: PrimeField, params: ncsa.NCSAParams, job, batches,
                straggler: StragglerModel,
                byzantine: Optional[ByzantineModel] = None,
                systematic: bool = False):
    """N-linear (or degree-N polynomial) batch round.

    ``job`` is an NLinearMap or a PolynomialSpec; ``batches`` holds one
    variable batch per map slot (per polynomial variable for a spec).
    Returns (evaluations, CostReport).
    """
    is_spec = isinstance(job, ncsa.PolynomialSpec)
    arity = job.arity
    if not is_spec and arity != params.arity:
        raise ParameterError("map arity does not match the parameters")
    want_batches = job.num_vars if is_spec else arity
    if len(batches) != want_batches:
        raise ParameterError(
            f"need one variable batch per slot: got {len(batches)}, "
            f"expected {want_batches}")
    if systematic and (params.x_secure or params.byzantine):
        raise ParameterError("systematic layout cannot be combined with X-security")
    batches = [[np.asarray(x, dtype=np.int64) % field.q for x in batch]
               for batch in batches]
    servers = params.servers
    responsive = straggler.pick(servers)
    theory = theoretical_costs("ncsa", params)
    r = theory.threshold
    if len(responsive) < r:
        raise InsufficientAnswersError(
            f"{len(responsive)} responsive servers, threshold is {r}"
        )
    if byzantine is not None:
        bad = set(byzantine.corrupted)
        if not bad <= set(responsive):
            raise ParameterError("corrupted servers must be responsive")
        # An over-budget adversary is not rejected here; the decoder's error
        # correction detects it and raises a decoding failure.
    else:
        bad = set()

    uploaded = [0] * len(batches)
    per_server_shares = []
    if systematic:
        sys_shares = ncsa.ncsa_systematic_encode(field, batches, params)
        for share in sys_shares:
            payload = share[1]
            for v, item in enumerate(payload):
                if share[0] == "raw":
                    uploaded[v] += item.size
                else:
                    uploaded[v] += sum(x.size for x in item)
        per_server_shares = sys_shares
    else:
        for s in range(servers):
            row = []
            for v, batch in enumerate(batches):
                sh = ncsa.xs_encode(field, batch, params, v, s)
                uploaded[v] += sum(x.size for x in sh)
                row.append(sh)
            per_server_shares.append(row)

    answers = []
    server_mults = 0
    for s in responsive:
        counter = OpCounter()
        if systematic:
            y = ncsa.ncsa_systematic_answer(field, per_server_shares[s], job,
                                            params, s)
        elif is_spec:
            shares_by_var = {v: per_server_shares[s][v] for v in range(len(batches))}
            if any(slot is None for t in job.terms for slot in t.slots):
                shape = _const_shape(job)
                ones = [np.ones(shape, dtype=np.int64) for _ in range(params.batch_size)]
                shares_by_var[None] = ncsa.xs_encode(field, ones, params,
                                                     len(batches), s)
            y = ncsa.poly_batch_eval_answer(field, shares_by_var, job, params, s)
        else:
            y = ncsa.ncsa_answer(field, per_server_shares[s], job, params, s,
                                 counter)
        server_mults = max(server_mults, counter.mults)
        if s in bad:
            y = byzantine.forge(s, y)
        answers.append((s, y))

    flagged: tuple[int, ...] = ()
    if params.x_secure or params.byzantine:
        evals, found = ncsa.xsb_decode(field, answers, params)
        flagged = tuple(found)
    elif systematic:
        evals = csa.systematic_decode(field, answers, params)
    else:
        evals = ncsa.ncsa_decode(field, answers, params)

    downloaded = sum(y.size for _, y in answers[:r])
    out_size = int(np.prod(evals[0].shape))
    measured = CostSummary(
        threshold=r,
        uploads=tuple(
            Fraction(uploaded[v], params.batch_size * int(np.prod(batches[v][0].shape)))
            for v in range(len(batches))
        ),
        download=Fraction(downloaded, params.batch_size * out_size),
    )
    report = CostReport(
        scheme="ncsa",
        theory=theory,
        measured=measured,
        uploaded_elements=tuple(uploaded),
        downloaded_elements=downloaded,
        server_mults=server_mults,
        normalized_server_mults=Fraction(server_mults, params.batch_size),
        flagged_servers=flagged,
    )
    return evals, report


def _const_shape(spec: ncsa.PolynomialSpec):
    shapes = {t.omega.var_shapes[i]
              for t in spec.terms for i, slot in enumerate(t.slots) if slot is None}
    if len(shapes) != 1:
        raise ParameterError("constant slots must share one shape")
    return shapes.pop()


def direct_products(field: PrimeField, batch_a, batch_b) -> list[np.ndarray]:
    """Brute-force oracle: multiply every pair directly."""
    return [field.matmul(np.asarray(a) % field.q, np.asarray(b) % field.q)
            for a, b in zip(batch_a, batch_b)]


def direct_evaluations(field: PrimeField, omega: ncsa.NLinearMap, batches) -> list[np.ndarray]:
    out = []
    for l in range(len(batches[0])):
        out.append(omega(field, *[batch[l] for batch in batches]))
    return out
