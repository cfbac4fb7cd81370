"""Reference implementations the tests check the library against.

Straightforward, term-by-term versions of what the library computes through
generator products and structured solves, kept out of ``src/`` because no
library code calls them:

- ``lcc_encode`` / ``lcc_decode``: Lagrange coded computing (Yu et al.,
  AISTATS 2019), the code N-CSA reduces to with ell = 1 and kc = L;
- ``lagrange_interpolate``: the coefficients of an interpolating polynomial;
- ``split_blocks`` / ``answer_coefficients``: the EP answer polynomial,
  expanded block product by block product;
- ``ep_encode_a`` / ``ep_encode_b`` / ``ep_decode``: the entangled
  polynomial code on one matrix at one point, and its decode by Lagrange
  interpolation (the basis in Python integers); the library runs EP as GCSA with
  ell = kc = 1, whose shares and answers are these at z = f - alpha (the B
  side and the answer divided by z^pmn);
- ``check_multilinear``: a random linearity probe of an N-linear map;
- ``naive_combo_threshold`` and ``grid_naive_threshold``: the thresholds
  GCSA is compared against;
- ``ep_threshold``: EP's recovery threshold pmn + p - 1, which
  ``csa.gcsa_threshold`` must equal at ell = kc = 1;
- ``min_max_cost``: the least max(U, D) of a family's enumerated costs;
- ``lagrange_matrix``: the Lagrange basis of some nodes at some points,
  behind ``lcc_encode`` / ``lcc_decode``;
- ``latency_upper_scan``: GCSA's latency point by a scan of every square
  partition size up to about (K eta / 2)^(1/3), which
  ``analysis.gcsa_latency_upper`` must equal;
- ``shake_words`` / ``noise_reference``: X-secure noise drawn word by word,
  4-byte words up to q = 2^32 and 8-byte words above;
- ``xs_share_reference``: one server's X-secure shares of one variable,
  entry by entry in Python integers, from the paper's formula (X noise
  blocks a group), so it shares no weight table or generator product with
  ``ncsa.xs_encode``; ``xs_shares_each`` encodes every variable on its own
  with it, which ``xs_encode``'s one product for all variables must equal;
- ``leibniz_det``: a determinant as the signed sum over permutations, in
  Python integers, which ``ncsa.determinant_map`` must equal;
- ``scaling_constants``, ``scaled_cv_matrix``, ``psi_coeffs``,
  ``lt_toeplitz`` and ``gcsa_paper_matrix``: the paper's decode matrices,
  Cauchy columns scaled by the constants c_{l,k}^(N-1) (CSA, N-CSA and the
  systematic layout) or mixed by the Toeplitz blocks of
  psi_k(t) = prod_{k' != k}(t + f_{l,k'} - f_{l,k})^R' (GCSA), which the
  library's decode matrices must match on the desired unknowns;
- ``loop_cv_matrix``: the confluent Cauchy-Vandermonde matrix, entry by
  entry in Python integers, so no reference here shares the library's
  power tables (``structmat._powers``); ``structmat.confluent_cv_matrix``
  must equal it;
- ``confluent_decode_matrix``: the library's Cauchy decode matrix built
  as it once was, ``loop_cv_matrix`` with every Cauchy column scaled by
  its A-side weight, which ``csa._decode_matrix`` must equal byte for
  byte;
- ``poly_mul``: the product of coefficient lists.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct

import numpy as np

from csacode.analysis import _witness_key, enumerate_costs
from csacode.ep import EPParams, a_exponent, b_exponent, desired_coeff_index
from csacode.errors import InsufficientAnswersError, ParameterError
from csacode.ffield import PrimeField, poly_divmod, poly_eval, poly_trim
from csacode.ncsa import NLinearMap, lcc_threshold
from csacode.structmat import CVSpec

# ---- Lagrange coded computing ----


def lagrange_matrix(field: PrimeField, nodes, points) -> np.ndarray:
    """(points x nodes) values of the Lagrange basis of ``nodes``: entry (j, i)
    is the i-th basis polynomial at points[j], so the matrix maps values at
    the nodes to values of their interpolant at the points.  The
    denominators take one batched inversion."""
    q = field.q

    def numerator(x: int, i: int) -> int:  # prod_{j != i} (x - nodes[j])
        return math.prod(x - node for j, node in enumerate(nodes) if j != i) % q

    inv = field.batch_inv([numerator(a, i) for i, a in enumerate(nodes)])
    rows = [[numerator(x, i) * c % q for i, c in enumerate(inv)] for x in points]
    return np.array(rows, dtype=np.int64).reshape(len(points), len(nodes))


def lcc_encode(field: PrimeField, batch, betas, alpha: int) -> np.ndarray:
    """Evaluate the Lagrange interpolant through (beta_l, x_l) at alpha."""
    betas = [b % field.q for b in betas]
    alpha %= field.q
    if len(set(betas)) != len(betas):
        raise ParameterError("anchor points must be pairwise distinct")
    weights = lagrange_matrix(field, betas, [alpha])[0]
    acc = np.zeros_like(batch[0])
    for w, x in zip(weights, batch):
        acc = (acc + int(w) * x) % field.q
    return acc


def lcc_decode(field: PrimeField, answers, betas, arity: int) -> list[np.ndarray]:
    """Interpolate the degree <= N(L-1) answer polynomial and evaluate it at
    every anchor point."""
    betas = [b % field.q for b in betas]
    r = lcc_threshold(arity, len(betas))
    answers = list(answers)
    if len(answers) < r:
        raise InsufficientAnswersError(f"need {r} answers, got {len(answers)}")
    answers = answers[:r]
    alphas = [a % field.q for a, _ in answers]
    if len(set(alphas)) != len(alphas):
        raise ParameterError("duplicate evaluation points in answers")
    out = []
    for weights in lagrange_matrix(field, alphas, betas):
        acc = np.zeros_like(answers[0][1])
        for w, (_, y) in zip(weights, answers):
            acc = (acc + int(w) * y) % field.q
        out.append(acc)
    return out


# ---- polynomials ----


def poly_mul(field: PrimeField, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % field.q
    return poly_trim(out)


def poly_add(field: PrimeField, a, b) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % field.q
    return poly_trim(out)


def lagrange_interpolate(field: PrimeField, points) -> list[int]:
    """Unique polynomial of degree < len(points) through the given (x, y) pairs.

    Raises ValueError on duplicate x-values.
    """
    points = list(points)
    xs = [x % field.q for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-values in interpolation input")
    # Z(t) = prod (t - x_j), then peel off one root per basis polynomial.
    z = [1]
    for x in xs:
        z = poly_mul(field, z, [(-x) % field.q, 1])
    out = []
    for (x, y) in points:
        x %= field.q
        basis, rem = poly_divmod(field, z, [(-x) % field.q, 1])
        if rem:
            raise AssertionError("root division left a remainder")
        denom = poly_eval(field, basis, x)
        c = (y % field.q) * field.inv(denom) % field.q
        out = poly_add(field, out, [c * b % field.q for b in basis])
    return out


# ---- entangled polynomial codes ----


def split_blocks(mat: np.ndarray, rows: int, cols: int) -> list[list[np.ndarray]]:
    """Partition a matrix into a rows x cols grid of equal blocks."""
    if not np.issubdtype(mat.dtype, np.integer):
        raise ParameterError("matrices must hold integer residues")
    h, w = mat.shape
    if h % rows or w % cols:
        raise ParameterError(
            f"matrix of shape {mat.shape} is not divisible into {rows}x{cols} blocks"
        )
    bh, bw = h // rows, w // cols
    return [
        [mat[i * bh : (i + 1) * bh, j * bw : (j + 1) * bw] for j in range(cols)]
        for i in range(rows)
    ]


def answer_coefficients(field: PrimeField, a: np.ndarray, b: np.ndarray,
                        params: EPParams) -> list[np.ndarray]:
    """Term-by-term expansion of the answer polynomial (oracle-grade path).

    Returns the R coefficient matrices, whose power sum at alpha is the
    product of ``ep_encode_a`` and ``ep_encode_b`` at alpha.
    """
    grid_a = split_blocks(a, params.m, params.p)
    grid_b = split_blocks(b, params.p, params.n)
    r = ep_threshold(params)
    coeffs = [
        np.zeros((a.shape[0] // params.m, b.shape[1] // params.n), dtype=np.int64)
        for _ in range(r)
    ]
    for mi in range(params.m):
        for pi in range(params.p):
            for pj in range(params.p):
                for ni in range(params.n):
                    e = a_exponent(params, mi, pi) + b_exponent(params, pj, ni)
                    prod = field.matmul(grid_a[mi][pi], grid_b[pj][ni])
                    coeffs[e] = (coeffs[e] + prod) % field.q
    return coeffs


def ep_encode_a(field: PrimeField, a, params: EPParams, alpha: int) -> np.ndarray:
    """One matrix's A polynomial sum_{mi,pi} A_{mi,pi} alpha^(pi + p*mi)."""
    grid = split_blocks(np.asarray(a), params.m, params.p)
    return _block_sum(field, [(a_exponent(params, mi, pi), grid[mi][pi])
                              for mi in range(params.m) for pi in range(params.p)], alpha)


def ep_encode_b(field: PrimeField, b, params: EPParams, alpha: int) -> np.ndarray:
    """One matrix's B polynomial sum_{pi,ni} B_{pi,ni} alpha^(p-1-pi + p*m*ni)."""
    grid = split_blocks(np.asarray(b), params.p, params.n)
    return _block_sum(field, [(b_exponent(params, pi, ni), grid[pi][ni])
                              for pi in range(params.p) for ni in range(params.n)], alpha)


def _block_sum(field: PrimeField, terms, alpha: int) -> np.ndarray:
    acc = np.zeros_like(terms[0][1], dtype=np.int64)
    for e, block in terms:
        acc = (acc + field.pow(alpha, e) * (block % field.q)) % field.q
    return acc


def ep_decode(field: PrimeField, answers, params: EPParams) -> np.ndarray:
    """The product from the first R of the (alpha, Y) pairs ``answers``, Y
    an EP answer: every desired coefficient of the answer polynomial is
    sum_j l_j[e] Y_j, with l_j the Lagrange basis of the points."""
    r = ep_threshold(params)
    answers = list(answers)
    if len(answers) < r:
        raise InsufficientAnswersError(f"need {r} answers, got {len(answers)}")
    answers = answers[:r]
    xs = [x % field.q for x, _ in answers]
    if len(set(xs)) != len(xs):
        raise ParameterError("evaluation points must be pairwise distinct")
    basis = [lagrange_interpolate(field, [(x, int(i == j)) for i, x in enumerate(xs)]) + [0] * r
             for j in range(r)]

    def coefficient(e: int) -> np.ndarray:
        acc = np.zeros_like(answers[0][1], dtype=np.int64)
        for poly, (_, y) in zip(basis, answers):
            acc = (acc + poly[e] * (np.asarray(y) % field.q)) % field.q
        return acc

    return np.block([[coefficient(desired_coeff_index(params, mi, ni))
                      for ni in range(params.n)] for mi in range(params.m)])


# ---- N-linear maps and thresholds ----


def check_multilinear(field: PrimeField, omega: NLinearMap,
                      rng: np.random.Generator, trials: int = 20) -> bool:
    """Random two-point linearity probe in every slot."""
    for _ in range(trials):
        base = [field.rand_matrix(rng, *_as2d(s)).reshape(s) for s in omega.var_shapes]
        for slot in range(omega.arity):
            alt = field.rand_matrix(rng, *_as2d(omega.var_shapes[slot])).reshape(
                omega.var_shapes[slot])
            c1, c2 = int(rng.integers(0, field.q)), int(rng.integers(0, field.q))
            mixed = list(base)
            mixed[slot] = (c1 * base[slot] + c2 * alt) % field.q
            lhs = omega(field, *mixed)
            alt_args = list(base)
            alt_args[slot] = alt
            rhs = (c1 * omega(field, *base) + c2 * omega(field, *alt_args)) % field.q
            if not np.array_equal(lhs, rhs):
                return False
    return True


def _as2d(shape):
    if len(shape) == 1:
        return (shape[0], 1)
    return shape


def ep_threshold(params: EPParams) -> int:
    """Recovery threshold pmn + p - 1."""
    return params.p * params.m * params.n + params.p - 1


def grid_naive_threshold(s_outer: int, r_outer: int, s_inner: int, r_inner: int) -> int:
    """Worst-case threshold of the column-wise two-layer composition.

    Each of the s_outer partitioned sub-tasks is farmed out to its own group
    of s_inner servers; recovery needs r_outer groups with r_inner responses.
    The adversary wastes whole groups first, then stalls the rest just below
    their local threshold.
    """
    return (r_outer - 1) * s_inner + (s_outer - r_outer + 1) * (r_inner - 1) + 1


def min_max_cost(family: str, servers: int, r_max: int, pmn_bound=None):
    """Minimum over the family of max(U, D), with a witness tuple."""
    best = None
    best_w = None
    for u, d, w in enumerate_costs(family, servers, r_max, pmn_bound):
        cost = max(u, d)
        if best is None or cost < best or (cost == best and _witness_key(w) < _witness_key(best_w)):
            best, best_w = cost, w
    if best is None:
        raise ParameterError("empty feasible set")
    return best, best_w


def naive_combo_threshold(ell: int, kc: int, servers_inner: int) -> int:
    """Threshold of batch-coding all inner sub-products as one large batch:
    an (ell, kc * S') batch code over the S' * L partitioned tasks."""
    return ell * kc * servers_inner + kc * servers_inner - 1


def latency_upper_scan(job_size: int, eta: float, k: float):
    """(time, witness) of the best m in 1 .. (K eta / 2)^(1/3) + 9 meeting
    p m^2 >= K, p = ceil(2m / eta), for K >= 1."""
    best = best_w = None
    hi = max(1, math.ceil((k * eta / 2.0) ** (1.0 / 3.0))) + 8
    for m in range(1, hi + 1):
        p = math.ceil(2 * m / eta)
        if p * m * m < k:
            continue
        value = ((2 * job_size - 1) * p * m * m + p - 1) / (m * m)
        if best is None or value < best:
            best, best_w = value, {"ell": 1, "kc": job_size, "p": p, "m": m, "n": m}
    return best, best_w


# ---- X-secure noise ----


def shake_words(key: tuple, width: int = 8):
    """The little-endian words of ``width`` bytes of the SHAKE-256 stream of
    the packed (seed, var, l, k, x) key, read one word at a time."""
    xof = hashlib.shake_256(struct.pack("<5q", *key))
    stream, i = b"", 0
    while True:
        if width * (i + 1) > len(stream):
            stream = xof.digest(max(64, 2 * len(stream)))
        yield int.from_bytes(stream[width * i:width * (i + 1)], "little")
        i += 1


def noise_reference(q: int, key: tuple, n: int) -> list[int]:
    """The first n words below the largest multiple of q under 2^32 (4-byte
    words, up to q = 2^32) or 2^64 (8-byte words, above), mod q."""
    width = 4 if q <= 2**32 else 8
    limit = (2**(8 * width) // q) * q
    out = []
    for word in shake_words(key, width):
        if len(out) == n:
            return out
        if word < limit:
            out.append(word % q)


def xs_share_reference(q: int, params, batch, var: int, s: int, noise=None) -> list:
    """Server s's ell X-secure shares of ``batch``, variable ``var``, entry
    by entry, from the paper's formula: group l's share is
    Delta(l) [sum_k x_{l,k} / (f_{l,k} - alpha) + sum_x alpha^(x-1) Z_{l,x}]
    with Delta(l) = prod_k (f_{l,k} - alpha), alpha = alpha_s, the division
    by Fermat's little theorem, and Z_{l,x} block (l, x - 1) of the
    variable's ell * X blocks of n entries, the ``noise_reference`` words of
    key (noise_seed, var, 0, 0, 0) in that order, unless ``noise`` gives it,
    keyed (var, l, x).  A raw server s < L of a systematic layout holds its
    own entry as a one-group share."""
    if params.systematic and s < params.batch_size:
        return [np.array([int(v) % q for v in np.ravel(batch[s]).tolist()],
                         dtype=np.int64).reshape(np.shape(batch[s]))]
    alpha, kc = params.samples[s], params.kc
    shape = np.shape(batch[0])
    n = math.prod(shape)
    drawn = noise_reference(q, (params.noise_seed, var, 0, 0, 0),
                            params.ell * params.x_secure * n)  # blocks (l, x - 1), row-major
    shares = []
    for l in range(params.ell):
        poles = [params.pole(l, k) for k in range(kc)]
        delta = math.prod(f - alpha for f in poles) % q
        data = [(pow(f - alpha, q - 2, q), np.ravel(batch[l * kc + k]).tolist())
                for k, f in enumerate(poles)]
        masks = [(alpha ** (x - 1), np.ravel(noise[(var, l, x)]).tolist() if noise is not None
                  else drawn[(l * params.x_secure + x - 1) * n:(l * params.x_secure + x) * n])
                 for x in range(1, params.x_secure + 1)]
        entries = [delta * sum(w * int(v[i]) for w, v in data + masks) % q for i in range(n)]
        shares.append(np.array(entries, dtype=np.int64).reshape(shape))
    return shares


def xs_shares_each(q: int, params, batches, servers, noise=None) -> list:
    """Every variable encoded on its own: per variable, the listed servers'
    ``xs_share_reference`` shares, variable v keyed v."""
    return [[xs_share_reference(q, params, batch, v, s, noise) for s in servers]
            for v, batch in enumerate(batches)]


# ---- determinants ----


def leibniz_det(q: int, mat) -> int:
    """det(mat) mod q as sum over permutations p of sign(p) prod_i mat[i, p(i)],
    every entry a Python integer."""
    rows = [[int(x) for x in row] for row in np.asarray(mat).tolist()]
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(rows[i][p] for i, p in enumerate(perm))
    return total % q


# ---- the paper's decode matrices ----


def scaling_constants(field: PrimeField, params, power: int = 1) -> list[int]:
    """c_{l,k} = prod_{k' != k} (f_{l,k'} - f_{l,k}) ** power, group-major."""
    out = []
    for l in range(params.ell):
        for k in range(params.kc):
            c = 1
            for k2 in range(params.kc):
                if k2 != k:
                    c = c * field.sub(params.pole(l, k2), params.pole(l, k)) % field.q
            out.append(field.pow(c, power))
    return out


def loop_cv_matrix(field: PrimeField, spec: CVSpec) -> np.ndarray:
    """R x R confluent Cauchy-Vandermonde matrix: for each pole f the columns
    1/(f-a)^order down to 1/(f-a), then the tail 1, a, ..., a^(R - order*L - 1),
    every entry stepped in Python integers."""
    q = field.q
    R = len(spec.samples)
    rows = []
    for a in spec.samples:
        row = []
        for f in spec.poles:
            d = field.sub(f, a)
            p = pow(field.inv(d), spec.order, q)
            for _ in range(spec.order):
                row.append(p)
                p = p * d % q  # (f-a)^-(j) -> (f-a)^-(j-1)
        p = 1
        for _ in range(R - spec.order * len(spec.poles)):
            row.append(p)
            p = p * a % q
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(R, R)


def scaled_cv_matrix(field: PrimeField, spec: CVSpec, scales) -> np.ndarray:
    """The order-1 ``loop_cv_matrix(spec)`` with the Cauchy column of pole j
    multiplied by ``scales[j]``: the paper's decode matrix of CSA and N-CSA,
    and of their systematic and X-secure forms."""
    mat = loop_cv_matrix(field, spec)
    cauchy = mat[:, : len(spec.poles)]
    cauchy[:] = cauchy * np.array(scales, dtype=np.int64) % field.q
    return mat


def lt_toeplitz(field: PrimeField, column) -> np.ndarray:
    """n x n lower triangular Toeplitz matrix with the given first column."""
    c = [x % field.q for x in column]
    n = len(c)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1):
            m[i, j] = c[i - j]
    return m


def psi_coeffs(field: PrimeField, params, l: int, k: int) -> list[int]:
    """Coefficients (ascending) of prod_{k' != k} (t + (f_{l,k'} - f_{l,k}))^R'."""
    rp = params.inner_order
    poly = [1]
    for k2 in range(params.kc):
        if k2 == k:
            continue
        d = field.sub(params.pole(l, k2), params.pole(l, k))
        for _ in range(rp):
            poly = poly_mul(field, poly, [d, 1])
    # pad so the length is always R'(kc-1) + 1
    want = rp * (params.kc - 1) + 1
    return poly + [0] * (want - len(poly))


def gcsa_paper_matrix(field: PrimeField, params, alphas) -> np.ndarray:
    """The confluent Cauchy-Vandermonde matrix of GCSA times the
    block-diagonal mixer whose block g is the lower triangular Toeplitz
    matrix of psi's first R' coefficients."""
    rp = params.inner_order
    cv = loop_cv_matrix(field, CVSpec(params.poles, tuple(alphas), rp))
    mixer = np.eye(len(alphas), dtype=np.int64)
    for g in range(params.batch_size):
        l, k = divmod(g, params.kc)
        coeffs = (psi_coeffs(field, params, l, k) + [0] * rp)[:rp]
        mixer[g * rp : (g + 1) * rp, g * rp : (g + 1) * rp] = lt_toeplitz(field, coeffs)
    return field.matmul(cv, mixer)


def confluent_decode_matrix(field: PrimeField, params, listed, power: int,
                            order: int = 1, slots=None) -> np.ndarray:
    """The square decode matrix at the ``listed`` servers with unknowns for
    the batch entries in ``slots`` (all by default): ``loop_cv_matrix``
    of their poles, every Cauchy column of entry (l, k) multiplied row by
    row by the A-side weight prod_{k' != k}(f_{l,k'} - alpha)^power."""
    slots = range(params.batch_size) if slots is None else slots
    alphas = [params.samples[s] for s in listed]
    mat = loop_cv_matrix(field, CVSpec(tuple(params.poles[i] for i in slots),
                                       tuple(alphas), order))
    for col, i in enumerate(slots):
        l, k = divmod(i, params.kc)
        for row, alpha in enumerate(alphas):
            w = 1
            for k2 in range(params.kc):
                if k2 != k:
                    w = w * field.pow(field.sub(params.pole(l, k2), alpha), power) % field.q
            cauchy = mat[row, col * order:(col + 1) * order]
            cauchy[:] = cauchy * w % field.q
    return mat
