import math
import sys
import threading

import numpy as np
import pytest

from csacode import ffield
from csacode.errors import ParameterError
from csacode.ffield import (FLOAT_MIN_MACS, PrimeField, poly_divmod, poly_eval,
                            poly_trim)
from reference import lagrange_interpolate, poly_mul

Q31 = 2147483629
MODULI = (13, 65537, Q31)


def reference_matmul(a, b, q):
    """Schoolbook product in Python integers (object arrays): shares no code
    with any path of ``PrimeField.matmul``."""
    return (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % q


def worst_case(q, shape_a, shape_b):
    """Operands of all q-1 but for a first inner index of 1, so each product
    entry is the largest inner sum plus one, odd: float64 rounds an odd sum
    above 2^53.  (q-1)^2 = 1 mod q, so every entry is inner mod q."""
    a = np.full(shape_a, q - 1, dtype=np.int64)
    b = np.full(shape_b, q - 1, dtype=np.int64)
    a[..., 0] = 1
    b[0] = 1
    return a, b


def assert_matmul_exact(field, a, b):
    got = field.matmul(a, b)
    want = reference_matmul(a, b, field.q)
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want.astype(np.int64))


def test_inv_small_examples():
    f7 = PrimeField(7)
    assert f7.inv(2) == 4  # 2*4 = 8 = 1 mod 7
    assert PrimeField(65537).inv(1) == 1


def test_inv_random_against_fermat():
    field = PrimeField(65537)
    rng = np.random.default_rng(0)
    for a in rng.integers(1, field.q, size=300):
        a = int(a)
        inv = field.inv(a)
        assert field.mul(a, inv) == 1
        assert inv == pow(a, field.q - 2, field.q)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(65536)


def test_field_axioms_random_triples():
    field = PrimeField(65537)
    rng = np.random.default_rng(1)
    trips = rng.integers(0, field.q, size=(10_000, 3), dtype=np.int64)
    for a, b, c in trips:
        a, b, c = int(a), int(b), int(c)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)


def test_batch_inv_matches_inv():
    field = PrimeField(65537)
    rng = np.random.default_rng(2)
    values = [int(v) for v in rng.integers(1, field.q, size=64)]
    assert field.batch_inv(values) == [field.inv(v) for v in values]


def test_batch_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).batch_inv([3, 0, 5])


def test_matmul_exact_near_modulus_bound():
    # at the largest supported modulus one int64 sum holds one term, not five,
    # so this small product takes the 16-bit limb path
    field = PrimeField(2147483629)
    rng = np.random.default_rng(3)
    a = field.rand_matrix(rng, 3, 5)
    b = field.rand_matrix(rng, 5, 2)
    want = np.array([[sum(int(a[i, k]) * int(b[k, j]) for k in range(5)) % field.q
                      for j in range(2)] for i in range(3)])
    assert np.array_equal(field.matmul(a, b), want)


def test_matmul_against_python_ints_both_sides_of_crossover():
    shapes = [(4, 4, 4), (8, 8, 8), (15, 15, 15), (16, 16, 16), (17, 17, 17),
              (32, 32, 32), (1, 64, 64), (64, 64, 1), (28, 8, 256), (11, 11, 512)]
    macs = [m * n * p for m, n, p in shapes]
    assert min(macs) < FLOAT_MIN_MACS <= max(macs)
    rng = np.random.default_rng(6)
    for q in MODULI:
        field = PrimeField(q)
        for m, n, p in shapes:
            assert_matmul_exact(field, field.rand_matrix(rng, m, n),
                                field.rand_matrix(rng, n, p))


def test_matmul_inner_sizes_straddle_every_chunk_boundary():
    # Near q = 2^31 the float64 path splits b into 16-bit limbs: 2 terms per
    # inner index, each at most (q-1)(2^16-1), and one exact dgemm sums at
    # most 64 of them (below 2^53), so chunks end at inner 32, 64, 96, 128.
    assert (2**53 - 1) // ((Q31 - 1) * (2**16 - 1)) == 64
    rng = np.random.default_rng(7)
    for q in MODULI:
        field = PrimeField(q)
        for n in (31, 32, 33, 63, 64, 65, 129):
            assert_matmul_exact(field, field.rand_matrix(rng, 6, n),
                                field.rand_matrix(rng, n, 40))
            worst_a, worst_b = worst_case(q, (6, n), (n, 40))
            assert_matmul_exact(field, worst_a, worst_b)
            assert (field.matmul(worst_a, worst_b) == n % q).all()
            # the largest odd limb terms, (q-2) * (2^16-1): b = 0x7ffeffff
            b_value = min(q - 1, 2**31 - 2**16 - 1)
            odd_a = np.full((6, n), q - 2, dtype=np.int64)
            odd_b = np.full((n, 40), b_value, dtype=np.int64)
            assert (field.matmul(odd_a, odd_b) == n * (q - 2) * b_value % q).all()


@pytest.mark.parametrize("chunks", [1, 2, 1023, 1024, 1025])
def test_matmul_sums_many_chunks_before_one_reduction(chunks):
    # At q near 2^31 a chunk is 32 inner indices (64 limb terms, each chunk
    # sum below 2^53).  A column block adds its chunk sums in int64 and
    # reduces once, and after every _CHUNK_SUMS added chunks: 1023, 1024 and
    # 1025 chunks straddle that, with and without out=.
    assert ffield._CHUNK_SUMS == 1023
    field = PrimeField(Q31)
    n = 32 * chunks
    rng = np.random.default_rng(chunks)
    odd_b = np.full((n, 1), min(Q31 - 1, 2**31 - 2**16 - 1), dtype=np.int64)
    for a, b in ((field.rand_matrix(rng, 2, n), field.rand_matrix(rng, n, 1)),
                 worst_case(Q31, (2, n), (n, 1)),
                 (np.full((2, n), Q31 - 2, dtype=np.int64), odd_b)):
        want = reference_matmul(a, b, Q31).astype(np.int64)
        assert np.array_equal(field.matmul(a, b), want)
        out = np.full((2, 1), -1, dtype=np.int64)
        assert field.matmul(a, b, out=out) is out
        assert np.array_equal(out, want)


def test_matmul_wide_output_spans_column_blocks():
    # 8193 output columns run as several column blocks, each over 3 inner
    # chunks at q near 2^31
    for q in MODULI:
        a, b = worst_case(q, (2, 65), (65, 8193))
        assert (PrimeField(q).matmul(a, b) == 65 % q).all()
    field = PrimeField(Q31)
    rng = np.random.default_rng(10)
    assert_matmul_exact(field, field.rand_matrix(rng, 2, 65),
                        field.rand_matrix(rng, 65, 8193))


def test_matmul_plain_float_chunk_boundary_at_65537():
    # at q = 65537 one exact dgemm holds 2^21 - 1 terms; vectors keep it
    # cheap; with and without out=
    field = PrimeField(65537)
    for n in (2**21 - 1, 2**21, 2**21 + 1):
        a, b = worst_case(field.q, (1, n), (n, 1))
        assert field.matmul(a, b).tolist() == [[n % field.q]]
        out = np.full((1, 1), -1, dtype=np.int64)
        assert field.matmul(a, b, out=out) is out
        assert out.tolist() == [[n % field.q]]


def test_matmul_vector_and_batched_operands():
    rng = np.random.default_rng(8)
    for q in MODULI:
        field = PrimeField(q)
        for n in (5, 64):
            a3 = rng.integers(0, q, size=(3, 7, n), dtype=np.int64)
            assert_matmul_exact(field, a3, field.rand_matrix(rng, n, 9))
            assert_matmul_exact(field, a3, rng.integers(0, q, size=n, dtype=np.int64))
            assert_matmul_exact(field, field.rand_matrix(rng, 40, n),
                                rng.integers(0, q, size=n, dtype=np.int64))
    with pytest.raises(ValueError):
        PrimeField(13).matmul(np.ones((2, 3), dtype=np.int64),
                              np.ones((2, 3), dtype=np.int64))


def test_large_modulus_takes_int64_and_limb_paths(monkeypatch):
    field = PrimeField(Q31)
    taken = []
    for name in ("_matmul_int64", "_matmul_float"):
        kernel = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, *args, kernel=kernel, name=name:
                            taken.append(name) or kernel(self, *args))
    rng = np.random.default_rng(9)
    small = (field.rand_matrix(rng, 3, 5), field.rand_matrix(rng, 5, 2))
    large = (field.rand_matrix(rng, 64, 64), field.rand_matrix(rng, 64, 64))
    one_term = (field.rand_matrix(rng, 3, 1), field.rand_matrix(rng, 1, 2))
    for a, b in (small, large, one_term):
        assert_matmul_exact(field, a, b)
    # int64 sums (q-1)^2 < 2^62 exactly, but not five such terms
    assert taken == ["_matmul_float", "_matmul_float", "_matmul_int64"]
    # at q near 2^31 the float64 path runs on 16-bit limbs of b: 2 terms per index
    x, _ = field._float_a(large[0])
    y = field._float_b(large[1], x.shape[1])
    assert x.shape == (64, 128) and y.shape == (128, 64)
    assert y.max() < 2**16


@pytest.mark.parametrize("q, rows, inner, cols, kernel", [
    (Q31, 3, 1, 2, "_matmul_int64"),      # one int64 sum holds one term
    (Q31, 3, 2, 2, "_matmul_float"),      # but not two: the limb path
    (Q31, 4, 4, 4, "_matmul_float"),
    (Q31, 3, 5, 2, "_matmul_float"),
    (Q31, 6, 6, 6, "_matmul_float"),
    (Q31, 11, 256, None, "_matmul_float"),
    (1073741789, 3, 4, 2, "_matmul_int64"),    # four terms
    (1073741789, 3, 5, 2, "_matmul_float"),    # but not five
    (1073741789, 8, 8, 8, "_matmul_float"),
    (1073741789, 2, 12, 2, "_matmul_float"),
    (65537, 11, 256, None, "_matmul_int64"),   # one sum holds them all
])
def test_small_products_route_by_int64_chunk_count(monkeypatch, q, rows, inner, cols, kernel):
    # Below FLOAT_MIN_MACS a product takes int64 only when one int64 sum is
    # exact, inner * (q-1)^2 < 2^62; the rest take the float path.
    assert (inner * (q - 1) ** 2 < 2**62) == (kernel == "_matmul_int64")
    field = PrimeField(q)
    taken = []
    for name in ("_matmul_int64", "_matmul_float"):
        fn = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, *args, fn=fn, name=name:
                            taken.append(name) or fn(self, *args))
    rng = np.random.default_rng(q % 97 + inner)
    a = field.rand_matrix(rng, rows, inner)
    b = field.rand_matrix(rng, inner, cols or 1)
    b = b if cols else b[:, 0]
    assert_matmul_exact(field, a, b)
    assert taken == [kernel]


@pytest.mark.parametrize("lead, rows, inner, cols, use_out", [
    ((1,), 3, 4, 5, False),         # int64, limbs at q near 2^31
    ((5,), 3, 4, 5, True),
    ((3,), 2, 1, 3, True),          # one inner term: int64 at every q
    ((1,), 24, 24, 24, True),       # one slice past FLOAT_MIN_MACS: float
    ((18,), 16, 16, 16, False),     # the slices together pass it: float
    ((18,), 16, 16, 16, True),
    ((2, 3), 4, 70, 9, False),      # two stack axes; 3 limb chunks at q near 2^31
    ((2,), 2, 65, 8193, True),      # column blocks
])
def test_stacked_products_equal_each_slice(monkeypatch, lead, rows, inner, cols, use_out):
    # a (..., m, k) @ b (..., k, p): every slice is the exact 2-D product, and
    # a stack takes the float path once all its slices' multiply-adds pass
    # FLOAT_MIN_MACS (near q = 2^31 the float path always splits limbs)
    taken = []
    for name in ("_matmul_int64", "_matmul_float"):
        fn = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name,
                            lambda self, *args, fn=fn, name=name:
                            taken.append(name) or fn(self, *args))
    rng = np.random.default_rng(rows * inner + cols)
    for q in MODULI:
        field, taken[:] = PrimeField(q), []
        a = rng.integers(0, q, size=lead + (rows, inner), dtype=np.int64)
        b = rng.integers(0, q, size=lead + (inner, cols), dtype=np.int64)
        out = np.full(lead + (rows, cols), -1, dtype=np.int64) if use_out else None
        got = field.matmul(a, b, out=out)
        assert got is out or out is None
        assert got.shape == lead + (rows, cols)
        for i in np.ndindex(*lead):
            assert np.array_equal(got[i], reference_matmul(a[i], b[i], q).astype(np.int64))
        macs = math.prod(lead) * rows * inner * cols
        exact = inner * (q - 1) ** 2 < 2**62
        assert taken == ["_matmul_int64" if macs < FLOAT_MIN_MACS and exact
                         else "_matmul_float"]


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 0, 3), (2, 3, 4)),     # zero rows in every slice of a stack
    ((0, 2, 3), (0, 3, 4)),     # a stack of no slices
    ((0, 2, 3), (0, 3, 0)),
    ((2, 3, 2, 3), (2, 3, 3, 4)),  # two stack axes, every slice nonempty
    ((2, 0, 2, 3), (2, 0, 3, 4)),  # two stack axes, none along one
    ((0, 3), (3, 4)),           # a 2-D product of no rows
    ((2, 3), (3, 0)),           # and of no columns
    ((2, 0), (0, 4)),           # and of no inner terms: all zero
])
def test_zero_size_products_keep_their_shape(q, shape_a, shape_b):
    # an empty server list makes zero-row stacks; near q = 2^31 they take the
    # float path, whose reshapes must not infer a size from no entries
    field, rng = PrimeField(q), np.random.default_rng(len(shape_a))
    a = rng.integers(0, q, size=shape_a, dtype=np.int64)
    b = rng.integers(0, q, size=shape_b, dtype=np.int64)
    want = (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % q
    for out in (None, np.full(want.shape, -1, dtype=np.int64)):
        got = field.matmul(a, b, out=out)
        assert got is out or out is None
        assert (got.dtype, got.shape) == (np.dtype(np.int64), want.shape)
        assert np.array_equal(got, want.astype(np.int64))


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 3, 4), (3, 4, 5)),    # leading shapes differ
    ((3, 4), (2, 4, 5)),       # a 2-D a against a stack
    ((2, 2, 3, 4), (2, 4, 5)),  # stack ranks differ
    ((2, 3, 4), (2, 5, 5)),    # inner sizes differ
])
def test_stacked_products_refuse_mismatched_stacks(shape_a, shape_b):
    with pytest.raises(ValueError):
        PrimeField(13).matmul(np.ones(shape_a, dtype=np.int64), np.ones(shape_b, dtype=np.int64))


def test_residues_reduces_only_out_of_range_inputs():
    field = PrimeField(13)
    x = np.array([[0, 12], [5, 7]], dtype=np.int64)
    assert field.residues(x) is x
    assert field.residues([[-1, 13], [26, 40]]).tolist() == [[12, 0], [0, 1]]


@pytest.mark.parametrize("q", [65537, Q31])
def test_residues_reduce_uint64_before_the_cast(q):
    # a cast to int64 would wrap these to x - 2^64
    big = [2**63, 2**64 - 1, 2**63 + q, 5]
    field = PrimeField(q)
    assert field.residues(np.array(big, dtype=np.uint64)).tolist() == [x % q for x in big]
    assert field.residues([2**64 - 1]).tolist() == [(2**64 - 1) % q]


@pytest.mark.parametrize("x", [np.full(2, 1.5), np.ones(2, dtype=bool), [1.5],
                               np.array([1], dtype=object)],
                         ids=["float", "bool", "float-list", "object"])
def test_residues_rejects_non_integers(x):
    # a cast would truncate 1.5 to 1 and read True as 1
    with pytest.raises(ParameterError, match="integers"):
        PrimeField(13).residues(x)


def test_modulus_bound_enforced():
    with pytest.raises(ValueError):
        PrimeField(2147483659)  # prime, but products would overflow int64


def test_poly_eval_examples():
    field = PrimeField(7)
    assert poly_eval(field, [], 3) == 0
    assert poly_eval(field, [3], 9) == 3
    # 1 + 2x + x^2 at x=2: 1+4+4 = 9 = 2 mod 7
    assert poly_eval(field, [1, 2, 1], 2) == 2


def test_lagrange_single_point():
    field = PrimeField(65537)
    assert lagrange_interpolate(field, [(0, 5)]) == [5]


def test_lagrange_monomial_fit():
    field = PrimeField(65537)
    assert lagrange_interpolate(field, [(1, 1), (2, 4), (3, 9)]) == [0, 0, 1]


def test_lagrange_duplicate_x_rejected():
    field = PrimeField(65537)
    with pytest.raises(ValueError):
        lagrange_interpolate(field, [(1, 1), (1, 2)])


def test_lagrange_sample_then_fit_identity():
    field = PrimeField(65537)
    rng = np.random.default_rng(4)
    for deg in range(0, 16):
        coeffs = [int(c) for c in rng.integers(0, field.q, size=deg + 1)]
        coeffs = poly_trim(coeffs)
        xs = rng.choice(field.q, size=deg + 1, replace=False)
        pts = [(int(x), poly_eval(field, coeffs, int(x))) for x in xs]
        assert lagrange_interpolate(field, pts) == coeffs


def test_poly_divmod_roundtrip():
    field = PrimeField(65537)
    rng = np.random.default_rng(5)
    for _ in range(50):
        num = [int(c) for c in rng.integers(0, field.q, size=8)]
        den = poly_trim([int(c) for c in rng.integers(0, field.q, size=4)])
        if not den:
            continue
        quot, rem = poly_divmod(field, num, den)
        back = poly_mul(field, quot, den)
        recombined = [0] * max(len(back), len(rem), len(num))
        for i, c in enumerate(back):
            recombined[i] = c
        for i, c in enumerate(rem):
            recombined[i] = (recombined[i] + c) % field.q
        assert poly_trim(recombined) == poly_trim(num)
        assert len(rem) < len(den)


# ---- the float path's per-thread workspaces ----


def float_path_products(rng, field):
    """Products of several sizes, all on the float path (at least
    FLOAT_MIN_MACS multiply-adds), with their schoolbook answers.  Below
    q = 2^26.5 the 2-D ones but (2, 65, 8193) and (16, 16, 1016) and the
    (36, 16, 16, 16) stack take its small branch."""
    out = []
    for shape in ((24, 40, 24), (64, 96, 80), (2, 65, 8193), (30, 20, 30),
                  (16, 16, 1015), (16, 16, 1016), (36, 16, 16, 16)):
        *lead, m, n, p = shape
        a = rng.integers(0, field.q, size=(*lead, m, n), dtype=np.int64)
        b = rng.integers(0, field.q, size=(*lead, n, p), dtype=np.int64)
        want = np.stack([reference_matmul(x, y, field.q) for x, y in
                         zip(a.reshape(-1, m, n), b.reshape(-1, n, p))]).reshape(*lead, m, p)
        out.append((a, b, want.astype(np.int64)))
    return out


def test_matmul_results_survive_later_products_in_any_field():
    rng = np.random.default_rng(11)
    kept = []
    for q in MODULI:
        field = PrimeField(q)
        for a, b, want in float_path_products(rng, field):
            got = field.matmul(a, b)
            assert np.array_equal(got, want)
            kept.append((got, want))
    # larger and smaller products, in every field, after all of the above
    for q in MODULI + MODULI[::-1]:
        field = PrimeField(q)
        for a, b, _ in float_path_products(rng, field)[::-1]:
            field.matmul(a, b)
    for got, want in kept:
        assert np.array_equal(got, want)
    workspaces = list(ffield._WORKSPACES.__dict__.values())
    assert workspaces
    assert not any(np.shares_memory(got, buf) for got, _ in kept for buf in workspaces)


def test_matmul_is_exact_in_two_concurrent_threads():
    barrier = threading.Barrier(2, timeout=60)
    failures, finished = [], []

    def work(q, seed):
        field = PrimeField(q)
        cases = float_path_products(np.random.default_rng(seed), field)
        barrier.wait()
        for _ in range(10):
            for a, b, want in cases:
                if not np.array_equal(field.matmul(a, b), want):
                    failures.append((q, a.shape, b.shape))
        finished.append(q)

    threads = [threading.Thread(target=work, args=(q, seed))
               for q, seed in ((65537, 12), (Q31, 13))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between numpy calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(finished) == 2


def test_matmul_writes_into_out():
    rng = np.random.default_rng(14)
    for q in MODULI:
        field = PrimeField(q)
        for m, n, p in ((3, 4, 5), (40, 30, 20)):  # int64 and float paths
            a, b = field.rand_matrix(rng, m, n), field.rand_matrix(rng, n, p)
            out = np.full((m, p), -1, dtype=np.int64)
            assert field.matmul(a, b, out=out) is out
            assert np.array_equal(out, reference_matmul(a, b, q).astype(np.int64))
    field = PrimeField(13)
    a, b = np.ones((2, 3), dtype=np.int64), np.ones((3, 4), dtype=np.int64)
    for bad in (np.empty((2, 5), dtype=np.int64), np.empty((2, 4)),
                np.empty((4, 2), dtype=np.int64).T):
        with pytest.raises(ValueError):
            field.matmul(a, b, out=bad)


# ---- the float path's small branch, and _reduce's crossover ----

QFEW = 53999989  # (q-1)^2 just below 2^53 / 3: one plain chunk holds 3 inner terms


def _workspaces_taken(monkeypatch) -> list:
    """The names of the workspaces every later product asks for."""
    taken, workspace = [], ffield._workspace
    monkeypatch.setattr(ffield, "_workspace",
                        lambda name, *args: taken.append(name) or workspace(name, *args))
    return taken


@pytest.mark.parametrize("q, lead, rows, inner, cols, small", [
    (13, (), 16, 16, 1015, True),       # a, b and the product: 32,736 float64 entries
    (13, (), 16, 16, 1016, False),      # 32,768 = _SMALL_TEMPS
    (65537, (), 16, 16, 1015, True),
    (65537, (), 16, 16, 1016, False),
    (65537, (2,), 8, 16, 677, True),    # a stack: 32,752 entries
    (65537, (2,), 8, 16, 678, False),   # 32,800
    (65537, (36,), 16, 16, 16, True),   # an N-CSA round's stacked answers
    (QFEW, (), 40, 3, 100, True),       # the inner terms fill one plain chunk
    (QFEW, (), 40, 4, 100, False),      # and one more takes 16-bit limbs
    (QFEW, (3,), 10, 3, 100, True),
    (QFEW, (3,), 10, 4, 100, False),
    (Q31, (), 40, 2, 400, False),       # not one plain term fits below 2^53
])
def test_small_float_products_straddle_their_bounds(monkeypatch, q, lead, rows, inner, cols,
                                                    small):
    # below both bounds a float product multiplies fresh float64 copies (no
    # operand workspace); at either it keeps the workspaces; both are exact
    assert ffield._SMALL_TEMPS == 2**15
    assert (2**53 - 1) // (QFEW - 1) ** 2 == 3
    field, rng = PrimeField(q), np.random.default_rng(rows * inner + cols)
    size_a, size_b = lead + (rows, inner), lead + (inner, cols)
    assert math.prod(lead) * rows * inner * cols >= FLOAT_MIN_MACS
    operands = [(rng.integers(0, q, size=size_a, dtype=np.int64),
                 rng.integers(0, q, size=size_b, dtype=np.int64)),
                (np.full(size_a, q - 1, dtype=np.int64), np.full(size_b, q - 1, dtype=np.int64))]
    for a, b in operands:
        want = np.stack([reference_matmul(x, y, q) for x, y in
                         zip(a.reshape(-1, rows, inner), b.reshape(-1, inner, cols))])
        want = want.reshape(lead + (rows, cols)).astype(np.int64)
        for out in (None, np.full(want.shape, -1, dtype=np.int64)):
            taken = _workspaces_taken(monkeypatch)
            got = field.matmul(a, b, out=out)
            assert got is out or out is None
            assert np.array_equal(got, want)
            assert ("x" not in taken) == small
            monkeypatch.undo()
    assert (field.matmul(*operands[1]) == inner % q).all()  # (q-1)^2 = 1 mod q


@pytest.mark.parametrize("q", (13, 65537, QFEW))
@pytest.mark.parametrize("shape_a, shape_b", [
    ((0, 3), (3, 4)), ((2, 3), (3, 0)), ((2, 0), (0, 4)),
    ((2, 0, 3), (2, 3, 4)), ((0, 2, 3), (0, 3, 4)),
])
def test_small_float_branch_keeps_zero_size_shapes(q, shape_a, shape_b):
    # matmul sends zero-size products below q = 2^31 to the int64 path;
    # called on them, the float path's small branch still returns the
    # product's shape, all zero where there are no inner terms
    field = PrimeField(q)
    a, b = np.ones(shape_a, dtype=np.int64), np.ones(shape_b, dtype=np.int64)
    want = np.zeros(shape_a[:-1] + shape_b[-1:], dtype=np.int64)
    for out in (None, np.full(want.shape, -1, dtype=np.int64)):
        got = field._matmul_float(a, b, out)
        assert got is out or out is None
        assert (got.dtype, got.shape) == (np.dtype(np.int64), want.shape)
        assert np.array_equal(got, want)


def test_small_float_products_leave_a_fresh_thread_without_workspaces():
    # a float-path product of fewer than _REDUCE_MIN entries takes no
    # workspace at all, not even the reduction's
    field, rng, seen = PrimeField(65537), np.random.default_rng(15), []
    a, b = field.rand_matrix(rng, 24, 40), field.rand_matrix(rng, 40, 24)
    assert a.size * b.shape[1] >= FLOAT_MIN_MACS and 24 * 24 < ffield._REDUCE_MIN

    def work():
        got = field.matmul(a, b)
        seen.append((np.array_equal(got, reference_matmul(a, b, field.q).astype(np.int64)),
                     dict(ffield._WORKSPACES.__dict__)))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert seen == [(True, {})]


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("size", [1, 1023, 1024, 4096])
def test_reduce_works_in_place_on_both_sides_of_its_crossover(monkeypatch, q, size):
    # below _REDUCE_MIN entries numpy's remainder, from it the workspace
    # quotient: either way x % q, written into x, for in-range, negative
    # and near-2^62 entries
    assert ffield._REDUCE_MIN == 1024
    rng = np.random.default_rng(size)
    for lo, hi in ((0, q), (-2**62, 0), (2**62 - 2**40, 2**62 + 2**40)):
        x = rng.integers(lo, hi, size=size, dtype=np.int64)
        x[0] = hi - 1
        want = [int(v) % q for v in x]
        taken = _workspaces_taken(monkeypatch)
        assert ffield._reduce(x, q) is x
        assert x.tolist() == want
        assert taken == ([] if size < ffield._REDUCE_MIN else ["quot"])
        monkeypatch.undo()
