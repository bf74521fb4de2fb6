import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradus.field import (
    PrimeField,
    RationalField,
    Scalar,
    field_arith,
    field_from_string,
    is_prime,
    kernel_basis,
    rank,
    rank_profile,
    row_space_basis,
    rref,
)
from gradus.errors import ParseError

F7 = PrimeField(7)
Q = RationalField()


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2)  # below the supported range
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    assert is_prime(32003)
    assert not is_prime(32001)


def test_f7_examples():
    assert F7.add(3, 5) == 1
    assert F7.div(1, 3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert F7.mul(3, F7.inv(3)) == 1
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_rational_examples():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.div(Q.one, Fraction(-4, 6)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        Q.div(Q.one, Q.zero)


def test_scalar_wrapper_checks_fields():
    a = Scalar(F7, 3)
    b = Scalar(F7, 5)
    assert (a + b).value == 1
    assert field_arith(a, b, "mul").value == 1
    with pytest.raises(ValueError):
        a + Scalar(PrimeField(11), 5)
    with pytest.raises(ValueError):
        field_arith(a, b, "pow")


def test_field_from_string():
    assert field_from_string("32003") == PrimeField(32003)
    assert field_from_string("Q") == RationalField()
    with pytest.raises(ParseError):
        field_from_string("10")
    with pytest.raises(ParseError):
        field_from_string("zzz")


def test_balanced_printing_roundtrip():
    p = PrimeField(32003)
    assert p.scalar_str(32000) == "-3"
    assert p.parse_scalar("-3") == 32000
    assert p.parse_scalar("1/2") == p.div(1, 2)


def test_field_axioms_on_1000_random_triples():
    p = PrimeField(32003)
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (p.random(rng) for _ in range(3))
        assert p.add(p.add(a, b), c) == p.add(a, p.add(b, c))
        assert p.mul(p.mul(a, b), c) == p.mul(a, p.mul(b, c))
        assert p.add(a, b) == p.add(b, a)
        assert p.mul(a, b) == p.mul(b, a)
        assert p.mul(a, p.add(b, c)) == p.add(p.mul(a, b), p.mul(a, c))
        if a:
            assert p.mul(a, p.inv(a)) == 1


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_axioms(a, b, c):
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.sub(a, a) == 0


def test_kernel_examples():
    # injective map: empty kernel
    assert kernel_basis(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    # zero map: kernel is everything
    assert len(kernel_basis(F7, [[0, 0, 0], [0, 0, 0]], 3)) == 3
    # one relation: hand-reduced oracle says kernel = {(−1,1,0), (−1,0,1)}
    vecs = kernel_basis(F7, [[1, 1, 1]])
    assert len(vecs) == 2
    assert sorted(vecs) == [[6, 0, 1], [6, 1, 0]]
    for v in vecs:
        assert sum(v) % 7 == 0
    # no rows: the whole space
    assert len(kernel_basis(F7, [], 4)) == 4


def _random_matrix(field, rng, m, n):
    return [[field.random(rng) for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(7), RationalField()])
def test_rank_nullity_and_annihilation(field):
    rng = random.Random(3)
    for _ in range(25):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        M = _random_matrix(field, rng, m, n)
        r = rank(field, M)
        K = kernel_basis(field, M, n)
        assert r + len(K) == n
        for v in K:
            for row in M:
                acc = field.zero
                for a, b in zip(row, v):
                    acc = field.add(acc, field.mul(a, b))
                assert field.is_zero(acc)
        # kernel vectors are independent
        if K:
            assert rank(field, K) == len(K)


def test_row_space_basis():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    basis = row_space_basis(F7, rows)
    assert len(basis) == 2
    assert rank(F7, basis) == 2


# -- the one elimination, through the public functions, against a plain
# -- Gauss-Jordan on Python scalars ------------------------------------------

ECHELON_FIELDS = [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1), RationalField()]


def _reference_rref(field, rows, ncols):
    """Gauss-Jordan on Fractions, every entry brought back to the field's
    canonical form after each step (so reduced mod p over F_p)."""
    def canon(x):
        return field.from_fraction(Fraction(x))

    A = [[canon(v) for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        i = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = canon(Fraction(1) / A[r][c])
        A[r] = [canon(inv * v) for v in A[r]]
        for k in range(len(A)):
            if k != r and A[k][c] != 0:
                f = A[k][c]
                A[k] = [canon(v - f * w) for v, w in zip(A[k], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


def _reference_kernel(field, R, pivots, ncols):
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for k, pc in enumerate(pivots):
            v[pc] = field.from_fraction(-Fraction(R[k][f]))
        basis.append(v)
    return basis


def _product_of_rank(field, rng, m, n, r, entry):
    """An m x n matrix of rank exactly r: (m x r of full column rank) times
    (r x n of full row rank), each an identity block plus random entries."""
    left = [[field.one if i == k else field.zero for k in range(r)] for i in range(r)]
    left += [[entry() for _ in range(r)] for _ in range(m - r)]
    rng.shuffle(left)
    right = [[field.one if i == k else field.zero for k in range(r)] + [entry() for _ in range(n - r)]
             for i in range(r)]
    perm = list(range(n))
    rng.shuffle(perm)
    right = [[row[k] for k in perm] for row in right]
    return [[field.from_fraction(Fraction(sum(Fraction(a) * b[j] for a, b in zip(row, right))))
             for j in range(n)] for row in left]


def _echelon_cases(field, rng):
    """(name, rows, ncols) over assorted shapes, ranks and sparsity."""
    big = [field.neg(field.one), field.neg(field.from_fraction(2))]

    def entry():  # mostly p - 1 and p - 2 over F_p, so products reach ~p^2
        return rng.choice(big) if rng.random() < 0.5 else field.random(rng)

    for m, n in ((1, 1), (3, 3), (5, 5), (2, 7), (7, 2), (4, 6), (6, 4)):
        yield "full rank", _product_of_rank(field, rng, m, n, min(m, n), entry), n
        if min(m, n) > 1:
            r = rng.randrange(1, min(m, n))
            yield "rank deficient", _product_of_rank(field, rng, m, n, r, entry), n
        yield "random", [[entry() for _ in range(n)] for _ in range(m)], n
        yield "all zero", [[field.zero] * n for _ in range(m)], n
        yield "all p-1", [[big[0]] * n for _ in range(m)], n
    yield "no rows", [], 5
    yield "zero columns", [[] for _ in range(4)], 0
    # sparse, signed blocks in the layout of a Koszul differential
    for _ in range(4):
        blocks, size = rng.randrange(2, 4), rng.randrange(1, 4)
        rows = [[field.zero] * (blocks * size) for _ in range(blocks * size)]
        for bi in range(blocks):
            for bj in range(blocks):
                if rng.random() < 0.4:
                    sign = field.one if (bi + bj) % 2 == 0 else field.neg(field.one)
                    for a in range(size):
                        for b in range(size):
                            if rng.random() < 0.5:
                                rows[bi * size + a][bj * size + b] = field.mul(sign, entry())
        yield "koszul-like", rows, blocks * size


def _as_array(field, rows, ncols):
    dtype = np.int64 if field.kind == "prime" else object
    return np.array(rows, dtype=dtype).reshape(len(rows), ncols)


def _canonical(field, rows):
    if field.kind == "prime":
        return all(type(v) is int and 0 <= v < field.p for row in rows for v in row)
    return all(type(v) is Fraction and type(v.numerator) is int for row in rows for v in row)


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=lambda f: f.spec_string())
def test_echelon_matches_reference_gauss_jordan(field):
    rng = random.Random(f"echelon/{field.spec_string()}")
    for name, rows, n in _echelon_cases(field, rng):
        R, pivots = _reference_rref(field, rows, n)
        want_kernel = _reference_kernel(field, R, pivots, n)
        for given in (rows, _as_array(field, rows, n)):
            kept = [list(r) for r in given]
            ncols_choices = (n, None) if len(rows) else (n,)
            for ncols in ncols_choices:
                got_R, got_pivots = rref(field, given, ncols)
                assert (got_R, got_pivots) == (R, pivots), name
                assert _canonical(field, got_R), name
                assert rank(field, given, ncols) == len(pivots), name
                K = kernel_basis(field, given, ncols)
                assert K == want_kernel and _canonical(field, K), name
                B = row_space_basis(field, given, ncols)
                assert B == R[:len(pivots)] and _canonical(field, B), name
            assert [list(r) for r in given] == kept, f"{name}: input was modified"


# -- the rank mode (below-pivot elimination, deferred mod p) against the same
# -- reference ---------------------------------------------------------------

RANK_FIELDS = [PrimeField(3), PrimeField(32003), PrimeField(2**31 - 1), RationalField()]


def _rank_cases(field, rng):
    """(name, rows, ncols): empty, tall and wide shapes of every rank, with
    zero and duplicate rows mixed in. Entries are mostly p - 1 and p - 2, so
    at p = 2^31 - 1 every rank-1 update moves an entry by nearly 2^62 and
    three of them without a reduction overflow int64."""
    big = [field.neg(field.one), field.neg(field.from_fraction(2))]

    def entry():
        return rng.choice(big) if rng.random() < 0.7 else field.random(rng)

    yield "0 x n", [], 6
    yield "m x 0", [[] for _ in range(5)], 0
    for m, n in ((1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (12, 5), (5, 12), (16, 16)):
        for r in sorted({0, 1, min(m, n) // 2, min(m, n) - 1, min(m, n)}):
            rows = _product_of_rank(field, rng, m, n, r, entry)
            yield f"{m}x{n} rank {r}", rows, n
            doubled = rows + [list(row) for row in rows]
            rng.shuffle(doubled)
            yield f"{m}x{n} rank {r}, every row twice", doubled, n
            padded = rows + [[field.zero] * n for _ in range(3)]
            rng.shuffle(padded)
            yield f"{m}x{n} rank {r}, zero rows", padded, n


@pytest.mark.parametrize("field", RANK_FIELDS, ids=lambda f: f.spec_string())
def test_rank_mode_matches_reference_gauss_jordan(field):
    rng = random.Random(f"rank/{field.spec_string()}")
    most = 0
    for name, rows, n in _rank_cases(field, rng):
        want = len(_reference_rref(field, rows, n)[1])
        most = max(most, want)
        for given in (rows, _as_array(field, rows, n)):
            kept = [list(r) for r in given]
            assert rank(field, given, n) == want, name
            if len(rows):
                assert rank(field, given) == want, name
            assert [list(r) for r in given] == kept, f"{name}: input was modified"
    assert most >= 3  # enough pivots that p = 2^31 - 1 flushes its deferred reduction


# -- pivot lists of both modes: one- and two-pivot steps, deferred mod p ----

PIVOT_FIELDS = [PrimeField(3), PrimeField(32003), PrimeField(1073741789), PrimeField(2**31 - 1)]


def _det2(field, rows):
    (a, b), (c, d) = (row[:2] for row in rows[:2])
    return field.sub(field.mul(a, d), field.mul(b, c))


def _pivot_cases(field, rng):
    """(name, rows, ncols): each shape a step of the elimination can meet,
    with entries mostly p - 1 and p - 2 so that every update at
    p = 2^31 - 1 or 1073741789 moves an entry by nearly (p - 1)^2."""
    one, m1, m2 = field.one, field.neg(field.one), field.neg(field.from_fraction(2))

    def entry():
        return rng.choice((m1, m2)) if rng.random() < 0.7 else field.random(rng)

    def rows_of(m, n):
        return [[entry() for _ in range(n)] for _ in range(m)]

    for n in (2, 5, 9):
        # the leading block [[-1, -1], [1, 1]] is singular; row 2 makes its columns independent
        yield "singular leading block", [[m1, m1] + rows_of(1, n)[0], [one, one] + rows_of(1, n)[0],
                                         [m1, m2] + rows_of(1, n)[0]] + rows_of(n // 2, n + 2), n + 2
        # a = 0 with det = -1 != 0
        yield "a = 0, det != 0", [[field.zero, m1] + rows_of(1, n)[0],
                                  [m1, m2] + rows_of(1, n)[0]] + rows_of(n // 2, n + 2), n + 2
    for m in (3, 8, 14):
        base = [[entry() for _ in range(m)] for _ in range(5)]
        zero = [field.zero] * m
        twice = [field.add(u, v) for u, v in zip(base[0], base[1])]
        cols = [base[0], zero, base[0], base[1], zero, zero, twice, base[2], base[1], base[3], zero,
                base[4], base[4]]
        yield "zero and repeated columns", [list(row) for row in zip(*cols)], len(cols)
        rows = rows_of(m, m + 3)
        doubled = rows + [list(row) for row in rows]
        rng.shuffle(doubled)
        yield "duplicate rows", doubled, m + 3
    for m, n, r in ((5, 8, 3), (9, 12, 7), (12, 9, 5), (16, 16, 15), (20, 24, 19), (24, 20, 1)):
        yield f"{m}x{n} rank {r}", _product_of_rank(field, rng, m, n, r, entry), n
    for m, n in ((16, 16), (20, 24)):
        yield f"{m}x{n} random", rows_of(m, n), n
    # unit rows with a tail of -1 over rows of -1: each pivot lowers the tail
    # of the bottom rows by exactly (p - 1)^2, so 18 pivots pass any room;
    # the first bottom row reduces to zero, the others do not
    k, tail = 18, 4
    top = [[one if j == i else field.zero for j in range(k)] + [m1] * tail for i in range(k)]
    bottom = [[m1] * k + [field.from_fraction(k)] * tail] + [[m1] * k + rows_of(1, tail)[0]
                                                            for _ in range(2)]
    yield "(p - 1)^2 per pivot", top + bottom, k + tail
    for n in (1, 2, 7):
        yield f"1 x {n}", rows_of(1, n), n
        yield f"{n} x 1", rows_of(n, 1), 1
        yield f"1 x {n} zero lead", [[field.zero] + rows_of(1, n)[0]], n + 1
    yield "1 x 1 zero", [[field.zero]], 1


@pytest.mark.parametrize("field", PIVOT_FIELDS, ids=lambda f: f.spec_string())
def test_pivot_lists_match_reference_gauss_jordan(field):
    rng = random.Random(f"pivots/{field.spec_string()}")
    parities = set()
    for name, rows, n in _pivot_cases(field, rng):
        R, pivots = _reference_rref(field, rows, n)
        if name == "singular leading block":
            assert _det2(field, rows) == 0 and pivots[:2] == [0, 1], name
        if name == "a = 0, det != 0":
            assert rows[0][0] == 0 and _det2(field, rows) != 0, name
        parities.add(len(pivots) % 2)
        for given in (rows, _as_array(field, rows, n)):
            assert rank_profile(field, given, n) == pivots, name
            assert rref(field, given, n) == (R, pivots), name
    assert parities == {0, 1}


# -- over Q the elimination runs on Python ints: entries past int64 --------


def _huge_rational(rng):
    """A non-zero rational whose numerator and denominator lie in [2^65, 2^70)."""
    sign = rng.choice((1, -1))
    while True:
        q = Fraction(sign * rng.randrange(2**65, 2**70), rng.randrange(2**65, 2**70))
        if abs(q.numerator) > 2**64 and q.denominator > 2**64:
            return q


def _mixed(rows):
    """The rows with every integral entry as a plain int, the rest Fractions."""
    return [[v.numerator if v.denominator == 1 else v for v in row] for row in rows]


def test_q_elimination_on_entries_above_2_64():
    rng = random.Random("echelon/Q/huge")

    def entry():
        return _huge_rational(rng) if rng.random() < 0.8 else Q.zero

    cases = []
    for m, n in ((1, 4), (3, 3), (4, 6), (6, 4), (5, 5), (8, 3)):
        for r in sorted({1, min(m, n) - 1, min(m, n)} - {0}):
            rows = _product_of_rank(Q, rng, m, n, r, entry)
            cases.append((f"{m}x{n} rank {r}", _mixed(rows), n))
        # huge ints beside huge Fractions, and a row twice the first
        rows = [[rng.randrange(2**65, 2**70) if rng.random() < 0.4 else entry() for _ in range(n)]
                for _ in range(m)]
        cases.append((f"{m}x{n} random", rows + [[2 * v for v in rows[0]]], n))
    assert any(type(v) is int and abs(v) > 2**64 for _, rows, _ in cases for row in rows for v in row)
    for name, rows, n in cases:
        R, pivots = _reference_rref(Q, rows, n)
        for given in (rows, np.array(rows, dtype=object)):
            got_R, got_pivots = rref(Q, given, n)
            assert (got_R, got_pivots) == (R, pivots) and _canonical(Q, got_R), name
            assert rank(Q, given, n) == len(pivots), name
            K = kernel_basis(Q, given, n)
            assert K == _reference_kernel(Q, R, pivots, n) and _canonical(Q, K), name
            B = row_space_basis(Q, given, n)
            assert B == R[:len(pivots)] and _canonical(Q, B), name
