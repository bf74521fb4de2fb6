"""Exact coefficient fields and the dense linear algebra built on them.

Two field kinds are supported: a prime field F_p (default p = 32003) and
arbitrary-precision rationals. Field elements are stored in canonical form
as plain ints (residues in [0, p)) or `fractions.Fraction` values; the field
object carries the arithmetic.

The field also owns the one matrix format: `array(rows)` gives int64
residues in [0, p) over F_p and an object array of Fractions over Q, and
`reduce(A)` brings entries back to canonical form after array arithmetic
(A % p over F_p, nothing over Q). Callers build, add and multiply matrices
in that format without asking which field they hold; a matrix product of
residues, whose inner sums overflow int64 at large p, goes through
`matmul`. One elimination routine, `_echelon`, row-reduces both; `rank`,
`rank_profile`, `rref`, `kernel_basis` and `row_space_basis` accept lists
or arrays and return an int, a list of column indices or lists of
canonical field elements.

`rref`, `kernel_basis` and `row_space_basis` run full Gauss-Jordan, and
`kernel_basis` reads the kernel off the RREF with `_perp`. `_kernel`
gives that kernel as an array, with its free columns, to the vanishing
ideal's degree-d forms and the values' annihilators (`gradus.points`),
theta's colon kernels (`gradus.hom`) and the meets of
`ideal_intersection` (`gradus.groebner`). `rank` and `rank_profile` run
`_echelon`'s rank mode, which eliminates below the pivots only: row
operations change neither the rank nor which columns depend on the ones
left of them.

On int64 residues a step takes two pivots when the leading 2 x 2 block of
the trailing matrix is invertible mod p: its inverse, adj/det on Python
ints, gives both pivot rows, and one rank-2 update (a matrix product)
clears both columns, for about the numpy calls of one pivot. Otherwise it
takes one. Both modes defer the `% p` of the updated block until the next
update could overflow int64, the delayed reduction of FFLAS-FFPACK (Dumas,
Giorgi & Pernet, ACM TOMS 35(3), 2008): a k-pivot step lowers an entry by
at most k (p - 1)^2, and an entry in [0, p) has room for
(2^63 - 1) // (p - 1)^2 such units, 2 at p = 2^31 - 1 (a reduction before
every two-pivot step), 8 at p = 1073741789, ~9e9 at p = 32003. The full
mode reduces once at the end.

Over Q, `_echelon` creates no Fraction inside its loop. It scales each row
by the lcm of its denominators and divides it by its content, giving a
primitive row of Python ints (`integer_rows`), and eliminates fraction-free:
a row r with entry b under a pivot a of pivot row q becomes a*r - b*q,
divided by its content again (`primitive_rows`), the integer-preserving
elimination of Bareiss (Math. Comp. 22, 1968) with the gcd taken per row.
Only the output of the full mode turns each pivot row into monic Fractions,
so `rref`, `kernel_basis` and `row_space_basis` return the same canonical
Fractions as a Fraction elimination would.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .errors import ParseError

DEFAULT_PRIME = 32003

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p arithmetic on canonical residues in [0, p)."""

    __slots__ = ("p",)
    kind = "prime"

    def __init__(self, p: int = DEFAULT_PRIME):
        if not (2 < p < 2**31):
            raise ValueError(f"prime field characteristic out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    zero = 0
    one = 1

    def normalize(self, x: int) -> int:
        return x % self.p

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(int(a), -1, self.p)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.p

    def array(self, rows) -> np.ndarray:
        """Rows (lists or an array) as a fresh int64 array of residues."""
        return np.array(rows, dtype=np.int64) % self.p

    def reduce(self, A: np.ndarray) -> np.ndarray:
        """Residues of an int64 array whose entries lie in (-2^63, 2^63)."""
        return A % self.p

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The residues of A @ B for residue arrays A and B, exact at every
        p: the inner sum runs in chunks of (2^63 - 1) // (p - 1)^2 terms,
        which int64 holds unreduced, and each chunk is reduced before it is
        added (2 terms a chunk at p = 2^31 - 1, one chunk at p = 32003)."""
        p = self.p
        room = (2**63 - 1) // (p - 1) ** 2
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(0, A.shape[1], room):
            out = (out + A[:, k:k + room] @ B[k:k + room] % p) % p
        return out

    def from_fraction(self, q: Fraction | int) -> int:
        if isinstance(q, Fraction):
            return self.div(q.numerator % self.p, q.denominator % self.p)
        return q % self.p

    def balanced(self, a: int) -> int:
        """Symmetric representative in (-p/2, p/2], used only for printing."""
        a %= self.p
        return a if a <= self.p // 2 else a - self.p

    def scalar_str(self, a: int) -> str:
        return str(self.balanced(a))

    def parse_scalar(self, text: str) -> int:
        text = text.strip()
        if text.isdecimal():  # a plain integer needs no Fraction
            return int(text) % self.p
        try:
            return self.from_fraction(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad F_{self.p} scalar {text!r}: {exc}") from None

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def spec_string(self) -> str:
        return str(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


_fractions = np.frompyfunc(Fraction, 1, 1)


class RationalField:
    """Exact rational arithmetic on fully reduced Fractions."""

    __slots__ = ()
    kind = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def is_zero(self, a) -> bool:
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return Fraction(a) / b

    def array(self, rows) -> np.ndarray:
        """Rows (lists or an array) as a fresh object array of Fractions."""
        return _fractions(np.array(rows, dtype=object))

    def reduce(self, A: np.ndarray) -> np.ndarray:
        """Fraction arithmetic is exact already: A itself."""
        return A

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B in object arithmetic, exact already."""
        return A @ B

    def from_fraction(self, q):
        return Fraction(q)

    def scalar_str(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str) -> Fraction:
        text = text.strip()
        if text.isdecimal():
            return Fraction(int(text))
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}: {exc}") from None

    def random(self, rng) -> Fraction:
        return Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))

    def spec_string(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


Field = PrimeField | RationalField


def field_from_string(text: str) -> Field:
    """Parse the CLI/JSON field spec: a prime such as "32003", or "Q"."""
    text = text.strip()
    if text.upper() in ("Q", "QQ", "RATIONAL"):
        return RationalField()
    try:
        p = int(text)
    except ValueError:
        raise ParseError(f"bad field spec {text!r}: expected a prime or 'Q'") from None
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise ParseError(f"bad field spec {text!r}: {exc}") from None


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field; the checked public face of
    the raw int/Fraction representation used in hot loops."""

    field: Field
    value: object

    def _join(self, other: "Scalar") -> Field:
        if not isinstance(other, Scalar):
            raise TypeError(f"cannot mix Scalar with {type(other).__name__}")
        if other.field != self.field:
            raise ValueError(f"mixed fields: {self.field!r} vs {other.field!r}")
        return self.field

    def __add__(self, other):
        return Scalar(self.field, self._join(other).add(self.value, other.value))

    def __sub__(self, other):
        return Scalar(self.field, self._join(other).sub(self.value, other.value))

    def __mul__(self, other):
        return Scalar(self.field, self._join(other).mul(self.value, other.value))

    def __truediv__(self, other):
        return Scalar(self.field, self._join(other).div(self.value, other.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __str__(self):
        return self.field.scalar_str(self.value)


def field_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Checked scalar arithmetic: op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan elimination: rank / rref / kernel over either field kind,
# on the field's matrix format, with first-nonzero pivoting.
# ---------------------------------------------------------------------------


def _matrix(field: Field, rows, ncols: int | None) -> np.ndarray:
    """The rows (lists or an array) as a fresh 2-D array for `_echelon`: the
    field's format over F_p, the entries as given (Fractions or ints) over Q."""
    A = field.array(rows) if field.kind == "prime" else np.array(rows, dtype=object)
    return A if A.ndim == 2 else A.reshape(0, ncols or 0)  # no rows


_numerators = np.frompyfunc(attrgetter("numerator"), 1, 1)
_denominators = np.frompyfunc(attrgetter("denominator"), 1, 1)
_ratios = np.frompyfunc(Fraction, 2, 1)


def primitive_rows(A: np.ndarray) -> np.ndarray:
    """A 2-D object array of Python ints with each row divided, in place, by
    its content (the gcd of its entries); zero rows stay zero."""
    content = np.gcd.reduce(A, axis=1)
    big = np.flatnonzero(content > 1)
    if big.size:
        A[big] //= content[big, None]
    return A


def integer_rows(A: np.ndarray) -> np.ndarray:
    """Primitive rows of Python ints, each a positive multiple of the
    corresponding row of a 2-D object array of rationals (Fractions or ints):
    the row times the lcm of its denominators, divided by its content."""
    den = _denominators(A)
    scale = np.lcm.reduce(den, axis=1, initial=1)
    return primitive_rows(_numerators(A) * (scale[:, None] // den))


def _echelon(A: np.ndarray, field: Field, rank_only: bool = False) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of A (overwritten) and its pivot columns,
    or with `rank_only` the pivot columns alone.

    On int64 residues `_echelon_mod` does the work. Over Q the rows are
    primitive integer rows (module docstring), and each pivot clears its
    column with one rank-1 update of the rows with a non-zero entry in it:
    each becomes a*row - b*pivot_row and is divided by its content. The
    pivot rows become monic Fractions once, at the end. With `rank_only`
    the returned rows mean nothing, and only the rows below the pivot are
    updated, on the columns right of it.
    """
    if A.dtype != object:
        return _echelon_mod(A, field.p, rank_only)
    m, n = A.shape
    A = integer_rows(A)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        col = A[:, c].copy()
        col[r] = 0
        if rank_only:
            col[:r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            span = slice(c + 1 if rank_only else 0, n)
            A[hit, span] = primitive_rows(A[r, c] * A[hit, span] - np.outer(col[hit], A[r, span]))
        pivots.append(c)
        r += 1
    if not rank_only:
        out = np.full((m, n), RationalField.zero, dtype=object)
        rows, cols = A[:r].nonzero()  # zeros stay the shared Fraction(0)
        out[rows, cols] = _ratios(A[rows, cols], A[rows, np.array(pivots, dtype=np.intp)[rows]])
        A = out
    return A, pivots


def _echelon_mod(A: np.ndarray, p: int, rank_only: bool) -> tuple[np.ndarray, list[int]]:
    """`_echelon` on int64 residues mod p, one or two pivots a step (module
    docstring). A two-pivot step sets rows r, r+1 to P = B^-1 A[r:r+2] mod p,
    B = A[r:r+2, c:c+2] mod p; a one-pivot step takes the first row i >= r
    non-zero in column c, P = A[i] / A[i, c], and moves row r's content to
    row i. The update subtracts (A[:, c:c+k] mod p) @ P: in rank mode from
    the rows below, right of the pivots; else from every row, on the
    columns from c on, the pivot rows then set to P.
    """
    m, n = A.shape
    room, pending = (2**63 - 1) // (p - 1) ** 2, 0
    pivots: list[int] = []
    r = c = 0
    while r < m and c < n:
        C = A[:, c:c + 2] % p
        det = 0
        if r + 1 < m and c + 1 < n:
            (a, b), (e, f) = C[r:r + 2].tolist()
            det = (a * f - b * e) % p
        if det:
            i, k, inv = r, 2, pow(det, -1, p)
            T = np.array([[f * inv, -b * inv], [-e * inv, a * inv]]) % p
        else:
            nz = C[r:, 0].nonzero()[0]
            if not nz.size:  # jump to the next column with a non-zero entry
                live = (A[r:, c + 1:] % p).any(axis=0).nonzero()[0]
                if not live.size:
                    break
                c += 1 + int(live[0])
                continue
            i = r + int(nz[0])
            k, T = 1, np.array([[pow(int(C[i, 0]), -1, p)]])
        lo = c + k if rank_only else c
        P = T @ (A[i:i + k, lo:] % p) % p
        if i != r:  # row r moves to row i, whose content became P
            A[i, lo:] = A[r, lo:]
            C[i] = C[r]
        if pending + k > room:
            A[r + k if rank_only else 0:, lo:] %= p
            pending = 0
        if rank_only:
            A[r + k:, lo:] -= C[r + k:, :k] @ P
        else:
            C[r:r + k] = 0
            A[:, lo:] -= C[:, :k] @ P
            A[r:r + k, lo:] = P
        pending += k
        pivots += range(c, c + k)
        r += k
        c += k
    if not rank_only:
        A %= p
    return A, pivots


def rref(field: Field, rows, ncols: int | None = None):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    A, pivots = _echelon(_matrix(field, rows, ncols), field)
    return A.tolist(), pivots


def rank_profile(field: Field, rows, ncols: int | None = None) -> list[int]:
    """The pivot columns of `_echelon`'s rank mode, ascending. Column c is one
    exactly when it is not in the span of the columns left of it, so the
    pivots below k number the rank of the first k columns. A matrix with no
    rows is not eliminated: it has no pivots."""
    A = _matrix(field, rows, ncols)
    return _echelon(A, field, rank_only=True)[1] if len(A) else []


def rank(field: Field, rows, ncols: int | None = None) -> int:
    return len(rank_profile(field, rows, ncols))


def _zeros(field: Field, m: int, n: int) -> np.ndarray:
    """An m x n zero matrix in the field's format, of canonical zeros."""
    if field.kind == "prime":
        return np.zeros((m, n), dtype=np.int64)
    return np.full((m, n), field.zero, dtype=object)


def _free(pivots: list[int], n: int) -> np.ndarray:
    """The columns of 0..n-1 that are not pivots, ascending."""
    mask = np.ones(n, dtype=bool)
    mask[pivots] = False
    return np.flatnonzero(mask)


def _perp(field: Field, R: np.ndarray, pivots: list[int], n: int) -> np.ndarray:
    """Rows spanning the orthogonal complement of the row space of reduced
    echelon rows R with pivot columns `pivots` and n columns, one per other
    column f: 1 in column f and -R[:, f] in the pivot columns. For the RREF
    of a matrix it is a basis of its kernel. Over Q only the non-zero
    entries are negated."""
    free = _free(pivots, n)
    N = _zeros(field, free.size, n)
    N[np.arange(free.size), free] = field.one
    T = R[:len(pivots), free].T
    if field.kind == "prime":
        N[:, pivots] = field.reduce(-T)
    else:
        rows, cols = T.nonzero()
        N[rows, np.asarray(pivots, dtype=np.intp)[cols]] = -T[rows, cols]
    return N


def _kernel(field: Field, rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel {v : M v = 0} of the row matrix M with n columns, as the
    array `_perp` reads off its RREF, and its free columns F: the kernel
    rows hold the identity on F, so v in the kernel is v[F] times them. A
    matrix with no rows is not eliminated: its kernel is the unit matrix."""
    A = _matrix(field, rows, n)
    R, pivots = _echelon(A, field) if len(A) else (A, [])
    return _perp(field, R, pivots, n), _free(pivots, n)


def kernel_basis(field: Field, rows, ncols: int | None = None) -> list[list]:
    """Basis of the right null space {v : M v = 0} of the given row matrix,
    `_kernel` as lists. An empty row list (with ncols given) has the full
    space as kernel.
    """
    if ncols is None:
        if not len(rows):
            raise ValueError("kernel_basis needs ncols when the matrix has no rows")
        ncols = len(rows[0])
    return _kernel(field, rows, ncols)[0].tolist()


def row_space_basis(field: Field, rows, ncols: int | None = None) -> list[list]:
    """Basis (in rref form) of the span of the given rows."""
    if not len(rows):
        return []
    R, pivots = rref(field, rows, ncols)
    return R[:len(pivots)]
