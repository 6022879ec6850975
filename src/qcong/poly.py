"""Exact dense univariate polynomials over arbitrary-precision integers.

A polynomial is stored as a tuple of coefficients in ascending degree order,
so ``IntPoly((1, 0, 2))`` is ``1 + 2q^2``.  Canonical form: the last stored
coefficient is nonzero, and the zero polynomial is the empty tuple.  Values
are immutable and hashable, hence safe to share across threads; every
operation returns a new polynomial.

Products are computed by Kronecker substitution: both factors are packed at
q = 2^(8w), coefficient i the i-th little-endian w-byte digit, the integers
are multiplied once (by CPython, in C, by Karatsuba for large operands), and
`_digits`, the one reader of this format, the triangles' too, reads them
back.  No product coefficient exceeds max|a| * max|b| * min(len a, len b) in
absolute value, and w is chosen so that this bound plus a sign bit fits in a
slot: slots never overlap and the result is the exact schoolbook product.

>>> p = IntPoly((1, 1))
>>> print(p * p)
1 + 2q + q^2
>>> print(p - p)
0
"""

from collections.abc import Iterable


class SizeLimitExceeded(ValueError):
    """A request past the memory or the work limit, refused before it is built."""


# What one request may take: its estimated peak bytes, and its steps, each a
# machine-word operation or a permutation prefix.
MEMORY_LIMIT = 1 << 30
WORK_LIMIT = 10**9


def refuse(what: str, peak_bytes: int, steps: int) -> None:
    """The one size guard: each builder calls it with its own two estimates
    before it allocates anything, and `what` is refused past either limit."""
    if peak_bytes > MEMORY_LIMIT or steps > WORK_LIMIT:
        limit = f"{MEMORY_LIMIT >> 20} MB" if peak_bytes > MEMORY_LIMIT else f"{WORK_LIMIT:,} steps"
        raise SizeLimitExceeded(f"{what} would take more than the limit of {limit}")


def _as_poly(value) -> "IntPoly | None":
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,))
    return None


def _bias(width: int, count: int) -> int:
    """2^(8*width-1) in each of `count` slots of `width` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """The value at q = 2^(8*width) of coefficients below 2^(8*width-1).

    Each coefficient is biased into a digit in (0, 2^(8*width)), so one join
    of fixed-width bytes packs them all; the bias is then taken off at once.
    """
    half = 1 << (8 * width - 1)
    digits = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(digits, "little") - _bias(width, len(coeffs))


def _digits(packed: int, width: int, count: int, half: int = 0) -> list[int]:
    """The first `count` `width`-byte digits of `packed`, each less `half`."""
    raw = packed.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the product of two nonzero coefficient tuples.

    The slot width is the fewest bytes w with the coefficient bound below
    2^(8w-1); adding 2^(8w-1) to every slot then makes each one a digit in
    (0, 2^(8w)), read back from the biased product.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1
    n = len(a) + len(b) - 1
    product = _pack(a, width) * _pack(b, width) + _bias(width, n)
    return _digits(product, width, n, 1 << (8 * width - 1))


class IntPoly:
    """A univariate polynomial with integer coefficients in the variable q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # a tuple argument is kept, and sliced only to trim trailing zeros
        cs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        self.coeffs = cs if end == len(cs) else cs[:end]

    # basic queries --------------------------------------------------------

    def degree(self) -> int:
        """Degree of the leading term; -1 is the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    # ring operations -------------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "IntPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        return IntPoly(_kronecker_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    # division ---------------------------------------------------------------

    def _divmod(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and canonical remainder by a monic divisor, by long division.

        The divisor must be monic, and is not checked: the one caller,
        `residues.inject`, divides by Phi_m.  Then every quotient coefficient
        is an integer, and the remainder r is the unique one with
        degree(r) < degree(divisor) and self = quotient * divisor + r.

        >>> print(*IntPoly((-1, 0, 1))._divmod(IntPoly((1, 1))), sep=" | ")
        -1 + q | 0
        """
        dn, dd = self.degree(), divisor.degree()
        if dn < dd:
            return IntPoly(), self
        # Only the nonzero terms subtract anything, and Phi_m has few.
        terms = [(i, c) for i, c in enumerate(divisor.coeffs) if c]
        rem = list(self.coeffs)
        quot = [0] * (dn - dd + 1)
        for shift in range(dn - dd, -1, -1):
            t = rem[shift + dd]
            if t == 0:
                continue
            quot[shift] = t
            for i, c in terms:
                rem[shift + i] -= t * c
        return IntPoly(quot), IntPoly(rem)

    def rem_binomial(self, d: int) -> "IntPoly":
        """Canonical remainder modulo 1 + q^d.

        Since q^d = -1 in the quotient, the coefficient of q^(i*d + r) folds
        onto q^r with the sign (-1)^i: one pass over the coefficients, with
        no long division.

        >>> print(IntPoly((1, 0, 0, 0, 1)).rem_binomial(2))
        2
        """
        if d < 1:
            raise ValueError("binomial modulus needs d >= 1")
        cs = self.coeffs
        if len(cs) <= d:
            return self
        step = 2 * d
        return IntPoly([sum(cs[r::step]) - sum(cs[r + d :: step]) for r in range(d)])

    # specializations ----------------------------------------------------------

    def shift(self, j: int) -> "IntPoly":
        """The product q^j * self, without a multiplication.

        >>> print(IntPoly((1, 1)).shift(2))
        q^2 + q^3
        """
        if j < 0:
            raise ValueError("shift must be nonnegative")
        if j == 0 or not self.coeffs:
            return self
        return IntPoly((0,) * j + self.coeffs)

    def substitute_power(self, k: int) -> "IntPoly":
        """The polynomial a(q^k).

        >>> print(IntPoly((0, 1, 1)).substitute_power(2))
        q^2 + q^4
        """
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        if k == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return IntPoly(out)

    # comparisons and rendering -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # Constants hash like their int value so p == n implies equal hashes.
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
