"""Bitstring arithmetic, the promised input set, and the target functions.

Inputs are fixed-length binary words indexed 1..n (position 1 first, matching
the usual x_1 ... x_n notation). A promise triple is three equal-length words
whose columns x_i y_i z_i each XOR to 1, i.e. every column is one of
001, 010, 100, 111. A two-party function is tabulated as row masks: rows[x]
has bit y set when f(x, y) = 1, with x and y the words' packed `bits`.
"""

from __future__ import annotations

from typing import Callable, Iterator

MAX_LENGTH = 32
MAX_ENUM_LENGTH = 16
MAX_TABLE_LENGTH = 8

# The four column patterns (x_i, y_i, z_i) allowed by the promise, in
# lexicographic order; enumeration order is defined by these codes.
LEGAL_COLUMNS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
# For random_promise_triple: top bytes with a code above 3, and a code byte's x_i or y_i digit.
_ABOVE_3 = bytes(range(128, 256))
_X_DIGIT, _Y_DIGIT = (bytes(48 + (b >> bit & 1) for b in range(256)) for bit in (6, 5))


class InvariantViolation(Exception):
    """A law the package checks while it runs does not hold.

    Raised explicitly rather than through `assert`, which `python -O` strips.
    """


class PromiseViolation(InvariantViolation):
    """An (x, y, z) triple breaks the bitwise column promise."""


_set = object.__setattr__


class FrozenValue:
    """An immutable value: its public __slots__ are its fields, set once by __init__.

    A "_" slot holds what __init__ derives from the fields. Equality, hashing, repr
    and pickling go by the fields in slot order, as a frozen dataclass's would;
    assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name[0] != "_"}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle would otherwise set slots, which __setattr__ refuses.
        return type(self), tuple(self._fields().values())


class BitString(FrozenValue):
    """Fixed-length binary word; bit i (1-indexed) is stored at 1 << (i-1)."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int) -> None:
        if type(length) is not int or not 1 <= length <= MAX_LENGTH:
            raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {length}")
        if type(bits) is not int:
            raise ValueError(f"bits must be an int, got {bits!r}")
        if not 0 <= bits < (1 << length):
            raise ValueError(f"bits 0x{bits:x} has set bits above length {length}")
        _set(self, "length", length)
        _set(self, "bits", bits)

    @classmethod
    def from_str(cls, text: str) -> "BitString":
        """Parse "011"-style text, position 1 first."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary string: {text!r}")
        return cls(len(text), int(text[::-1], 2))

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexError(f"bit index {i} outside 1..{self.length}")
        return (self.bits >> (i - 1)) & 1

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]

    def count_zeros(self) -> int:
        return self.length - self.bits.bit_count()


class PromiseTriple(FrozenValue):
    """Three equal-length words with every column in {001, 010, 100, 111}."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: BitString, y: BitString, z: BitString) -> None:
        n = x.length
        if y.length != n or z.length != n:
            raise PromiseViolation(f"lengths differ: {x.length}, {y.length}, {z.length}")
        # Column promise: x_i + y_i + z_i odd for every i, i.e. the XOR of the
        # three words is all-ones.
        all_ones = (1 << n) - 1
        bad = (x.bits ^ y.bits ^ z.bits) ^ all_ones
        if bad:
            i = bad.bit_length()  # highest offending column, 1-indexed
            raise PromiseViolation(
                f"column {i} is {x.bit(i)}{y.bit(i)}{z.bit(i)}, "
                "not one of 001/010/100/111"
            )
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    @classmethod
    def from_strs(cls, x: str, y: str, z: str) -> "PromiseTriple":
        return cls(BitString.from_str(x), BitString.from_str(y), BitString.from_str(z))

    @property
    def length(self) -> int:
        return self.x.length

    def __str__(self) -> str:
        return f"(x={self.x}, y={self.y}, z={self.z})"


def f_ghz(t: PromiseTriple) -> int:
    """XOR over i of x_i AND y_i AND z_i (the promise-game target)."""
    return (t.x.bits & t.y.bits & t.z.bits).bit_count() & 1


def enumerate_promise(n: int) -> Iterator[PromiseTriple]:
    """All 4^n promise triples of length n, lexicographic by column codes.

    Column codes index LEGAL_COLUMNS; column 1 varies slowest. n is checked at the call.
    """
    if type(n) is not int or not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_ENUM_LENGTH}, got {n}")
    return _promise_triples(n)


def _promise_triples(n: int) -> Iterator[PromiseTriple]:
    all_ones = (1 << n) - 1
    for combo in range(4**n):
        xb = yb = 0
        for i in range(n):
            # Column i+1 is the most significant base-4 digit first; see
            # random_promise_triple for the code's bits.
            code = (combo >> (2 * (n - 1 - i))) & 3
            xb |= (code >> 1) << i
            yb |= (code & 1) << i
        yield PromiseTriple(BitString(n, xb), BitString(n, yb), BitString(n, all_ones ^ xb ^ yb))


def random_promise_triple(n: int, rng) -> PromiseTriple:
    """Uniform random promise triple: each column drawn from LEGAL_COLUMNS."""
    if type(n) is not int or not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_LENGTH}, got {n}")
    # A column code c is what CPython's rng.randrange(4) returns: the top 3 bits of the next
    # 32-bit generator word, drawn again while above 3. getrandbits(32 * k) is the next k
    # words, the first lowest, so byte 3 of each little-endian word holds a code in bits 7-5,
    # and each pass reads the words a per-column loop would: every seeded draw stays the same.
    codes = b""
    while len(codes) < n:
        k = n - len(codes)
        codes += rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(None, _ABOVE_3)
    # LEGAL_COLUMNS[c] has x_i = c >> 1 (bit 6) and y_i = c & 1 (bit 5); z follows from the
    # promise. Reversed, column 1 is the last digit, so int() reads it as the lowest bit.
    xb, yb = (int(codes[::-1].translate(digit), 2) for digit in (_X_DIGIT, _Y_DIGIT))
    zb = ((1 << n) - 1) ^ xb ^ yb
    return PromiseTriple(BitString(n, xb), BitString(n, yb), BitString(n, zb))


def _two_party_rows(n: int, f: Callable[[int, int], int]) -> tuple[int, ...]:
    """rows[x] has bit y set when f(x, y) = 1, over all packed length-n words."""
    if type(n) is not int or not 1 <= n <= MAX_TABLE_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_TABLE_LENGTH}, got {n}")
    size = 1 << n
    return tuple(sum(f(x, y) << y for y in range(size)) for x in range(size))


def parity_table(n: int) -> tuple[int, ...]:
    """Parity of all bits of x and y, over all length-n words, as row masks."""
    return _two_party_rows(n, lambda x, y: (x ^ y).bit_count() & 1)


def inner_product_table(n: int) -> tuple[int, ...]:
    """XOR over i of x_i AND y_i, over all length-n words, as row masks."""
    return _two_party_rows(n, lambda x, y: (x & y).bit_count() & 1)
