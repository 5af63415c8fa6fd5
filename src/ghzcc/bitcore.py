"""Bitstring arithmetic, the promised input set, and the target functions.

Inputs are fixed-length binary words indexed 1..n (position 1 first, matching
the usual x_1 ... x_n notation). A promise triple is three equal-length words
whose columns x_i y_i z_i each XOR to 1, i.e. every column is one of
001, 010, 100, 111. A two-party function is tabulated as row masks: rows[x]
has bit y set when f(x, y) = 1, with x and y the words' packed `bits`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

MAX_LENGTH = 32
MAX_ENUM_LENGTH = 16
MAX_TABLE_LENGTH = 8

# The four column patterns (x_i, y_i, z_i) allowed by the promise, in
# lexicographic order; enumeration order is defined by these codes.
LEGAL_COLUMNS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))


class PromiseViolation(ValueError):
    """An (x, y, z) triple breaks the bitwise column promise."""


class InvariantViolation(Exception):
    """A law the package checks while it runs does not hold.

    Raised explicitly rather than through `assert`, which `python -O` strips.
    """


@dataclass(frozen=True)
class BitString:
    """Fixed-length binary word; bit i (1-indexed) is stored at 1 << (i-1)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bits 0x{self.bits:x} has set bits above length {self.length}")

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

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        return ((bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")[::-1]

    def parity(self) -> int:
        return self.bits.bit_count() & 1

    def count_ones(self) -> int:
        return self.bits.bit_count()

    def count_zeros(self) -> int:
        return self.length - self.bits.bit_count()


@dataclass(frozen=True)
class PromiseTriple:
    """Three equal-length words with every column in {001, 010, 100, 111}."""

    x: BitString
    y: BitString
    z: BitString

    def __post_init__(self) -> None:
        n = self.x.length
        if self.y.length != n or self.z.length != n:
            raise PromiseViolation(
                f"lengths differ: {self.x.length}, {self.y.length}, {self.z.length}"
            )
        # Column promise: x_i + y_i + z_i odd for every i, i.e. the XOR of the
        # three words is all-ones.
        all_ones = (1 << n) - 1
        bad = (self.x.bits ^ self.y.bits ^ self.z.bits) ^ all_ones
        if bad:
            i = bad.bit_length()  # highest offending column, 1-indexed
            raise PromiseViolation(
                f"column {i} is {self.x.bit(i)}{self.y.bit(i)}{self.z.bit(i)}, "
                "not one of 001/010/100/111"
            )

    @classmethod
    def from_strs(cls, x: str, y: str, z: str) -> "PromiseTriple":
        return cls(BitString.from_str(x), BitString.from_str(y), BitString.from_str(z))

    @property
    def length(self) -> int:
        return self.x.length

    def columns(self) -> Iterator[tuple[int, int, int]]:
        x, y, z = self.x.bits, self.y.bits, self.z.bits
        return (((x >> i) & 1, (y >> i) & 1, (z >> i) & 1) for i in range(self.length))

    def __str__(self) -> str:
        return f"(x={self.x}, y={self.y}, z={self.z})"


def _check_equal_lengths(x: BitString, y: BitString) -> None:
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")


def f_parity(x: BitString, y: BitString) -> int:
    """XOR of all bits of both words."""
    _check_equal_lengths(x, y)
    return (x.bits ^ y.bits).bit_count() & 1


def f_inner_product(x: BitString, y: BitString) -> int:
    """XOR over i of x_i AND y_i."""
    _check_equal_lengths(x, y)
    return (x.bits & y.bits).bit_count() & 1


def f_ghz(t: PromiseTriple) -> int:
    """XOR over i of x_i AND y_i AND z_i (the promise-game target)."""
    return (t.x.bits & t.y.bits & t.z.bits).bit_count() & 1


def enumerate_promise(n: int) -> Iterator[PromiseTriple]:
    """All 4^n promise triples of length n, lexicographic by column codes.

    Column codes index LEGAL_COLUMNS; column 1 varies slowest.
    """
    if not 1 <= n <= MAX_ENUM_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_ENUM_LENGTH}, got {n}")
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
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_LENGTH}, got {n}")
    # LEGAL_COLUMNS[c] has x_i = c >> 1 and y_i = c & 1; z follows from the promise.
    xb = yb = 0
    draw = rng.randrange
    for i in range(n):
        code = draw(4)
        xb |= (code >> 1) << i
        yb |= (code & 1) << i
    zb = ((1 << n) - 1) ^ xb ^ yb
    return PromiseTriple(BitString(n, xb), BitString(n, yb), BitString(n, zb))


def reduce_to_inner_product(t: PromiseTriple) -> tuple[BitString, BitString]:
    """Drop z from a length-3 promise triple; the game value becomes x.y.

    On the promise, z_i = 1 + x_i + y_i, so each AND column collapses to
    x_i AND y_i and the target equals the two-party inner product of (x, y).
    """
    if t.length != 3:
        raise ValueError(f"reduction is defined for length 3, got {t.length}")
    return t.x, t.y


def _two_party_rows(n: int, f: Callable[[int, int], int]) -> tuple[int, ...]:
    """rows[x] has bit y set when f(x, y) = 1, over all packed length-n words."""
    if not 1 <= n <= MAX_TABLE_LENGTH:
        raise ValueError(f"n must be in 1..{MAX_TABLE_LENGTH}, got {n}")
    size = 1 << n
    return tuple(sum(f(x, y) << y for y in range(size)) for x in range(size))


def parity_table(n: int) -> tuple[int, ...]:
    """f_parity over all pairs of length-n words, as row masks."""
    return _two_party_rows(n, lambda x, y: (x ^ y).bit_count() & 1)


def inner_product_table(n: int) -> tuple[int, ...]:
    """f_inner_product over all pairs of length-n words, as row masks."""
    return _two_party_rows(n, lambda x, y: (x & y).bit_count() & 1)
