"""Word arithmetic, the promise set, and the target functions.

Reference values are computed by string-level oracles (per-character sums)
that never touch the packed integer representation under test.
"""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghzcc.bitcore import (
    LEGAL_COLUMNS,
    MAX_TABLE_LENGTH,
    BitString,
    FrozenValue,
    PromiseTriple,
    PromiseViolation,
    enumerate_promise,
    f_ghz,
    inner_product_table,
    parity_table,
    random_promise_triple,
)
from oracles import columns, f_inner_product, f_parity, parity, reduce_to_inner_product


def ref_parity(x: str, y: str) -> int:
    return sum(int(c) for c in x + y) % 2


def ref_ip(x: str, y: str) -> int:
    return sum(int(a) * int(b) for a, b in zip(x, y)) % 2


def ref_ghz(x: str, y: str, z: str) -> int:
    return sum(int(a) * int(b) * int(c) for a, b, c in zip(x, y, z)) % 2


def bs(text: str) -> BitString:
    return BitString.from_str(text)


class TestBitString:
    def test_round_trip(self):
        for text in ("0", "1", "011", "10100", "1" * 32):
            assert str(bs(text)) == text

    def test_one_indexed_access(self):
        w = bs("011")
        assert (w.bit(1), w.bit(2), w.bit(3)) == (0, 1, 1)

    @pytest.mark.parametrize("i", [0, 4, -1, 33])
    def test_out_of_range_index_raises(self, i):
        with pytest.raises(IndexError):
            bs("011").bit(i)

    def test_length_limits(self):
        with pytest.raises(ValueError):
            BitString(0, 0)
        with pytest.raises(ValueError):
            BitString(33, 0)
        with pytest.raises(ValueError):
            BitString(2, 0b100)  # set bit above the declared length

    def test_counts(self):
        w = bs("10100")
        assert w.count_zeros() == 3
        assert parity(w) == 0

    def test_bad_text(self):
        with pytest.raises(ValueError):
            BitString.from_str("01a")
        with pytest.raises(ValueError):
            BitString.from_str("")


class TestParityFunction:
    def test_all_zero(self):
        assert f_parity(bs("000"), bs("000")) == 0

    def test_direct_values(self):
        # Frozen from the string oracle: 1+0+1 + 1+1+0 = 4 -> 0; 1+0+0 + 1+1+0 = 3 -> 1.
        assert ref_parity("101", "110") == 0
        assert f_parity(bs("101"), bs("110")) == 0
        assert ref_parity("100", "110") == 1
        assert f_parity(bs("100"), bs("110")) == 1

    def test_matches_oracle_exhaustively(self):
        for a in range(8):
            for b in range(8):
                x, y = format(a, "03b"), format(b, "03b")
                assert f_parity(bs(x), bs(y)) == ref_parity(x, y)

    def test_symmetric(self):
        for a in range(8):
            for b in range(8):
                x, y = bs(format(a, "03b")), bs(format(b, "03b"))
                assert f_parity(x, y) == f_parity(y, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f_parity(bs("01"), bs("011"))


class TestInnerProduct:
    def test_all_ones(self):
        assert f_inner_product(bs("111"), bs("111")) == 1  # 3 mod 2

    def test_direct_value(self):
        assert ref_ip("011", "101") == 1
        assert f_inner_product(bs("011"), bs("101")) == 1

    def test_zero_operand(self):
        for b in range(8):
            assert f_inner_product(bs("000"), bs(format(b, "03b"))) == 0

    def test_matches_oracle_exhaustively(self):
        for a in range(8):
            for b in range(8):
                x, y = format(a, "03b"), format(b, "03b")
                assert f_inner_product(bs(x), bs(y)) == ref_ip(x, y)

    def test_symmetric(self):
        for a in range(8):
            for b in range(8):
                x, y = bs(format(a, "03b")), bs(format(b, "03b"))
                assert f_inner_product(x, y) == f_inner_product(y, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            f_inner_product(bs("0"), bs("01"))


class TestPromiseTriple:
    def test_good_columns(self):
        PromiseTriple.from_strs("001", "001", "111")

    @pytest.mark.parametrize(
        "x,y,z",
        [("000", "000", "000"), ("111", "111", "110"), ("001", "001", "110")],
    )
    def test_bad_columns_rejected(self, x, y, z):
        with pytest.raises(PromiseViolation):
            PromiseTriple.from_strs(x, y, z)

    @pytest.mark.parametrize("column", ["000", "011", "101", "110"])
    def test_each_illegal_column_refused_at_each_position(self, column):
        # Every column type outside the promise, at every position of every
        # length up to 3, with each legal column filling the other positions.
        bad = tuple(map(int, column))
        for n in range(1, 4):
            for i in range(n):
                for filler in LEGAL_COLUMNS:
                    cols = [bad if j == i else filler for j in range(n)]
                    x, y, z = ("".join(str(c[k]) for c in cols) for k in range(3))
                    with pytest.raises(PromiseViolation, match=f"column {i + 1} is {column},"):
                        PromiseTriple.from_strs(x, y, z)

    def test_length_mismatch_rejected(self):
        with pytest.raises(PromiseViolation):
            PromiseTriple(bs("01"), bs("011"), bs("011"))

    def test_columns_iterate_in_order(self):
        t = PromiseTriple.from_strs("001", "010", "100")
        assert columns(t) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


class TestGhzFunction:
    def test_listed_values(self):
        assert f_ghz(PromiseTriple.from_strs("001", "001", "111")) == 1
        assert f_ghz(PromiseTriple.from_strs("001", "010", "100")) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_ones_is_n_mod_2(self, n):
        ones = "1" * n
        assert f_ghz(PromiseTriple.from_strs(ones, ones, ones)) == n % 2

    def test_matches_string_oracle_n3(self):
        for t in enumerate_promise(3):
            assert f_ghz(t) == ref_ghz(str(t.x), str(t.y), str(t.z))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_n_minus_k_mod_2(self, n):
        # k counts the AND-zero columns; the remaining n-k columns are 111
        # and each contributes 1 to the XOR. Column counting goes through
        # the string rendering, independent of the packed evaluation.
        for t in enumerate_promise(n):
            k = sum(
                1
                for a, b, c in zip(str(t.x), str(t.y), str(t.z))
                if (a, b, c) != ("1", "1", "1")
            )
            assert f_ghz(t) == (n - k) % 2


class TestEnumeratePromise:
    def test_n1_exact_order(self):
        triples = [(str(t.x), str(t.y), str(t.z)) for t in enumerate_promise(1)]
        assert triples == [("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")]

    @pytest.mark.parametrize("n,count", [(1, 4), (2, 16), (3, 64)])
    def test_cardinality(self, n, count):
        assert sum(1 for _ in enumerate_promise(n)) == count

    def test_no_duplicates_and_all_valid(self):
        seen = set()
        for t in enumerate_promise(3):
            key = (t.x.bits, t.y.bits, t.z.bits)
            assert key not in seen
            seen.add(key)
            for col in columns(t):
                assert col in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
        assert len(seen) == 64

    def test_lexicographic_by_column_codes(self):
        codes = {(0, 0, 1): 0, (0, 1, 0): 1, (1, 0, 0): 2, (1, 1, 1): 3}
        sequences = [tuple(codes[c] for c in columns(t)) for t in enumerate_promise(2)]
        assert sequences == sorted(sequences)

    @pytest.mark.parametrize("n", [0, -3, 17])
    def test_range_errors(self, n):
        # Raised by the call itself, before anything iterates the result.
        with pytest.raises(ValueError, match=f"got {n}$"):
            enumerate_promise(n)

    def test_triples_are_built_as_iterated(self):
        # 4^16 triples: a call that built them all would not return.
        triples = enumerate_promise(16)
        assert str(next(triples).z) == "1" * 16


class TestRandomPromiseTriple:
    def test_valid_and_seeded(self):
        rng = random.Random(7)
        triples = [random_promise_triple(12, rng) for _ in range(50)]
        again = random.Random(7)
        assert triples == [random_promise_triple(12, again) for _ in range(50)]

    def test_covers_all_columns(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(200):
            seen.update(columns(random_promise_triple(4, rng)))
        assert seen == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}

    def test_large_n(self):
        t = random_promise_triple(32, random.Random(3))
        assert t.length == 32


@pytest.mark.parametrize("n", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "build, text",
    [(lambda n: BitString(n, 1), "length must be in 1..32"),
     (enumerate_promise, "n must be in 1..16"),
     (lambda n: random_promise_triple(n, random.Random(0)), "n must be in 1..32"),
     (inner_product_table, "n must be in 1..8")],
    ids=["BitString", "enumerate_promise", "random_promise_triple", "inner_product_table"],
)
def test_a_length_that_is_not_an_int_is_refused(build, text, n):
    # True equals 1 and passes a range check, yet str(BitString(True, 1))
    # raises on the format spec "0Trueb": a length must be an int itself.
    with pytest.raises(ValueError, match=f"^{text}, got {n}$"):
        build(n)


# Each bad construction with the error it raises, type and text.
BAD_VALUES = (
    ("BitString(0, 0)", "ValueError: length must be in 1..32, got 0"),
    ("BitString(33, 0)", "ValueError: length must be in 1..32, got 33"),
    ("BitString(2, 4)", "ValueError: bits 0x4 has set bits above length 2"),
    ("BitString(1, 1.0)", "ValueError: bits must be an int, got 1.0"),
    ("BitString(2, True)", "ValueError: bits must be an int, got True"),
    (
        "PromiseTriple(BitString(2, 0), BitString(3, 0), BitString(3, 7))",
        "PromiseViolation: lengths differ: 2, 3, 3",
    ),
    (
        "PromiseTriple.from_strs('001', '001', '110')",
        "PromiseViolation: column 3 is 110, not one of 001/010/100/111",
    ),
)

# Prints each BAD_VALUES construction's error; run both in-process and under -O.
CONSTRUCTION_ERRORS = f"""
from ghzcc.bitcore import BitString, InvariantViolation, PromiseTriple
for source in {[source for source, _ in BAD_VALUES]!r}:
    try:
        eval(source)
        print("accepted " + source)
    except (ValueError, InvariantViolation) as exc:
        print(f"{{type(exc).__name__}}: {{exc}}")
"""


_STAMPS = itertools.count()


class Stamped(FrozenValue):
    """A FrozenValue with one field and a derived slot that no field decides."""

    __slots__ = ("value", "_stamp")

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_stamp", next(_STAMPS))


class TestValueTypes:
    """BitString and PromiseTriple behave as frozen values."""

    def values(self):
        t = PromiseTriple.from_strs("001", "001", "111")
        return (bs("101"), t)

    def test_fields_refuse_assignment_and_deletion(self):
        for value in self.values():
            for name in (*type(value).__slots__, "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, 0)
                with pytest.raises(AttributeError):
                    delattr(value, name)
        w = bs("101")
        with pytest.raises(AttributeError, match="cannot assign to field 'bits'"):
            w.bits = 0
        assert (w.length, w.bits) == (3, 5)

    def test_equality_and_hash_go_by_fields(self):
        w, t = self.values()
        assert BitString(3, 5) == w and hash(w) == hash((3, 5))
        assert BitString(3, 5) != (3, 5)
        assert BitString(3, 5) != BitString(4, 5)
        assert BitString(3, 5) != BitString(3, 4)
        assert t == PromiseTriple(BitString(3, 4), BitString(3, 4), BitString(3, 7))
        assert hash(t) == hash((t.x, t.y, t.z))
        assert t != (t.x, t.y, t.z)
        assert len({w, BitString(3, 5), t}) == 2

    def test_repr(self):
        w, t = self.values()
        assert repr(w) == "BitString(length=3, bits=5)"
        assert repr(t) == (
            "PromiseTriple(x=BitString(length=3, bits=4), "
            "y=BitString(length=3, bits=4), z=BitString(length=3, bits=7))"
        )

    def test_copy_and_pickle_round_trip(self):
        for value in self.values():
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value

    def test_derived_slots_are_not_fields(self):
        # Two equal Stamped values differ in their derived "_stamp" slot.
        first, second = Stamped(1), Stamped(1)
        assert first._stamp < second._stamp
        assert first == second and hash(first) == hash(second) == hash((1,))
        assert repr(first) == "Stamped(value=1)"
        # A copy or an unpickled value is rebuilt through __init__.
        for copied in (copy.copy(first), pickle.loads(pickle.dumps(first))):
            assert copied == first and copied._stamp > second._stamp

    def test_validation_error_texts(self, capsys):
        exec(CONSTRUCTION_ERRORS, {})
        assert capsys.readouterr().out.splitlines() == [error for _, error in BAD_VALUES]

    def test_validation_survives_optimized_mode(self):
        # python -O strips assert statements; every rejection must remain.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CONSTRUCTION_ERRORS],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [error for _, error in BAD_VALUES]


class TestReduction:
    def test_listed_example(self):
        t = PromiseTriple.from_strs("001", "001", "111")
        x, y = reduce_to_inner_product(t)
        assert f_inner_product(x, y) == 1 == f_ghz(t)

    def test_trivial_zero(self):
        t = PromiseTriple.from_strs("000", "000", "111")
        x, y = reduce_to_inner_product(t)
        assert f_inner_product(x, y) == 0 == f_ghz(t)

    def test_all_64_triples(self):
        for t in enumerate_promise(3):
            x, y = reduce_to_inner_product(t)
            assert f_inner_product(x, y) == f_ghz(t)

    def test_wrong_length_rejected(self):
        t = PromiseTriple.from_strs("0011", "0101", "1001")
        with pytest.raises(ValueError):
            reduce_to_inner_product(t)


class TestTwoPartyRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "make_rows,f", [(parity_table, f_parity), (inner_product_table, f_inner_product)]
    )
    def test_rows_match_functions(self, make_rows, f, n):
        rows = make_rows(n)
        assert len(rows) == 1 << n
        words = [BitString(n, v) for v in range(1 << n)]
        for x in words:
            assert 0 <= rows[x.bits] < 1 << len(rows)
            for y in words:
                assert (rows[x.bits] >> y.bits) & 1 == f(x, y), (str(x), str(y))

    def test_inner_product_direct_value(self):
        assert (inner_product_table(3)[bs("011").bits] >> bs("101").bits) & 1 == 1

    def test_longest_length(self):
        assert len(parity_table(MAX_TABLE_LENGTH)) == 1 << MAX_TABLE_LENGTH

    @pytest.mark.parametrize("n", [0, -1, MAX_TABLE_LENGTH + 1])
    def test_length_outside_range_rejected(self, n):
        for make_rows in (parity_table, inner_product_table):
            with pytest.raises(ValueError):
                make_rows(n)


# Per-bit reference definitions: the packed helpers in bitcore must agree
# with these on every input they are checked on.
def per_bit_iter(w: BitString) -> list[int]:
    return [w.bit(i) for i in range(1, w.length + 1)]


def per_bit_str(w: BitString) -> str:
    return "".join(str(b) for b in per_bit_iter(w))


def per_char_from_str(text: str) -> BitString:
    bits = 0
    for i, ch in enumerate(text):
        if ch == "1":
            bits |= 1 << i
    return BitString(len(text), bits)


def per_bit_columns(t: PromiseTriple) -> list[tuple[int, int, int]]:
    return [(t.x.bit(i), t.y.bit(i), t.z.bit(i)) for i in range(1, t.length + 1)]


def per_column_triple(codes) -> PromiseTriple:
    xb = yb = zb = 0
    for i, code in enumerate(codes):
        cx, cy, cz = LEGAL_COLUMNS[code]
        xb |= cx << i
        yb |= cy << i
        zb |= cz << i
    n = len(codes)
    return PromiseTriple(BitString(n, xb), BitString(n, yb), BitString(n, zb))


def per_column_random_triple(n: int, rng) -> PromiseTriple:
    return per_column_triple([rng.randrange(4) for _ in range(n)])


def per_column_enumeration(n: int) -> list[PromiseTriple]:
    # Column 1 is the most significant base-4 digit.
    return [
        per_column_triple([(combo >> (2 * (n - 1 - i))) & 3 for i in range(n)])
        for combo in range(4**n)
    ]


class TestPackedHelpersMatchPerBitOracle:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_word(self, n):
        for bits in range(1 << n):
            w = BitString(n, bits)
            assert str(w) == per_bit_str(w)
            assert BitString.from_str(str(w)) == per_char_from_str(str(w)) == w

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_triple(self, n):
        triples = list(enumerate_promise(n))
        assert triples == per_column_enumeration(n)
        for t in triples:
            assert columns(t) == per_bit_columns(t)

    def test_random_n32(self):
        rng = random.Random(32)
        for _ in range(300):
            w = BitString(32, rng.getrandbits(32))
            assert str(w) == per_bit_str(w)
            assert per_char_from_str(str(w)) == w
            t = random_promise_triple(32, rng)
            assert columns(t) == per_bit_columns(t)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_random_triple_and_rng_state_match_per_column_loop(self, n):
        for seed in range(40):
            packed_rng, loop_rng = random.Random(seed), random.Random(seed)
            assert random_promise_triple(n, packed_rng) == per_column_random_triple(n, loop_rng)
            assert packed_rng.getstate() == loop_rng.getstate()
