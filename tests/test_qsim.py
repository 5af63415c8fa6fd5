"""Exact statevector behavior: amplitudes, Hadamards, supports, sampling."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from ghzcc import qsim
from ghzcc.bitcore import InvariantViolation
from ghzcc.qsim import (
    BASIS,
    PARTIES,
    TripleState,
    apply_hadamard,
    mermin_state,
    sample_outcome,
    transformed_state,
)
from oracles import basis, outcome_law, sample_by_thresholds, support

LEGAL_COLUMNS = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
# The shared triple and the four states a column is drawn from.
SAMPLED_STATES = (mermin_state(), *map(transformed_state, LEGAL_COLUMNS))
SAMPLED_IDS = ("mermin", *("".join(map(str, column)) for column in LEGAL_COLUMNS))

# Amplitude pairs (p, q) mean p/2 + q/(2*sqrt(2)).
HALF = (1, 0)
MINUS_HALF = (-1, 0)
ZERO = (0, 0)


def amplitude(state: TripleState, b: str):
    return state.amps[int(b, 2)]


def probability(state: TripleState, b: str) -> Fraction:
    return Fraction(state.weights[int(b, 2)], 8)


class TestMerminState:
    def test_exact_amplitudes(self):
        state = mermin_state()
        assert amplitude(state, "001") == HALF
        assert amplitude(state, "010") == HALF
        assert amplitude(state, "100") == HALF
        assert amplitude(state, "111") == MINUS_HALF
        for absent in ("000", "011", "101", "110"):
            assert amplitude(state, absent) == ZERO

    def test_support(self):
        assert support(mermin_state()) == {"001", "010", "100", "111"}

    def test_probabilities_quarter_each(self):
        state = mermin_state()
        for b in ("001", "010", "100", "111"):
            assert probability(state, b) == Fraction(1, 4)


class TestHadamard:
    def test_involution_on_every_party(self):
        state = mermin_state()
        for party in PARTIES:
            assert apply_hadamard(apply_hadamard(state, party), party) == state

    def test_hh_on_a_and_b_gives_the_four_term_state(self):
        # Frozen by direct hand computation of the two butterfly passes:
        # +1/2 on 000, 011, 101 and -1/2 on 110, zero elsewhere.
        state = apply_hadamard(apply_hadamard(mermin_state(), "A"), "B")
        expected = {"000": HALF, "011": HALF, "101": HALF, "110": MINUS_HALF}
        for b in BASIS:
            assert amplitude(state, b) == expected.get(b, ZERO)

    def test_norm_stays_exact_under_random_sequences(self):
        rng = random.Random(11)
        for _ in range(40):
            state = mermin_state()
            for _ in range(rng.randrange(1, 12)):
                # Building each TripleState re-checks exact unit norm.
                state = apply_hadamard(state, rng.choice(PARTIES))

    def test_single_hadamard_spreads_to_eighths(self):
        state = apply_hadamard(mermin_state(), "A")
        assert support(state) == set(BASIS)
        for b in BASIS:
            assert probability(state, b) == Fraction(1, 8)

    def test_unknown_party(self):
        with pytest.raises(ValueError):
            apply_hadamard(mermin_state(), "D")

    def test_triple_hadamard_negates_complements(self):
        # Direct computation: after H on all three parties, the amplitude at
        # any basis string is minus the amplitude at its bitwise complement.
        state = mermin_state()
        for party in PARTIES:
            state = apply_hadamard(state, party)
        for i in range(8):
            p, q = state.amps[i]
            cp, cq = state.amps[i ^ 0b111]
            assert (p, q) == (-cp, -cq)


class TestTransformedState:
    def test_column_111_left_alone(self):
        assert transformed_state((1, 1, 1)) == mermin_state()

    def test_column_001_exact(self):
        state = transformed_state((0, 0, 1))
        expected = {"000": HALF, "011": HALF, "101": HALF, "110": MINUS_HALF}
        for b in BASIS:
            assert amplitude(state, b) == expected.get(b, ZERO)

    @pytest.mark.parametrize("column", [(0, 1, 0), (1, 0, 0)])
    def test_weight_one_columns_have_even_parity_support(self, column):
        for b in support(transformed_state(column)):
            assert b.count("1") % 2 == 0

    def test_illegal_columns_still_simulate(self):
        # Exploration outside the promise is allowed here; only verify's
        # lemma1 section keeps to legal columns.
        state = transformed_state((0, 0, 0))
        assert sum(probability(state, b) for b in support(state)) == 1

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            transformed_state((0, 2, 0))


class TestLemma1:
    """The per-column parity law, against the support read from amplitudes."""

    def test_support_parity_is_exhaustive_not_statistical(self):
        for column in LEGAL_COLUMNS:
            target = column[0] & column[1] & column[2]
            strings = support(transformed_state(column))
            assert len(strings) == 4
            assert {b.count("1") % 2 for b in strings} == {target}

    def test_weights_and_amplitudes_give_one_support(self):
        for column in LEGAL_COLUMNS:
            state = transformed_state(column)
            assert {b for b, w in zip(BASIS, state.weights) if w} == support(state)


class TestExactRepresentation:
    def test_norm_enforced_at_construction(self):
        with pytest.raises(InvariantViolation, match="squared norm is 16/8"):
            TripleState(tuple([(1, 0)] * 8))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            TripleState(((2, 0),))

    def test_mixed_amplitude_has_no_rational_probability(self):
        # (1,1) and (1,-1) cancel each other's sqrt(2) norm terms, so the
        # state would be exactly normalized, but each squared magnitude alone
        # is irrational: building the state must refuse.
        amps = [ZERO] * 8
        amps[0] = (1, 1)
        amps[1] = (1, -1)
        amps[2] = (1, 0)
        with pytest.raises(InvariantViolation, match=r"amplitude \(1, 1\)"):
            TripleState(tuple(amps))

    def test_hadamard_outside_closure_raises(self):
        # Valid norm (2 + 1 + 2 + 1 + 1 + 1 eighths), but the C-pair
        # (000, 001) has odd q-sum, so a C Hadamard cannot stay in the
        # integer representation.
        amps = ((1, 0), (0, 1), (1, 0), (0, 1), (0, 1), (0, 1), ZERO, ZERO)
        state = TripleState(amps)
        with pytest.raises(InvariantViolation, match="Hadamard on C"):
            apply_hadamard(state, "C")


class TestValueSemantics:
    """A TripleState is a frozen value of its amplitudes alone."""

    @pytest.mark.parametrize("state", SAMPLED_STATES, ids=SAMPLED_IDS)
    def test_copies_round_trip_the_slot_table(self, state):
        for copied in (copy.copy(state), copy.deepcopy(state),
                       pickle.loads(pickle.dumps(state))):
            assert copied == state
            assert copied._slots == state._slots

    def test_equal_amplitudes_are_equal_values(self):
        first, second = mermin_state(), mermin_state()
        assert first is not second and first.amps is not second.amps
        assert first == second and hash(first) == hash(second) == hash((first.amps,))
        assert first != apply_hadamard(first, "A")
        assert first != first.amps
        assert len({first, second, transformed_state((1, 1, 1))}) == 1

    def test_repr_shows_only_amps(self):
        state = mermin_state()
        assert repr(state) == f"TripleState(amps={state.amps!r})"

    def test_a_state_built_from_lists_is_the_same_value(self):
        state = mermin_state()
        listed = TripleState([list(amp) for amp in state.amps])
        assert listed.amps == state.amps and isinstance(listed.amps, tuple)
        assert listed == state and hash(listed) == hash(state)
        assert pickle.loads(pickle.dumps(listed)) == state
        assert TripleState(list(state.amps)) == state

    def test_fields_and_table_refuse_assignment(self):
        state = mermin_state()
        for name in ("amps", "_slots", "weights"):
            with pytest.raises(AttributeError):
                setattr(state, name, ())
        assert state == mermin_state()


class FixedDraw:
    """An rng whose random() always returns u."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


class TestSampling:
    def test_basis_state_is_certain(self):
        state = TripleState(tuple((2, 0) if i == 0b011 else ZERO for i in range(8)))
        assert state.weights == (0, 0, 0, 8, 0, 0, 0, 0)
        assert sample_outcome(state, random.Random(0)) == (0, 1, 1)

    @pytest.mark.parametrize("state", SAMPLED_STATES, ids=SAMPLED_IDS)
    def test_weights_are_the_exact_law(self, state):
        law = [(tuple(map(int, b)), Fraction(w, 8))
               for b, w in zip(BASIS, state.weights) if w]
        assert law == list(outcome_law(state))

    def test_seed_determinism(self):
        state = transformed_state((0, 0, 1))
        runs = [
            [basis(sample_outcome(state, rng)) for _ in range(200)]
            for rng in (random.Random(9), random.Random(9))
        ]
        assert runs[0] == runs[1]

    def test_outcomes_stay_in_support(self):
        rng = random.Random(5)
        state = mermin_state()
        legal = support(state)
        for _ in range(500):
            assert basis(sample_outcome(state, rng)) in legal

    def test_frequencies_within_five_sigma(self):
        rng = random.Random(123)
        n = 100_000
        counts = {b: 0 for b in ("001", "010", "100", "111")}
        state = mermin_state()
        for _ in range(n):
            counts[basis(sample_outcome(state, rng))] += 1
        sigma = (0.25 * 0.75 / n) ** 0.5
        for b, c in counts.items():
            assert abs(c / n - 0.25) < 5 * sigma, (b, c)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_chi_square_at_fixed_seeds(self, seed):
        # df=3 critical value at p=0.001 is 16.27; the seeds are fixed so
        # this is a deterministic regression, not a flaky statistical test.
        rng = random.Random(seed)
        state = mermin_state()
        n = 20_000
        counts = {b: 0 for b in ("001", "010", "100", "111")}
        for _ in range(n):
            counts[basis(sample_outcome(state, rng))] += 1
        expected = n / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.27

    @pytest.mark.parametrize("state", SAMPLED_STATES, ids=SAMPLED_IDS)
    def test_slot_table_is_the_exact_distribution(self, state):
        # With u uniform on [0, 1), slot k is drawn for u in [k/8, (k+1)/8), so
        # an outcome owning 8p slots is drawn with probability exactly p.
        slots = state._slots
        assert len(slots) == 8
        runs = [(outcome, len(list(run))) for outcome, run in itertools.groupby(slots)]
        assert runs == [(bits, 8 * p) for bits, p in outcome_law(state)]
        for k, outcome in enumerate(slots):
            for u in (k / 8, math.nextafter((k + 1) / 8, 0.0)):
                assert sample_outcome(state, FixedDraw(u)) is outcome, (k, u)

    @pytest.mark.parametrize("state", SAMPLED_STATES, ids=SAMPLED_IDS)
    def test_slots_draw_as_the_threshold_scan(self, state):
        slot_rng, scan_rng = random.Random(17), random.Random(17)
        for _ in range(10_000):
            assert sample_outcome(state, slot_rng) == sample_by_thresholds(state, scan_rng)
        assert slot_rng.getstate() == scan_rng.getstate()

    def test_each_state_builds_its_table_once(self, monkeypatch):
        calls = []
        weight = qsim._weight

        def counted(amp):
            calls.append(amp)
            return weight(amp)

        # A sampling table is built from weights, one _weight call per amplitude.
        monkeypatch.setattr(qsim, "_weight", counted)
        state = mermin_state()
        rng = random.Random(0)
        for _ in range(100):
            sample_outcome(state, rng)
        assert calls == list(state.amps)

    def test_a_law_that_misses_eight_slots_is_refused(self, monkeypatch):
        # p^2 + q^2 drops a factor 2 on every half amplitude: 4 slots, not 8.
        monkeypatch.setattr(qsim, "_weight", lambda amp: amp[0] ** 2 + amp[1] ** 2)
        with pytest.raises(InvariantViolation, match="squared norm is 4/8"):
            mermin_state()
