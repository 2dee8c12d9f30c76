"""Property-style tests for the SEQUITUR grammar on random inputs.

For every randomly generated sequence the grammar must (a) expand back to
exactly the input, (b) satisfy both SEQUITUR invariants, (c) never be larger
than the input, and (d) survive a pickle round trip (process-pool workers
and the disk cache both rely on this).
"""

import pickle
import random

import pytest

from repro.core.sequitur import Grammar, build_grammar

CASES = [
    # (seed, length, alphabet size)
    (1, 50, 2),
    (2, 200, 4),
    (3, 500, 8),
    (4, 1000, 16),
    (5, 2000, 64),
    (6, 300, 3),
    (7, 800, 300),   # mostly-unique symbols: few rules form
]


def random_sequence(seed, length, alphabet):
    rng = random.Random(seed)
    return [rng.randrange(alphabet) for _ in range(length)]


class TestGrammarProperties:
    @pytest.mark.parametrize("seed,length,alphabet", CASES)
    def test_expansion_reproduces_input(self, seed, length, alphabet):
        seq = random_sequence(seed, length, alphabet)
        grammar = build_grammar(seq)
        assert grammar.expand() == seq
        assert len(grammar) == len(seq)

    @pytest.mark.parametrize("seed,length,alphabet", CASES)
    def test_invariants_hold(self, seed, length, alphabet):
        seq = random_sequence(seed, length, alphabet)
        grammar = build_grammar(seq)
        # Runs of identical symbols legitimately leave overlapping duplicate
        # digrams (see check_invariants docstring), so the strict digram
        # check only applies to inputs without adjacent equal symbols.
        strict = all(a != b for a, b in zip(seq, seq[1:]))
        grammar.check_invariants(strict_digrams=strict)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_strict_digram_uniqueness_without_adjacent_repeats(self, seed):
        rng = random.Random(seed)
        seq, prev = [], None
        while len(seq) < 600:
            value = rng.randrange(9)
            if value != prev:
                seq.append(value)
                prev = value
        grammar = build_grammar(seq)
        grammar.check_invariants(strict_digrams=True)

    @pytest.mark.parametrize("seed,length,alphabet", CASES)
    def test_grammar_never_larger_than_input(self, seed, length, alphabet):
        seq = random_sequence(seed, length, alphabet)
        grammar = build_grammar(seq)
        assert grammar.grammar_size() <= max(1, len(seq))

    def test_compresses_repetitive_input(self):
        seq = [1, 2, 3, 4] * 100
        grammar = build_grammar(seq)
        assert grammar.grammar_size() < len(seq) // 4

    def test_incremental_equals_batch(self):
        seq = random_sequence(11, 400, 6)
        batch = build_grammar(seq)
        incremental = Grammar()
        for value in seq:
            incremental.append(value)
        assert incremental.expand() == batch.expand()
        assert ([r.id for r in incremental.rules()]
                == [r.id for r in batch.rules()])


class TestGrammarPickle:
    @pytest.mark.parametrize("seed,length,alphabet", CASES)
    def test_round_trip_preserves_expansion(self, seed, length, alphabet):
        seq = random_sequence(seed, length, alphabet)
        grammar = build_grammar(seq)
        clone = pickle.loads(pickle.dumps(grammar))
        assert clone.expand() == seq
        assert len(clone) == len(grammar)
        assert clone.grammar_size() == grammar.grammar_size()
        strict = all(a != b for a, b in zip(seq, seq[1:]))
        clone.check_invariants(strict_digrams=strict)

    def test_restored_grammar_accepts_appends(self):
        seq = random_sequence(21, 300, 5)
        clone = pickle.loads(pickle.dumps(build_grammar(seq)))
        clone.extend(seq)
        assert clone.expand() == seq + seq
        clone.check_invariants()

    @pytest.mark.parametrize("seed", [41, 42, 43, 44])
    def test_pickle_midway_then_extend_matches_straight_build(self, seed):
        """Pickling is transparent: appends after a round trip produce the
        exact grammar (rules AND digram index) a straight build would.

        Low-alphabet inputs exercise overlapping identical-symbol digrams,
        whose indexed occurrence is build-history-dependent.
        """
        rng = random.Random(seed)
        seq = [rng.randrange(3) for _ in range(200)]
        cut = rng.randrange(1, len(seq))
        clone = pickle.loads(pickle.dumps(build_grammar(seq[:cut])))
        clone.extend(seq[cut:])
        straight = build_grammar(seq)
        assert clone.expand() == seq

        def shape(grammar):
            return [(r.id, [s.token() for s in r.symbols()])
                    for r in grammar.rules()]

        assert shape(clone) == shape(straight)

    def test_deep_grammar_does_not_hit_recursion_limit(self):
        # A long low-entropy input produces a long root body; the default
        # recursive pickling of the linked symbol list would blow the stack.
        rng = random.Random(99)
        seq = [rng.randrange(2000) for _ in range(20000)]
        grammar = build_grammar(seq)
        clone = pickle.loads(pickle.dumps(grammar))
        assert clone.expand() == seq
