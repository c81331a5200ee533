import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference
from multishare.field import (_SMALL_BLOCK, BLOCK_WORDS, DEFAULT_MODULUS,
                              Block, _layout, _reduce, as_block, crypto_rng,
                              deterministic_rng, echelon_insert,
                              express_over_rows, from_hex, from_words,
                              is_probable_prime, random_ints, to_hex,
                              to_words, weighted_column_sum, word_bytes,
                              zeros)
from multishare.formats import share_to_dict
from multishare.protocol import NodeShare
from support import LAYOUT_LENGTHS, LAYOUT_MODULI, layout_values


def add(a, b, q=7):
    return weighted_column_sum([1, 1], [[a], [b]], q)[0]


def mul(a, b, q=7):
    return weighted_column_sum([a], [[b]], q)[0]


def inverse(a, q=7):
    """a^-1 as the one-row solve a * w = 1; None for a = 0."""
    w = express_over_rows([[a]], [1], q)
    return None if w is None else w[0]


class TestArithmetic:
    """Field arithmetic as the int core does it: sums and products through
    weighted_column_sum, inverses through express_over_rows."""

    def test_add_small(self):
        assert add(1, 1) == 2

    def test_add_wraps(self):
        assert add(6, 6) == 5  # 12 mod 7

    def test_add_identity(self):
        for v in range(7):
            assert add(v, 0) == v

    def test_mul(self):
        assert mul(3, 5) == 1  # 15 mod 7
        assert mul(4, 1) == 4

    def test_sub_and_neg(self):
        assert weighted_column_sum([1, -1], [[0], [2]], 7) == [5]  # -2 = 5
        assert weighted_column_sum([-1], [[2]], 7) == [5]

    def test_inverse(self):
        assert inverse(3) == 5
        assert inverse(1) == 1
        assert inverse(9, 11) == 5

    def test_inverse_of_zero(self):
        assert inverse(0) is None

    @pytest.mark.parametrize("q", [7, 11, 257])
    def test_all_nonzero_invertible(self, q):
        for v in range(1, q):
            assert mul(v, inverse(v, q), q) == 1

    def test_field_axioms_exhaustive_q7(self):
        els = range(7)
        for a, b in itertools.product(els, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(els, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert (weighted_column_sum([a, a], [[b], [c]], 7)
                    == [mul(a, add(b, c))])

    def test_big_modulus(self):
        q = DEFAULT_MODULUS
        a = 2**126
        assert add(a, a, q) == (2**127) % q == 1
        assert mul(a, inverse(a, q), q) == 1


class TestHex:
    """A share value is written as the hex of its big-endian form at the
    byte width of q - 1 (share format v2)."""

    def test_zero_fills_the_width(self):
        share = NodeShare("m", 1, 0, (0,))
        assert share_to_dict(share, 7)["values"] == ["00"]

    def test_leading_zeros_to_the_width(self):
        share = NodeShare("m", 1, 0, (255,))
        assert share_to_dict(share, 257)["values"] == ["00ff"]


class TestRandom:
    def test_q2_in_range(self):
        assert set(random_ints(2, 50, deterministic_rng(0))) <= {0, 1}

    def test_seeded_reproducible(self):
        a = random_ints(7, 1, deterministic_rng(42))
        b = random_ints(7, 1, deterministic_rng(42))
        assert a == b
        # Regression anchor for the fixed seed.
        assert a == random_ints(7, 1, deterministic_rng(42))

    def test_uniformity_chi_square(self):
        rng = deterministic_rng(1234)
        n = 100_000
        counts = Counter(random_ints(7, n, rng))
        expect = n / 7
        sigma = math.sqrt(n * (1 / 7) * (6 / 7))
        for v in range(7):
            assert abs(counts[v] - expect) < 5 * sigma

    def test_crypto_source_works(self):
        (v,) = random_ints(DEFAULT_MODULUS, 1, crypto_rng())
        assert 0 <= v < DEFAULT_MODULUS

    def test_random_ints_exact_counts_q257(self):
        # q = 257 reads 2-byte words masked to 9 bits, so about half of
        # them are rejected. Fed every 2-byte word once, in order, each
        # 9-bit value arrives 128 times; the draw must keep exactly 128
        # of each value below 257, 0 included, and stop at the last word
        # it needs: the final 256, word 256 + 127 * 512.
        class EveryWord:
            def __init__(self):
                self.next = 0

            def randbytes(self, n):
                assert n % 2 == 0 and n // 2 <= BLOCK_WORDS
                words = range(self.next, self.next + n // 2)
                self.next += n // 2
                return b"".join(w.to_bytes(2, "little") for w in words)

        rng = EveryWord()
        draws = random_ints(257, 257 * 128, rng)
        assert Counter(draws) == {v: 128 for v in range(257)}
        assert rng.next == 256 + 127 * 512 + 1

    def test_random_ints_seeded_reproducible(self):
        a = random_ints(DEFAULT_MODULUS, 50, deterministic_rng(3))
        assert a == random_ints(DEFAULT_MODULUS, 50, deterministic_rng(3))
        assert len(set(a)) == 50
        assert all(0 <= v < DEFAULT_MODULUS for v in a)
        assert random_ints(7, 0, deterministic_rng(3)) == []


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 7, 11, 257, 2**127 - 1):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 561, 2**127, 2**89 + 1):
            assert not is_probable_prime(n)


def columns(rows):
    return [list(col) for col in zip(*rows)]


def in_span(rows, v, q):
    return express_over_rows(rows, v, q) is not None


def units(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestMatrix:
    """Rank and solves, read off express_over_rows: a set of rows has full
    rank iff every unit vector is in its span, and M x = b is solved by
    expressing b over the columns of M."""

    def test_identity_rank(self):
        rows = units(3)
        for e in units(3):
            assert express_over_rows(rows, e, 7) == e

    def test_dependent_rows(self):
        rows = [[1, 2], [2, 4]]
        assert not all(in_span(rows, e, 7) for e in units(2))
        assert in_span(rows, [3, 6], 7)

    def test_solve_hand_example(self):
        # a1 + 4 a2 = 1, a1 + 6 a2 = 0 over F_11 -> (3, 5)
        assert express_over_rows(columns([[1, 4], [1, 6]]), [1, 0],
                                 11) == [3, 5]

    def test_solve_checks_result(self):
        rng = deterministic_rng(7)
        q = 11
        for _ in range(30):
            rows = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            rhs = [rng.randrange(q) for _ in range(3)]
            sol = express_over_rows(columns(rows), rhs, q)
            if sol is None:
                continue
            for row, b in zip(rows, rhs):
                acc = sum(r * s for r, s in zip(row, sol)) % q
                assert acc == b % q

    def test_no_solution(self):
        # x + y = 1, 2x + 2y = 3 is inconsistent over F_7.
        assert express_over_rows(columns([[1, 1], [2, 2]]), [1, 3],
                                 7) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            express_over_rows([[1, 2], [1]], [1, 2], 7)
        with pytest.raises(ValueError):
            express_over_rows([[1, 2]], [1, 2, 3], 7)
        with pytest.raises(ValueError, match="columns differ in length"):
            weighted_column_sum([1, 1], [[1, 2], [1]], 7)

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(99)
        q = 11
        for _ in range(25):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            probes = units(4) + [[rng.randrange(q) for _ in range(4)]
                                 for _ in range(4)]
            base = [in_span(rows, v, q) for v in probes]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert [in_span(shuffled, v, q) for v in probes] == base
            # scale only the first row by a nonzero constant
            c = rng.randrange(1, q)
            scaled = [[c * v % q for v in rows[0]]] + rows[1:]
            assert [in_span(scaled, v, q) for v in probes] == base


class TestRowSpan:
    def test_empty_matrix(self):
        assert in_span([], [0, 0], 7)
        assert not in_span([], [1, 0], 7)

    def test_scaled_row(self):
        assert in_span([[1, 1]], [2, 2], 7)
        assert not in_span([[1, 1]], [1, 2], 7)

    def test_express_coefficients(self):
        q = 11
        rows = [[1, 2, 3], [0, 1, 4]]
        v = [(2 * a + 2 * b) % q for a, b in zip(rows[0], rows[1])]
        assert express_over_rows(rows, v, q) == [2, 2]


class TestEchelon:
    def test_ragged_rows_act_as_zero_padded(self):
        # Trailing entries a row lacks count as 0, whichever of the row
        # and the pivot is the shorter.
        rng = random.Random(5)
        q = 13
        for _ in range(200):
            rows = [[rng.randrange(q) for _ in range(rng.randrange(1, 6))]
                    for _ in range(rng.randrange(1, 7))]
            ragged, padded = [], []
            for i, row in enumerate(rows):
                payload = [i, rng.randrange(q)]
                got = echelon_insert(ragged, row, payload, q)
                want = echelon_insert(padded, row + [0] * (5 - len(row)),
                                      payload, q)
                assert got == want
            assert ([(c, r + [0] * (5 - len(r)), p) for c, r, p in ragged]
                    == padded)


class TestKernelsMatchReference:
    """The C-level draw and column sum against the per-value loops they
    replaced (tests/reference.py): same values, same words consumed."""

    MODULI = [2, 5, 7, 257, 65537, 2**100 - 15, DEFAULT_MODULUS]

    @pytest.mark.parametrize("q", MODULI)
    def test_random_ints(self, q):
        for count in (0, 1, 2, 3, 5, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                      BLOCK_WORDS - 1, BLOCK_WORDS, BLOCK_WORDS + 1,
                      3 * BLOCK_WORDS + 7):
            fast, slow = deterministic_rng(count), deterministic_rng(count)
            got = random_ints(q, count, fast)
            assert got == reference.random_ints(q, count, slow)
            assert len(got) == count
            assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("word, dropped", [
        (b"\xff" * 16, True),                   # masks to 2^127 - 1 = q
        (b"\x00" * 15 + b"\x80", False),        # masks to 0, kept
    ])
    def test_random_ints_rejected_word(self, word, dropped):
        # One word of a full 2^127 - 1 block is forced to q, out of range,
        # so that block is filtered word by word and topped up by the
        # next; or to 0, which is in range and kept like any other word.
        q, at = DEFAULT_MODULUS, BLOCK_WORDS // 3

        class Rigged:
            def __init__(self):
                self.rng, self.sizes = deterministic_rng(9), []

            def randbytes(self, n):
                block = bytearray(self.rng.randbytes(n))
                if not self.sizes:
                    block[16 * at:16 * (at + 1)] = word
                self.sizes.append(n // 16)
                return bytes(block)

        count = BLOCK_WORDS + 10
        fast, slow = Rigged(), Rigged()
        got = random_ints(q, count, fast)
        assert got == reference.random_ints(q, count, slow)
        # The words either side of the forced one stay in order.
        plain = deterministic_rng(9).randbytes(16 * BLOCK_WORDS)
        assert got[at - 1] == int.from_bytes(
            plain[16 * (at - 1):16 * at], "little") & q
        assert got[at] == (int.from_bytes(
            plain[16 * (at + 1):16 * (at + 2)], "little") & q if dropped
            else 0)
        # A dropped word costs one more word in the second block.
        assert fast.sizes == slow.sizes == [BLOCK_WORDS, 10 + dropped]

    @pytest.mark.parametrize("q", MODULI)
    def test_weighted_column_sum(self, q):
        weights = sorted({0, 1, -1, q - 1, (q - 1) // 2, (q + 1) // 2})
        for n in (1, 2, 3):
            # Every combination of 0 and q - 1 across the n columns.
            rows = list(itertools.product([0, q - 1], repeat=n))
            columns = [list(col) for col in zip(*rows)]
            for ws in itertools.product(weights, repeat=n):
                assert (weighted_column_sum(ws, columns, q)
                        == reference.weighted_column_sum(ws, columns, q))

    def test_weighted_column_sum_random(self):
        rng = random.Random(5)
        for q in self.MODULI:
            columns = [tuple(rng.randrange(q) for _ in range(50))
                       for _ in range(4)]
            for _ in range(50):
                ws = [rng.choice([0, 1, -1, q - 1, rng.randrange(-q, 2 * q)])
                      for _ in columns]
                assert (weighted_column_sum(ws, columns, q)
                        == reference.weighted_column_sum(ws, columns, q))


class TestBlocksMatchReference:
    """Every block function of field against the per-value references
    (tests/reference.py), block by block: over moduli of every word
    layout (one byte, a spare bit or none, 66 bytes), block lengths from 0
    to BLOCK_WORDS, values 0 and q - 1 among random ones, and weights 0,
    +-1, q - 1, (q +- 1)/2 and random full-size ones, up to 8 terms."""

    MODULI = [2, 3, 5, 7, 31, 127, 257, 8191, 65537, 2**31 - 1, 2**32 - 5,
              2**61 - 1, 2**89 - 1, 2**100 - 15, DEFAULT_MODULUS,
              2**521 - 1]
    # Either side of each length at which _pack changes path.
    LENGTHS = [0, 1, 2, 3, _SMALL_BLOCK, _SMALL_BLOCK + 1, BLOCK_WORDS - 1,
               BLOCK_WORDS, BLOCK_WORDS + 1]

    @staticmethod
    def _columns(q, n, k, rng):
        """k columns of n values: 0 and q - 1 in turn at the front, then
        random ones, and the last column all q - 1."""
        columns = [[(0, q - 1)[(i + j) % 2] if i < 8 else rng.randrange(q)
                    for i in range(n)] for j in range(k - 1)]
        return columns + [[q - 1] * n]

    @staticmethod
    def _weights(q, rng):
        special = sorted({0, 1, -1, q - 1, (q - 1) // 2, (q + 1) // 2})
        sets = [[w] for w in special]
        sets += [[rng.randrange(q) for _ in range(k)] for k in (2, 3, 8)]
        sets += [[rng.choice(special + [rng.randrange(q)])
                  for _ in range(8)] for _ in range(3)]
        sets.append([q - 1] * 8)  # the most a sum may hold
        return sets

    @pytest.mark.parametrize("q", MODULI)
    def test_weighted_column_sum(self, q):
        rng = random.Random(q)
        for n in self.LENGTHS:
            columns = self._columns(q, n, 8, rng)
            blocks = [as_block(col, q) for col in columns]
            for ws in self._weights(q, rng):
                want = reference.weighted_column_sum(ws, columns, q)
                got = weighted_column_sum(ws, blocks[:len(ws)], q)
                assert isinstance(got, Block) and len(got) == n
                assert list(got) == want, (n, ws)

    @pytest.mark.parametrize("q", MODULI)
    def test_weighted_column_sum_many_terms(self, q):
        # Small weights whose sum outgrows the headroom take the path of
        # full-size ones.
        rng = random.Random(q)
        columns = self._columns(q, 5, 300, rng)
        for ws in ([(q - 1) // 2] * 300, [q - 1] * 300,
                   [rng.randrange(q) for _ in columns]):
            assert (list(weighted_column_sum(ws, columns, q))
                    == reference.weighted_column_sum(ws, columns, q))

    @pytest.mark.parametrize("q", MODULI)
    def test_words(self, q):
        rng = random.Random(q)
        width = word_bytes(q)
        for n in self.LENGTHS:
            (values,) = self._columns(q, n, 2, rng)[:1]
            data = reference.ints_to_words(values, width)
            block = from_words(data, width, q)
            assert list(block) == reference.words_to_ints(data, width, q)
            assert block == as_block(values, q)
            assert to_words(block, width) == data
            for narrow in range(1, width):
                try:
                    want = reference.ints_to_words(values, narrow)
                except OverflowError:
                    with pytest.raises(ValueError):
                        to_words(block, narrow)
                else:
                    assert to_words(block, narrow) == want
                    assert from_words(want, narrow, q) == block
        # A word at or above q is refused, wherever it is.
        for at in (0, 1, BLOCK_WORDS - 1):
            values = [0] * BLOCK_WORDS
            values[at] = 2 ** (8 * width) - 1
            data = reference.ints_to_words(values, width)
            with pytest.raises(ValueError):
                reference.words_to_ints(data, width, q)
            with pytest.raises(ValueError):
                from_words(data, width, q)

    @pytest.mark.parametrize("q", MODULI)
    def test_sequence(self, q):
        rng = random.Random(q)
        values = self._columns(q, BLOCK_WORDS + 3, 2, rng)[0]
        block = as_block(values, q)
        assert len(block) == len(values) and list(block) == values
        assert block == values and block == tuple(values)
        assert hash(block) == hash(tuple(values))
        for i in (0, 1, 7, BLOCK_WORDS, -1, -len(values)):
            assert block[i] == values[i]
        for a, b in ((0, 0), (0, 1), (3, 9), (1, BLOCK_WORDS + 1),
                     (BLOCK_WORDS, None), (-5, None), (None, None)):
            assert block[a:b] == values[a:b]
            assert isinstance(block[a:b], Block)
        assert block[::3] == values[::3]
        assert block[:5] + block[5:] == block
        assert zeros(0, q) + block == block == block + zeros(0, q)
        assert zeros(3, q) == [0, 0, 0]
        with pytest.raises(IndexError):
            block[len(values)]
        for bad in ([q], [-1], [0, q + 5]):
            with pytest.raises(ValueError):
                as_block(bad, q)


class TestSlotLayout:
    """The block layout, a slot of 2w + 3 hex digits per value, against
    the per-value references (tests/reference.py) at every modulus and
    length above, over seeds: hex and the wide sum, which splits a
    block's slots into its pairs. The draws and the words are checked in
    TestKernelsMatchReference and TestBlocksMatchReference."""

    @pytest.mark.parametrize("q", LAYOUT_MODULI)
    @pytest.mark.parametrize("n", LAYOUT_LENGTHS)
    @settings(max_examples=3, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32))
    def test_hex(self, q, n, seed):
        # Each value's fixed-width hex after its lead; read back with the
        # first lead whole, in part or left out.
        values = layout_values(q, n, seed)
        digits = 2 * word_bytes(q)
        block = as_block(values, q)
        text = to_hex(block, b'","')
        assert text == b"".join(b'","%0*x' % (digits, v) for v in values)
        for cut in range(4):
            assert from_hex(bytearray(text[cut:]), n, q) == block

    @pytest.mark.parametrize("q", LAYOUT_MODULI)
    @pytest.mark.parametrize("n", LAYOUT_LENGTHS)
    @settings(max_examples=3, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32))
    def test_wide_sum(self, q, n, seed):
        # Full-size weights take the wide path wherever they outgrow the
        # headroom, 65537 and up here.
        rng = random.Random(seed)
        columns = [layout_values(q, n, seed + k) for k in range(3)]
        weights = [rng.randrange(q // 2, q) for _ in columns]
        assert (list(weighted_column_sum(weights, columns, q))
                == reference.weighted_column_sum(weights, columns, q))

    def test_from_hex_refuses(self):
        q = DEFAULT_MODULUS
        text = to_hex(as_block([1, q - 1, 2], q), b'","')
        for bad, error in ((text.replace(b"f", b"F", 1), "upper-case"),
                           (text.replace(b"1", b"g", 1), "Non-hex"),
                           (text.replace(b"7f", b"80", 1), "out of range")):
            with pytest.raises(ValueError, match=error):
                from_hex(bytearray(bad), 3, q)


class TestBlockOperands:
    """What a Block does with an operand that is not a Block of its own
    modulus."""

    def test_sum_with_other_modulus_or_list(self):
        block = as_block([1, 2], 7)
        for other in (as_block([1, 2], 11), [1, 2]):
            with pytest.raises(TypeError):
                block + other

    def test_unequal_to_int_or_none(self):
        block = as_block([1], 7)
        for other in (1, None):
            assert block != other and not block == other

    def test_repr(self):
        assert repr(as_block([1, 2], 7)) == "Block([1, 2], modulus=7)"


# Mersenne primes 2^b - 1, reduced by folding, of every slot layout: b
# from 2 to 521, with no spare bit in the word (b = 8k - 1) or more.
MERSENNE = [2**b - 1 for b in (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 127,
                               521)]


class TestReduce:
    """_reduce, which folds at q = 2^b - 1 and runs Barrett's step at
    other q, against slot % q, slot by slot, at the bounds of a slot."""

    @staticmethod
    def _check(q, slots, lay):
        """_reduce of the slots `slots`, told the most is their max."""
        bits = lay.bits
        x = sum(v << (len(slots) - 1 - i) * bits
                for i, v in enumerate(slots))
        got = _reduce(x, max(slots), lay)
        assert [got >> (len(slots) - 1 - i) * bits & (1 << bits) - 1
                for i in range(len(slots))] == [v % q for v in slots]

    @pytest.mark.parametrize("q", MERSENNE + [2, 65537, 2**32 - 5])
    @pytest.mark.parametrize("spread", [1, 2])
    def test_slot_bounds(self, q, spread):
        rng = random.Random(q)
        lay = _layout(q, 2 * 12, spread)  # 12 slots either way
        assert (lay.high is not None) == (q & q + 1 == 0)
        most = q * lay.limit
        slots = [most, most - 1, 2 * q, 2 * q - 1, q, 0]
        slots += [rng.randrange(most + 1) for _ in range(6)]
        self._check(q, slots, lay)
        # At most 2q, as a weight of -2 on a column of 0 gives.
        self._check(q, [2 * q, 2 * q - 1, q, q - 1, 0, 0], lay)

    @pytest.mark.parametrize("q", MERSENNE)
    def test_weights_at_the_limit(self, q):
        # Sums whose weights' absolute sum is exactly the headroom's
        # limit, or one less, signs mixed; each sum's first slot at the
        # most it can hold, its second at the least.
        rng = random.Random(q)
        limit = _layout(q, 4).limit
        for total in (limit, limit - 1):
            weights = []
            while total:
                w = rng.randint(1, min(total, (q - 1) // 2))
                weights.append(rng.choice((w, -w)))
                total -= w
            columns = [[q - 1 if w > 0 else 0, 0 if w > 0 else q - 1,
                        rng.randrange(q), rng.randrange(q)]
                       for w in weights]
            assert (list(weighted_column_sum(weights, columns, q))
                    == reference.weighted_column_sum(weights, columns, q))

    @pytest.mark.parametrize("q", [2**7 - 1, 2**31 - 1, DEFAULT_MODULUS])
    def test_wide_weights_at_the_limit(self, q):
        # Full-size weights totalling exactly the wide slots' limit: the
        # fewest terms that can, at these q.
        limit = _layout(q, 2, 2).limit
        count, rest = divmod(limit, q - 1)
        weights = [q - 1] * count + [rest]
        columns = [[q - 1, q - 1]] * len(weights)
        blocks = [as_block(columns[0], q)] * len(weights)
        assert (list(weighted_column_sum(weights, blocks, q))
                == reference.weighted_column_sum(weights, columns, q))
        # One more full-size weight is more than the wide slots hold.
        with pytest.raises(ValueError, match="too many weights for one sum"):
            weighted_column_sum(weights + [q // 2], blocks + blocks[:1], q)
