import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expclt import engine, ensembles
from expclt import (
    RngStream,
    deterministic,
    diagonal_uniform,
    finite_support,
    precompute_kernel,
    two_point,
)
from expclt.ensembles import _COMPARE_MAX_SUPPORT as _CUT
from expclt.linalg import mat_exp


class TestRngStream:
    def test_replay_is_bitwise(self):
        a = RngStream(123, 45).words(64)
        b = RngStream(123, 45).words(64)
        assert np.array_equal(a, b)

    def test_consecutive_calls_advance(self):
        r = RngStream(123)
        assert not np.array_equal(r.words(8), r.words(8))

    def test_child_is_stable_and_keyed(self):
        r = RngStream(7, 1)
        c1 = r.child("clt", 64, 3)
        c2 = r.child("clt", 64, 3)
        assert c1.stream_index == c2.stream_index
        assert c1.master_seed == 7
        assert np.array_equal(c1.words(16), c2.words(16))

    def test_children_differ_by_any_part(self):
        r = RngStream(7, 1)
        keys = {
            r.child("clt", 64, 3).stream_index,
            r.child("clt", 64, 4).stream_index,
            r.child("clt", 65, 3).stream_index,
            r.child("doob", 64, 3).stream_index,
        }
        assert len(keys) == 4

    def test_distinct_seeds_decorrelate(self):
        a = RngStream(1).words(1024).astype(float)
        b = RngStream(2).words(1024).astype(float)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_seed_wraps_to_64_bits(self):
        assert RngStream(2**64 + 5).master_seed == 5


def _pcg(seed, index):
    """A plain PCG64DXSM seeded with SeedSequence([seed, index]), at output 0."""
    return np.random.PCG64DXSM(np.random.SeedSequence([seed, index]))


def _raw(seed, index, count):
    """``count`` 64-bit outputs of a plain PCG64DXSM of the key (seed, index), as Python ints."""
    return [int(v) for v in _pcg(seed, index).random_raw(count)]


class _Model:
    """A stream's words rebuilt from one plain draw of 64-bit outputs: word
    2j is output j's low half and word 2j + 1 its high half."""

    def __init__(self, seed, index, size=4096):
        self.raw, self.pos = _raw(seed, index, size), 0

    def words(self, k):
        got = [(self.raw[w // 2] >> (32 * (w % 2))) & 0xFFFFFFFF
               for w in range(self.pos, self.pos + k)]
        self.pos += k
        return np.array(got, dtype=np.uint32)


# the word counts of a stream's calls, in call order
_CALLS = st.lists(st.integers(0, 9), max_size=12)


def _replay(seed, index, calls, got):
    model = _Model(seed, index)
    for k, words in zip(calls, got):
        ref = model.words(k)
        assert words.dtype == ref.dtype and np.array_equal(words, ref)


class TestStreamOracle:
    """A stream, however its words are split into calls, replays a plain PCG64DXSM."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1), calls=_CALLS)
    def test_any_interleaving_replays_one_plain_draw(self, seed, index, calls):
        r = RngStream(seed, index)
        _replay(seed, index, calls, [r.words(k) for k in calls])

    @pytest.mark.parametrize("word", [0, 1, 2, 7, 8, 9, 15, 1001])
    def test_at_reaches_any_word_without_drawing_the_ones_before(self, word):
        ref = RngStream(5, 6).words(word + 20)[word:]
        moved = RngStream(5, 6).at(word)
        assert np.array_equal(np.concatenate([moved.words(11), moved.words(9)]), ref)
        drawn = RngStream(5, 6)
        drawn.words(3)
        assert np.array_equal(drawn.at(word).words(20), ref)  # the key, not the position

    @pytest.mark.parametrize("word", [2**40 + 2, 2**40 + 3, 2**64 + 1])
    def test_at_a_far_word_replays_numpys_advance(self, word):
        plain = _pcg(5, 6)
        plain.advance(word // 2)  # the output that holds the word
        raw = [int(v) for v in plain.random_raw(11)]
        ref = [h for v in raw for h in (v & 0xFFFFFFFF, v >> 32)][word % 2 : word % 2 + 20]
        assert RngStream(5, 6).at(word).words(20).tolist() == ref
        for drawn_first in (0, 1, 4097):
            drawn = RngStream(5, 6)
            drawn.words(drawn_first)
            moved = drawn.at(word)  # however far the stream had drawn
            assert np.concatenate([moved.words(7), moved.words(13)]).tolist() == ref

    def test_words_split_each_output_low_half_first(self):
        raw = _raw(2, 3, 4)
        words = RngStream(2, 3).words(8)
        assert words.tolist() == [h for v in raw for h in (v & 0xFFFFFFFF, v >> 32)]

    def test_engine_rows_are_each_replicates_words(self):
        # replicate i of the pass owns the words [i n, (i + 1) n) of its stream
        e, n, words = two_point(np.array([[0.0]]), np.array([[1.0]]), 0.3), 300, _Model(5, 1, 6000)
        rows = engine._draw_rows(e, RngStream(5, 1), n, 0, 40)
        for row in rows:
            assert np.array_equal(row, e.support_indices(words.words(n)))

    def test_threads_drawing_at_once_get_the_serial_bits(self):
        # more threads than cores, switching as often as the interpreter allows,
        # so that a generator shared between threads would hand one stream's
        # position to another
        calls = [3, 0, 5, 4, 1] * 240
        indices = range(1, 5)
        barrier = threading.Barrier(len(indices))
        got = {}

        def work(index):
            r = RngStream(11, index)
            barrier.wait(timeout=10)
            got[index] = [r.words(k) for k in calls]

        threads = [threading.Thread(target=work, args=(i,)) for i in indices]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in indices:
            _replay(11, i, calls, got[i])


class TestFactoriesAndValidation:
    def test_two_point_fields(self, scalar01):
        assert scalar01.dim == 1
        assert scalar01.family == "two_point"
        assert scalar01.rho == 1.0
        assert scalar01.is_finite_support and scalar01.is_diagonal

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            two_point(np.eye(2), np.zeros((2, 2)), 1.5)
        with pytest.raises(ValueError):
            finite_support([np.eye(2)], [0.9])
        with pytest.raises(ValueError):
            finite_support([np.eye(2), np.zeros((2, 2))], [0.7, 0.7])
        with pytest.raises(ValueError):
            finite_support([np.eye(2), np.zeros((2, 2))], [-0.1, 1.1])

    def test_probabilities_must_be_finite(self):
        # NaN slips past both the sign and the sum test
        with pytest.raises(ValueError, match="finite"):
            finite_support([np.eye(2), np.zeros((2, 2))], [np.nan, 1.0])

    def test_support_size_fits_uint16_indices(self):
        # 65,537 matrices would wrap the uint16 draw indices; the count is
        # checked before any matrix is read, so placeholders suffice
        with pytest.raises(ValueError, match="at most 65536 support matrices"):
            finite_support([None] * 65_537, [None] * 65_537)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            finite_support([np.zeros((2, 3))], [1.0])
        with pytest.raises(ValueError):
            finite_support([np.eye(2), np.eye(3)], [0.5, 0.5])
        with pytest.raises(ValueError):
            two_point(np.array([[np.inf]]), np.array([[0.0]]), 0.5)
        # a stack is not one support matrix, even when the validator takes it
        with pytest.raises(ValueError, match="support matrix 1 must be one matrix"):
            finite_support([np.eye(2), np.zeros((1, 2, 2))], [0.5, 0.5])
        with pytest.raises(ValueError, match="support matrix 0 must be one matrix"):
            finite_support([np.zeros((1, 2, 2))], [1.0])

    def test_diagonal_uniform_validation(self):
        with pytest.raises(ValueError):
            diagonal_uniform(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            diagonal_uniform(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            diagonal_uniform(2, 0.0, np.nan)

    def test_rho_is_max_support_norm(self, nilp3):
        assert nilp3.rho == pytest.approx(0.9)

    def test_support_is_frozen(self, scalar01):
        with pytest.raises(ValueError):
            scalar01.support[0][0, 0] = 99.0

    def test_is_diagonal_detection(self, dense3, diag3):
        assert not dense3.is_diagonal
        assert diag3.is_diagonal
        assert two_point(np.diag([1.0, 2.0]), np.diag([0.0, -1.0]), 0.3).is_diagonal


class TestSampling:
    def test_sample_indices_matches_repeated_sample(self, scalar01):
        idx = scalar01.sample_indices(RngStream(3, 9), 50)
        singles = []
        r = RngStream(3, 9)
        for _ in range(50):
            singles.append(0 if scalar01.sample(r)[0, 0] == 0.0 else 1)
        assert np.array_equal(idx, np.array(singles, dtype=np.uint16))

    def test_two_point_frequencies(self):
        e = two_point(np.array([[1.0]]), np.array([[0.0]]), 0.25)
        idx = e.sample_indices(RngStream(11), 200000)
        # index 0 (the p-branch) should appear with frequency ~ 0.25
        assert np.mean(idx == 0) == pytest.approx(0.25, abs=0.006)

    def test_indices_stay_in_range_at_bin_edges(self):
        e = finite_support([np.eye(1) * v for v in (0.0, 1.0, 2.0)],
                           [1 / 3, 1 / 3, 1 / 3])
        idx = e.sample_indices(RngStream(5), 100000)
        assert idx.min() >= 0 and idx.max() <= 2

    def test_diagonal_values_bounds_and_shape(self, diag3):
        vals = diag3.sample_diagonal_values(RngStream(8), 1000)
        assert vals.shape == (1000, 3)
        assert vals.min() >= -0.5 and vals.max() <= 1.0

    def test_family_guards(self, diag3, scalar01):
        with pytest.raises(ValueError):
            diag3.sample_indices(RngStream(0), 4)
        with pytest.raises(ValueError):
            scalar01.sample_diagonal_values(RngStream(0), 4)

    def test_sample_diagonal_is_diag_matrix(self, diag3):
        m = diag3.sample(RngStream(2))
        assert np.array_equal(m, np.diag(np.diagonal(m)))


_A = np.array([[0.3, 0.1], [0.0, -0.2]])
_B = np.array([[0.3, 0.1], [0.0, 0.2]])

# One law of each sampling shape: support_indices counts cut points for m = 2
# and 3 and binary-searches for m = 129; diagonal draws take 1 or d words.
_LAWS = {
    "two_point": two_point(np.array([[0.0]]), np.array([[1.0]]), 0.3),
    "finite_support_m3": finite_support([np.eye(2) * i for i in range(3)],
                                        [0.2, 0.5, 0.3]),
    "finite_support_m129": finite_support([np.eye(1) * i for i in range(_CUT + 1)],
                                          np.full(_CUT + 1, 1.0 / (_CUT + 1))),
    "diagonal_uniform_d1": diagonal_uniform(1, -0.5, 1.0),
    "diagonal_uniform_d3": diagonal_uniform(3, -0.5, 1.0),
}


def _bulk_sample(e, stream, count):
    if e.is_finite_support:
        return e.sample_indices(stream, count)
    return e.sample_diagonal_values(stream, count)


class TestDraws:
    """One words-to-draws map behind every sampler."""

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_one_stream_gives_the_same_draws_everywhere(self, law):
        e, count = _LAWS[law], 300
        draws = e.draws(RngStream(21), count)
        assert np.array_equal(draws, _bulk_sample(e, RngStream(21), count))
        r = RngStream(21)
        for draw in draws:
            ref = e.support[draw] if e.is_finite_support else np.diag(draw)
            assert np.array_equal(e.sample(r), ref)
        # a draw takes entries_per_draw words: the next draw starts where r stands
        assert np.array_equal(e.draws(r, 5),
                              e.draws(RngStream(21).at(count * e.entries_per_draw), 5))

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_draws_map_words_or_uniforms(self, law):
        e, count = _LAWS[law], 64
        draws = e.draws(RngStream(22), count)
        assert draws.shape[1:] == e.draws(RngStream(22), 0).shape[1:]
        assert draws[0].size == e.entries_per_draw
        words = RngStream(22).words(count * e.entries_per_draw)
        if e.is_finite_support:
            assert np.array_equal(draws, e.support_indices(words))
        else:  # the midpoint of the word's 2^-32 bin of [low, high]
            w = words.reshape(count, e.dim).astype(float)
            assert np.array_equal(draws, e.low + (e.high - e.low) * 2.0**-32 * (w + 0.5))

    @pytest.mark.parametrize("low, high, strict", [
        (-0.5, 1.0, True), (-1e300, 1e300, True), (0.3, 0.3, False),
        (1.0, 1.0 + 2.0**-40, False),  # bins far below the spacing of floats near 1
    ])
    def test_diagonal_entries_stay_inside_the_bounds(self, low, high, strict):
        class Ends:  # the end words, whose bin midpoints lie closest to the bounds
            def words(self, count):
                return np.resize(np.array([0, 2**32 - 1], dtype=np.uint32), count)

        e = diagonal_uniform(2, low, high)
        entries = e.draws(Ends(), 3)
        assert np.all(low <= entries) and np.all(entries <= high)
        assert np.all(np.abs(entries) <= e.rho)
        if strict:
            assert np.all(low < entries[:, 0]) and np.all(entries[:, 1] < high)


def _tally(e, rows):
    """The tally rows that the engine gives for ``rows`` of n draws."""
    kern = precompute_kernel(e, rows.shape[1])
    return engine.simulate_block(kern, np.ones(e.dim), rows, want_s_prime=True)["tally"]


class TestTally:
    """Tally rows of rows of draws add up to sum (A - EA) over the draws."""

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_centered_total_sums_the_centered_draws(self, law):
        e, n = _LAWS[law], 40
        rows = engine._draw_rows(e, RngStream(23), n, 0, 7)
        # the pass's first 7 n draws, one at a time
        r = RngStream(23)
        ref = sum(e.sample(r) - e.mean() for _ in range(7 * n))
        total = e.centered_total(_tally(e, rows))
        assert total.shape == (e.dim, e.dim)
        np.testing.assert_allclose(total, ref, rtol=1e-12, atol=1e-12)

    def test_a_diagonal_point_mass_totals_exactly_zero(self):
        # 100 draws of 0.3 added up are not 100 x 0.3 in floating point
        e = diagonal_uniform(3, 0.3, 0.3)
        rows = engine._draw_rows(e, RngStream(25), 100, 0, 5)
        assert not np.any(e.centered_total(_tally(e, rows)))

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_a_split_of_the_replicates_keeps_every_bit(self, law):
        # the 1-row parts at d = 1 hold one entry a step, which numpy's
        # add.reduce would sum pairwise
        e, n = _LAWS[law], 100
        whole = _tally(e, engine._draw_rows(e, RngStream(24), n, 0, 9))
        parts = [_tally(e, engine._draw_rows(e, RngStream(24), n, lo, hi))
                 for lo, hi in ((0, 1), (1, 2), (2, 5), (5, 9))]
        joined = np.concatenate(parts)
        if not e.is_finite_support:  # one row per replicate, whose bits are its own
            assert np.array_equal(whole, joined)
        assert np.array_equal(e.centered_total(whole), e.centered_total(joined))


@pytest.mark.parametrize("law, expected", [
    (deterministic(_A), True),
    (two_point(_A, _A, 0.4), True),
    (two_point(_A, _B, 0.0), True),
    (finite_support([_A, _A, _B], [0.5, 0.5, 0.0]), True),
    (diagonal_uniform(3, 0.7, 0.7), True),
    (two_point(_A, _B, 0.4), False),
    (finite_support([_A, _A, _B], [0.45, 0.45, 0.1]), False),
    (diagonal_uniform(3, -0.5, 1.0), False),
], ids=["deterministic", "two_point_equal", "two_point_p0", "zero_weight_outlier",
        "diagonal_low_eq_high", "two_point", "finite_support", "diagonal_uniform"])
def test_is_point_mass(law, expected):
    assert law.is_point_mass is expected


def _index_oracle(e, words):
    """The index of each word, from the weights in exact integer arithmetic:
    the smallest j with word < floor(2^32 (p_0 + ... + p_j)), and the last
    index when there is none."""
    edges = [int(np.floor(c * 2.0**32)) for c in np.cumsum(e.probabilities)[:-1]]
    return np.array([sum(c <= int(w) for c in edges) for w in words], dtype=np.uint16)


def _edge_words(e, seed):
    """Random words plus every cut point below 2^32, its two neighbours and
    both ends of the word range."""
    cuts = e._cuts.astype(np.int64)
    edges = np.concatenate([cuts, cuts - 1, cuts + 1, [0, 2**32 - 1]])
    edges = edges[(edges >= 0) & (edges < 2**32)].astype(np.uint32)
    return np.concatenate([edges, RngStream(seed).words(4096)])


class TestSupportIndices:
    """The cut-point map against an exact integer oracle."""

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_two_point_including_zero_weights(self, p):
        e = two_point(np.array([[0.0]]), np.array([[1.0]]), p)
        w = _edge_words(e, 1)
        assert np.array_equal(e.support_indices(w), _index_oracle(e, w))

    @pytest.mark.parametrize("probs", [
        [0.25, 0.0, 0.0, 0.75],
        [0.0, 0.5, 0.5, 0.0],
        [0.5, 0.5 + 5e-13, 0.0],  # partial sums pass 1 before the last bin
        [0.3, 0.7 + 4e-13, 1e-13],
        [1 / 3, 1 / 3, 1 / 3 + 8e-13],
    ])
    def test_repeated_and_overshooting_cut_points(self, probs):
        e = finite_support([np.eye(1) * i for i in range(len(probs))], probs)
        w = _edge_words(e, 2)
        assert np.array_equal(e.support_indices(w), _index_oracle(e, w))

    @pytest.mark.parametrize("m", [1, 2, 3, _CUT - 1, _CUT, _CUT + 1, 2 * _CUT + 5])
    def test_both_sides_of_the_crossover(self, m):
        w = RngStream(m).words(m) * 2.0**-32 + 0.01
        w[::7] = 0.0
        w[-1] += 0.01
        e = finite_support([np.eye(1) * i for i in range(m)], w / w.sum())
        words = _edge_words(e, 3)
        got = e.support_indices(words)
        assert got.dtype == np.uint16
        assert np.array_equal(got, _index_oracle(e, words))

    @pytest.mark.parametrize("where, probs", [
        ("leading", [0.0, 0.4, 0.6]),
        ("middle", [0.4, 0.0, 0.6]),
        ("trailing", [0.4, 0.6, 0.0]),
        ("trailing_past_rounding", [0.5, 0.5 + 5e-13, 0.0]),
    ])
    def test_a_zero_weight_is_never_drawn(self, where, probs):
        e = finite_support([np.eye(1) * i for i in range(3)], probs)
        zero = probs.index(0.0)
        words = _edge_words(e, 4)
        assert zero not in e.support_indices(words)
        assert zero not in e.sample_indices(RngStream(4), 100_000)
        if where.startswith("trailing"):  # its cut is 2^32, which no word reaches
            assert len(e._cuts) == 1

    @pytest.mark.parametrize("probs", [[0.3, 0.7], [0.2, 0.5, 0.3], [1 / 3] * 3,
                                       [0.1] * 10])
    def test_each_bin_moves_by_less_than_2_to_the_minus_32(self, probs):
        e = finite_support([np.eye(1) * i for i in range(len(probs))], probs)
        edges = np.concatenate([[0], e._cuts.astype(np.int64), [2**32]])
        assert np.all(np.abs(np.diff(edges) / 2.0**32 - e.probabilities) < 2.0**-32)

    def test_binary_search_equals_the_compare_path(self, wide300, monkeypatch):
        words = np.concatenate([_edge_words(wide300, 5), RngStream(6).words(65536)])
        searched = wide300.support_indices(words)
        monkeypatch.setattr(ensembles, "_COMPARE_MAX_SUPPORT", 10**6)
        compared = wide300.support_indices(words)
        assert compared.dtype == searched.dtype == np.uint16
        assert np.array_equal(compared, searched)
        assert np.array_equal(searched, _index_oracle(wide300, words))

    def test_keeps_the_shape(self, dense3):
        w = RngStream(4).words(15).reshape(3, 5)
        got = dense3.support_indices(w)
        assert got.shape == (3, 5)
        assert np.array_equal(got, _index_oracle(dense3, w.ravel()).reshape(3, 5))

    def test_family_guard(self, diag3):
        with pytest.raises(ValueError):
            diag3.support_indices(np.zeros(3, dtype=np.uint32))


class TestIndexCounts:
    """Per-row index counts straight from the words, against the counts of
    the row's support indices."""

    @staticmethod
    def _law(m, zeros):
        w = RngStream(m).words(m) * 2.0**-32 + 0.01
        for where in zeros:  # a zero weight leading, in the middle or trailing
            w[{"leading": 0, "middle": m // 2, "trailing": m - 1}[where]] = 0.0
        return finite_support([np.eye(1) * i for i in range(m)], w / w.sum())

    # counted by compares up to m = 16, by sorting each row from m = 17
    @pytest.mark.parametrize("m", [1, 2, 5, 16, 17, _CUT, _CUT + 1, 300])
    @pytest.mark.parametrize("zeros", [(), ("leading",), ("middle",), ("trailing",),
                                       ("leading", "middle", "trailing")])
    def test_counts_are_the_bincounts_of_the_indices(self, m, zeros):
        if m < 3 and zeros:
            zeros = zeros[-1:] if m == 2 else ()
        e, n = self._law(m, zeros), 301  # odd n
        words = RngStream(m).words(7 * n).reshape(7, n)
        words[0, : len(e._cuts)] = e._cuts  # every cut point, and its neighbours
        words[1, : len(e._cuts)] = e._cuts - (e._cuts > 0)
        words[2, :2] = 0, 2**32 - 1
        got = e.index_counts(words)
        assert got.shape == (7, m) and got.dtype == np.int64
        for row, counts in zip(words, got):
            assert np.array_equal(counts, np.bincount(e.support_indices(row), minlength=m))

    def test_sorted_search_equals_the_compare_path(self, wide300, monkeypatch):
        words = RngStream(8).words(5 * 1001).reshape(5, 1001)
        searched = wide300.index_counts(words)
        monkeypatch.setattr(ensembles, "_COUNT_MAX_SUPPORT", 10**6)
        assert np.array_equal(wide300.index_counts(words), searched)

    @pytest.mark.parametrize("m", [1, 20])
    def test_a_support_without_cuts(self, m):
        # all weight on index 0: its cut is 2^32, which no word reaches
        e = finite_support([np.eye(1) * i for i in range(m)], [1.0] + [0.0] * (m - 1))
        assert len(e._cuts) == 0
        got = e.index_counts(RngStream(9).words(3 * 7).reshape(3, 7))
        assert np.array_equal(got, np.eye(1, m, dtype=np.int64).repeat(3, axis=0) * 7)

    def test_family_guard(self, diag3):
        with pytest.raises(ValueError):
            diag3.index_counts(np.zeros((1, 3), dtype=np.uint32))


def _loop_projection(e, w, u) -> float:
    """E <w, (A - EA) u>^2 of one pair, one support matrix at a time."""
    if not e.is_finite_support:
        return (e.high - e.low) ** 2 / 12.0 * float(np.sum((w * u) ** 2))
    return sum(p * float(w @ ((a - e.mean()) @ u)) ** 2
               for p, a in zip(e.probabilities, e.support))


class TestMoments:
    def test_two_point_mean(self, nilp3):
        ref = 0.5 * (nilp3.support[0] + nilp3.support[1])
        assert np.allclose(nilp3.mean(), ref, rtol=0, atol=1e-16)

    def test_two_point_central_second_moment_closed_form(self):
        a0 = np.array([[0.2, -0.1], [0.3, 0.0]])
        a1 = np.array([[-0.4, 0.2], [0.1, 0.5]])
        p = 0.3
        e = two_point(a0, a1, p)
        diff = a0 - a1
        ref = p * (1 - p) * np.kron(diff, diff)
        assert np.allclose(e.central_second_moment(), ref, rtol=1e-14, atol=1e-16)

    def test_centered_projection_matches_kron_route(self, moment_law):
        # ten (w, u) rows in one call, each against the lifted moment and the
        # per-matrix loop
        e = moment_law
        rng = np.random.default_rng(4)
        w, u = rng.standard_normal((2, 10, e.dim))
        c = e.central_second_moment()
        direct = e.centered_projection(w, u)
        assert direct.shape == (10,)
        for r in range(10):
            lifted = float(np.kron(w[r], w[r]) @ c @ np.kron(u[r], u[r]))
            assert direct[r] == pytest.approx(lifted, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(direct, [_loop_projection(e, *r) for r in zip(w, u)],
                                   rtol=1e-13, atol=0.0)
        # leading axes are kept, and a single pair gives a scalar
        assert e.centered_projection(w.reshape(2, 5, -1), u.reshape(2, 5, -1)).shape == (2, 5)
        assert np.ndim(e.centered_projection(w[0], u[0])) == 0

    def test_centered_action_and_total_match_the_per_matrix_loops(self, moment_law):
        e = moment_law
        rng = np.random.default_rng(5)
        x = rng.standard_normal((e.dim, e.dim))
        tally = (rng.integers(0, 50, (3, len(e.support))) if e.is_finite_support
                 else rng.standard_normal((3, e.dim)))
        if e.is_finite_support:
            deltas = [a - e.mean() for a in e.support]
            action = sum(p * (dl @ x @ dl.T) for p, dl in zip(e.probabilities, deltas))
            total = sum(c * dl for c, dl in zip(tally.sum(axis=0).tolist(), deltas))
        else:
            action = np.diag((e.high - e.low) ** 2 / 12.0 * np.diagonal(x))
            total = np.diag(tally.sum(axis=0))
        np.testing.assert_allclose(e.centered_action(x), action, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(e.centered_total(tally), total, rtol=1e-13, atol=1e-12)

    def test_mean_is_computed_once_and_read_only(self, moment_law):
        e = moment_law
        assert e.mean() is e.mean()
        assert not e.mean().flags.writeable
        if e.is_finite_support:
            acc = np.zeros((e.dim, e.dim))
            for p, a in zip(e.probabilities, e.support):
                acc += p * a
        else:
            acc = np.eye(e.dim) * ((e.low + e.high) / 2.0)
        assert np.array_equal(e.mean(), acc)

    @pytest.mark.parametrize("fix", ["dense3", "scalar01", "wide300", "point2"])
    def test_mean_exp_scaled_is_the_loop_over_single_exponentials(self, fix, request):
        e, n = request.getfixturevalue(fix), 16
        acc = np.zeros((e.dim, e.dim))
        for p, a in zip(e.probabilities, e.support):
            acc += p * mat_exp(a / n)
        assert np.array_equal(e.mean_exp_scaled(n), acc)

    def test_support_is_one_read_only_stack(self, wide300, diag3):
        assert wide300.support.shape == (300, 3, 3)
        assert not wide300.support.flags.writeable
        assert not wide300._deltas.flags.writeable
        assert np.array_equal(wide300._deltas, wide300.support - wide300.mean())
        assert diag3.support is None

    def test_mean_exp_scaled_finite_sum(self, scalar02):
        n = 16
        ref = 0.5 * (1.0 + np.exp(2.0 / n))
        assert scalar02.mean_exp_scaled(n)[0, 0] == pytest.approx(ref, rel=1e-15)

    def test_mean_exp_scaled_diagonal_closed_form(self, diag3):
        n = 8
        got = diag3.mean_exp_scaled(n)
        # reference: dense Gauss-Legendre quadrature of E e^{u/n}
        from expclt import gauss_legendre
        rule = gauss_legendre(64)
        us = diag3.low + (diag3.high - diag3.low) * rule.nodes
        ref = rule.weights @ np.exp(us / n)
        assert np.allclose(got, np.eye(3) * ref, rtol=1e-13)

    def test_deterministic_moments_are_exact_zero(self, point2):
        assert np.all(point2.central_second_moment() == 0.0)
        assert point2.centered_projection(np.ones(2), np.ones(2)) == 0.0
        rows = np.random.default_rng(9).standard_normal((7, 2))
        assert np.array_equal(point2.centered_projection(rows, rows[::-1]), np.zeros(7))

    def test_estimate_mean_mc_consistency(self, nilp3):
        est = nilp3.estimate_mean_mc(200000, RngStream(13))
        err = np.linalg.norm(est - nilp3.mean())
        # entries are bounded by 0.9; 4 sigma on 2e5 draws
        assert err <= 4 * 0.9 / np.sqrt(200000) * 3

    def test_estimate_mean_mc_deterministic_replay(self, diag3):
        a = diag3.estimate_mean_mc(1000, RngStream(21, 2))
        b = diag3.estimate_mean_mc(1000, RngStream(21, 2))
        assert np.array_equal(a, b)


class TestShift:
    def test_shift_moves_mean_only(self, dense3):
        sh = dense3.shifted(0.7)
        assert np.allclose(sh.mean(), dense3.mean() + 0.7 * np.eye(3),
                           rtol=0, atol=1e-15)
        # the shift cancels when re-centering, up to rounding of a +- c
        assert np.allclose(sh.central_second_moment(),
                           dense3.central_second_moment(),
                           rtol=1e-14, atol=1e-16)

    def test_shift_diagonal(self, diag3):
        sh = diag3.shifted(-1.0)
        assert sh.low == pytest.approx(-1.5) and sh.high == pytest.approx(0.0)
        assert sh.family == "diagonal_uniform"

    def test_shift_preserves_family(self, scalar01, point2):
        assert scalar01.shifted(1.0).family == "two_point"
        assert point2.shifted(1.0).family == "deterministic"


@st.composite
def _prob_vectors(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=m, max_size=m))
    arr = np.asarray(raw)
    return arr / arr.sum()


@settings(max_examples=40, deadline=None)
@given(probs=_prob_vectors(), seed=st.integers(min_value=0, max_value=2**32))
def test_sample_indices_always_in_range(probs, seed):
    mats = [np.eye(2) * i for i in range(len(probs))]
    e = finite_support(mats, probs)
    idx = e.sample_indices(RngStream(seed), 256)
    assert idx.min() >= 0 and idx.max() < len(probs)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.floats(min_value=-2, max_value=2), min_size=8, max_size=8),
    p=st.floats(min_value=0.0, max_value=1.0),
    wu=st.lists(st.floats(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_centered_projection_nonnegative(entries, p, wu):
    a0 = np.asarray(entries[:4]).reshape(2, 2)
    a1 = np.asarray(entries[4:]).reshape(2, 2)
    e = two_point(a0, a1, p)
    assert e.centered_projection(np.asarray(wu[:2]), np.asarray(wu[2:])) >= 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 + 10),
       parts=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=3))
def test_child_streams_replay(seed, parts):
    a = RngStream(seed).child(*parts).words(4)
    b = RngStream(seed).child(*parts).words(4)
    assert np.array_equal(a, b)
