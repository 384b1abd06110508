import importlib
import itertools
import pkgutil
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import squareful
from squareful import dynamics, streams
from squareful.omega import OmegaParams, OmegaSystem
from squareful.squares import build_alphabet, factor_minimal_squares, sqrt_finite
from squareful.streams import (
    InfiniteWord,
    SLProduct,
    SourcePoisonedError,
    decimate,
    expand,
    periodic_word,
    shift,
    sl_cycle,
    sqrt_stream,
)

S, L = "01010010", "10010010"
ALPH = build_alphabet(1, 0)


def traced_peak(fn) -> int:
    """Peak traced bytes above the current level while ``fn()`` runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture()
def sys():
    return OmegaSystem(OmegaParams())


class TestInfiniteWord:
    def test_prefix_examples(self, sys):
        assert periodic_word(S).prefix(10) == "0101001001"
        assert shift(periodic_word(S), 3).prefix(5) == "10010"
        assert sys.big_gamma(1).prefix(8) == S

    def test_monotone_and_deterministic(self):
        src = periodic_word("0110")
        a = src.prefix(5)
        b = src.prefix(11)
        assert b.startswith(a)
        assert src.prefix(5) == a
        assert src.prefix(11) == b

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=12))
    def test_window_matches_prefix(self, cuts):
        def chunks():
            for i in itertools.count():
                yield "01101" * (i % 3 + 1)

        src = InfiniteWord(chunks())
        ref = InfiniteWord(chunks())
        hi = max(cuts) + 50
        text = ref.prefix(hi)
        for c in cuts:
            assert src.window(c, c + 17) == text[c : c + 17]
        assert src.prefix(hi) == text

    @given(st.data())
    def test_random_queries_return_reference_slices(self, data):
        # queries on a source and on shifted views of it interleave; a view
        # reads the source's memo, so the source counts the view's letters
        ref = data.draw(st.text(alphabet="01SL", min_size=1, max_size=300))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(ref)), max_size=12)))
        bounds = [0, *cuts, len(ref)]
        src = InfiniteWord([ref[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        offsets = [0, *data.draw(st.lists(st.integers(0, len(ref) - 1), max_size=3))]
        views = {j: shift(src, j) for j in offsets}
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from(offsets), st.sampled_from(["prefix", "window", "letter"]),
                      st.integers(0, len(ref)), st.integers(0, len(ref))),
            min_size=1, max_size=20))
        asked, src_asked = dict.fromkeys(offsets, 0), 0
        for j, kind, x, y in calls:
            word, text = views[j], ref[j:]
            x, y = min(x, len(text)), min(y, len(text))
            if kind == "prefix":
                got, want, stop = word.prefix(x), text[:x], x
            elif kind == "window":
                lo, hi = min(x, y), max(x, y)
                got, want, stop = word.window(lo, hi), text[lo:hi], hi
            else:
                i = min(x, len(text) - 1)
                got, want, stop = word.letter(i), text[i], i + 1
            asked[j] = max(asked[j], stop)
            src_asked = max(src_asked, j + stop)
            assert got == want
            assert src.max_queried == src_asked
            assert all(views[k].max_queried == asked[k] for k in offsets if k)

    @settings(deadline=None)
    @given(st.data())
    def test_random_queries_on_expand_and_its_root(self, data):
        # an S/L product at a random shift and its square root, queried in
        # random interleaving against the letters and their greedy roots
        names = data.draw(st.text(alphabet="SL", min_size=1, max_size=12))
        j = data.draw(st.integers(0, len(S) - 1))
        blocks = periodic_word(names)
        word = expand(SLProduct(blocks, j, S, L))
        root = sqrt_stream(ALPH, word)
        hi, reach = 120, ALPH.max_square_len
        letters = names.translate({ord("S"): S, ord("L"): L})
        text = (letters * ((2 * hi + 2 * reach + j) // len(letters) + 1))[j:]
        roots, failure = factor_minimal_squares(ALPH, text)
        # every shift of an S/L product is squareful; only the cut tail fails
        assert failure is None or failure > len(text) - reach
        roots = "".join(roots)
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from([word, root]), st.sampled_from(["prefix", "window", "letter"]),
                      st.integers(0, hi), st.integers(0, hi)),
            min_size=1, max_size=12))
        stops = {id(word): 0, id(root): 0}
        for target, kind, x, y in calls:
            if kind == "prefix":
                lo, stop, query = 0, x, lambda: target.prefix(x)
            elif kind == "window":
                lo, stop = min(x, y), max(x, y)
                query = lambda: target.window(lo, stop)
            else:
                lo, stop = min(x, hi - 1), min(x, hi - 1) + 1
                query = lambda: target.letter(lo)
            stops[id(target)] = max(stops[id(target)], stop)
            assert query() == (text if target is word else roots)[lo:stop]
            assert root.max_queried == stops[id(root)]
            assert stops[id(word)] <= word.max_queried <= max(stops[id(word)],
                                                              2 * root.max_queried + reach)
            read = word.max_queried
            assert blocks.max_queried == (-(-(read + j) // len(S)) if read else 0)

    def test_letter(self):
        src = periodic_word(S)
        assert [src.letter(i) for i in range(8)] == list(S)

    def test_views_retain_no_letters(self):
        # a periodic word and Gamma1 are views: reading them keeps no letters
        sys = OmegaSystem(OmegaParams())
        sys.big_gamma(1).prefix(2 * 10**5)  # builds the cached tau blocks
        word, gamma = periodic_word(S), sys.big_gamma(1)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert len(word.prefix(10**6)) == 10**6
            for a in range(0, 10**6, 10**5):
                assert len(gamma.window(a, a + 10**5)) == 10**5
            held = tracemalloc.get_traced_memory()[0] - base  # with both words alive
        finally:
            if not tracing:
                tracemalloc.stop()
        assert held < 2**16

    def test_from_function_calls_f_on_the_requested_indices(self):
        calls = []
        word = streams.from_function(lambda i: calls.append(i) or "SL"[i % 2], "f")
        assert (word.window(5, 9), word.letter(20), word.prefix(3)) == ("LSLS", "S", "SLS")
        assert calls == [5, 6, 7, 8, 20, 0, 1, 2]

    def test_chunks_read_before_the_end_are_kept(self):
        src = InfiniteWord(["ab", "c"], "abc")
        with pytest.raises(SourcePoisonedError) as exc:
            src.prefix(5)
        assert exc.value.position == 3
        assert src.prefix(3) == "abc" and src.window(1, 3) == "bc"

    def test_one_read_path(self):
        # every word is read through InfiniteWord.window; subclasses override
        # only the _window (and _fill) hooks
        for info in pkgutil.iter_modules(squareful.__path__):
            importlib.import_module(f"squareful.{info.name}")
        found, todo = [], InfiniteWord.__subclasses__()
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if cls.__module__.startswith("squareful."):
                found.append(cls)
        assert {"_ShiftedWord", "_TauFixedPoint", "_SqrtWord"} <= {c.__name__ for c in found}
        for cls in found:
            assert not {"window", "prefix", "letter", "ensure"} & set(vars(cls)), cls
        assert not hasattr(InfiniteWord, "ensure")


class TestShift:
    def test_composition(self):
        w = periodic_word("0110100")
        assert shift(shift(w, 3), 4).prefix(30) == shift(periodic_word("0110100"), 7).prefix(30)

    def test_full_period_shift(self):
        assert shift(periodic_word(S), len(S)).prefix(40) == periodic_word(S).prefix(40)

    def test_zero_shift_is_identity(self, sys):
        g = sys.big_gamma(1)
        assert shift(g, 0) is g

    def test_shares_the_source_memo(self):
        sys = OmegaSystem(OmegaParams())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            view = shift(sys.gamma_star(1), 48)
            assert len(view.prefix(3 * 10**6)) == 3 * 10**6
            held = tracemalloc.get_traced_memory()[0] - base  # with the view alive
        finally:
            if not tracing:
                tracemalloc.stop()
        # the source's memo holds 3 M names; a copy in the view would double it
        assert held < 4.5 * 2**20


class TestDecimate:
    def test_matches_letter_by_letter_decimation(self):
        # random heads and offsets, read through random windows, against the
        # names taken one letter at a time from a second copy of the source
        rng = random.Random(10)
        reference = OmegaSystem(OmegaParams()).gamma_star(1)
        for _ in range(40):
            head = rng.choice(("", "S", "L"))
            offset = rng.randrange(0, 50)
            word = decimate(OmegaSystem(OmegaParams()).gamma_star(1), offset, head, "d")
            for _ in range(5):
                lo = rng.randrange(0, 3000)
                hi = lo + rng.randrange(0, 3000)
                want = "".join(head if t < len(head) else reference.letter(offset + 2 * (t - len(head)))
                               for t in range(lo, hi))
                assert word.window(lo, hi) == want

    def test_one_window_per_request(self):
        calls = []
        src = periodic_word("SLLSL")
        word = decimate(src, 3, "L", "d")
        original = src.window
        src.window = lambda a, b: calls.append((a, b)) or original(a, b)
        assert word.prefix(1000) == "L" + ("SLLSL" * 400)[3:2000:2]
        assert calls == [(3, 2000)]

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.text("SL", min_size=1, max_size=12),
           levels=st.lists(st.tuples(st.integers(0, 5), st.text("SL", max_size=2)), min_size=1, max_size=6),
           lo=st.integers(0, 40), n=st.integers(0, 40))
    def test_nested_decimations_are_one_view(self, pattern, levels, lo, n):
        # a decimation of a decimation reads the first source with one window
        # per request, spells the letters of the nested views and keeps a
        # period of them
        def nested_letter(t):
            for offset, head in reversed(levels):
                if t < len(head):
                    return head[t]
                t = offset + 2 * (t - len(head))
            return pattern[t % len(pattern)]

        src, calls = periodic_word(pattern), []
        original = src.window
        src.window = lambda a, b: calls.append((a, b)) or original(a, b)
        word = src
        for offset, head in levels:
            word = decimate(word, offset, head, "d")
        assert word.window(lo, lo + n) == "".join(map(nested_letter, range(lo, lo + n)))
        assert len(calls) <= 1
        start, p = word.period()
        text = "".join(map(nested_letter, range(start + 3 * p + 16)))
        assert text[start + p :] == text[start : len(text) - p]


class TestSqrtStream:
    def test_fixed_words(self, sys):
        sbar = "1001001010010"
        assert sqrt_stream(ALPH, periodic_word(sbar)).prefix(3 * 13) == sbar * 3
        g = sys.big_gamma(1)
        assert sqrt_stream(ALPH, sys.big_gamma(1)).prefix(5000) == g.prefix(5000)

    def test_section3_image(self, sys):
        # T^4 of two S blocks: the square root starts with 010010
        prod = sl_cycle("S", sys.s_word, sys.l_word, 4)
        out = sqrt_stream(ALPH, expand(prod))
        assert out.prefix(6) == "010010"

    def test_laziness_bound(self, sys):
        for m in (1, 5, 50, 333, 2048):
            src = sys.big_gamma(1)
            out = sqrt_stream(ALPH, src)
            out.prefix(m)
            assert src.max_queried <= 2 * m + 2 * len("10010")

    def test_agrees_with_finite_root_on_square_prefixes(self, sys):
        g = sys.big_gamma(1)
        text = g.prefix(400)
        roots, _ = factor_minimal_squares(ALPH, text)
        covered = sum(2 * len(r) for r in roots)
        out = sqrt_stream(ALPH, sys.big_gamma(1))
        assert out.prefix(covered // 2) == sqrt_finite(ALPH, text[:covered])

    def test_first_letter_preserved(self, sys):
        for src in (sys.big_gamma(1), sys.big_gamma(2), sys.s_omega(), sys.l_omega()):
            out = sqrt_stream(ALPH, src)
            assert out.prefix(1) == src.prefix(1)

    @pytest.mark.parametrize("piece", [10, 11, 17, 64])
    def test_squares_straddle_pieces(self, sys, monkeypatch, piece):
        monkeypatch.setattr(streams, "SQRT_PIECE", piece)
        text = sys.big_gamma(1).prefix(400)
        roots, _ = factor_minimal_squares(ALPH, text)
        covered = sum(2 * len(r) for r in roots)
        out = sqrt_stream(ALPH, sys.big_gamma(1))
        assert out.prefix(covered // 2) == sqrt_finite(ALPH, text[:covered])

    @pytest.mark.parametrize("piece", [10, 11, 17, 64])
    @pytest.mark.parametrize("first", range(6))
    def test_poison_just_past_a_piece(self, monkeypatch, piece, first):
        # squares up to the first square end past the piece, then garbage
        monkeypatch.setattr(streams, "SQRT_PIECE", piece)
        squares = itertools.cycle(ALPH.squares[first:] + ALPH.squares[:first])
        good = ""
        while len(good) <= piece:
            good += next(squares)

        def stream():
            return sqrt_stream(ALPH, InfiniteWord(itertools.chain([good], itertools.repeat("1" * 16))))

        out = stream()
        with pytest.raises(SourcePoisonedError) as exc:
            out.prefix(len(good) // 2 + 1)
        assert exc.value.position == len(good)
        assert out.prefix(len(good) // 2) == sqrt_finite(ALPH, good)
        assert stream().prefix(len(good) // 2) == sqrt_finite(ALPH, good)

    def test_memory(self):
        # the memo holds one part per piece, not one per square
        sys = OmegaSystem(OmegaParams())
        src = sys.big_gamma(1)
        m = 3 * 10**5
        text = src.prefix(2 * m + ALPH.max_square_len)
        out = sqrt_stream(ALPH, src)
        assert traced_peak(lambda: out.prefix(m)) < 3 * 2**20
        assert out.prefix(m) == text[:m]

    def test_poisoned_source(self):
        bad = periodic_word("11")  # no minimal square ever matches
        out = sqrt_stream(ALPH, bad)
        with pytest.raises(SourcePoisonedError) as exc:
            out.prefix(1)
        assert exc.value.position == 0
        with pytest.raises(SourcePoisonedError):
            out.prefix(1)
        assert out.prefix(0) == ""

    def test_poison_position_mid_stream(self):
        # valid square, then garbage: failure lands after the first square
        bad = InfiniteWord(iter(["0101" + "11", "1" * 64, "1" * 64]))
        out = sqrt_stream(ALPH, bad)
        with pytest.raises(SourcePoisonedError) as exc:
            out.prefix(3)
        assert exc.value.position == 4


class TestPeriod:
    def test_unknown_is_none(self, sys):
        for word in (sys.big_gamma(1), shift(sys.big_gamma(1), 3), sqrt_stream(ALPH, sys.big_gamma(2)),
                     decimate(sys.gamma_star(1), 0, "", "d")):
            assert word.period() is None

    def test_shift_keeps_the_period(self, sys):
        # T^3(S^w) is L^w: its orbit is periodic and fixed from step 0
        word = shift(sys.s_omega(), 3)
        assert word.period() == (0, 8) and sys.rotation_index(word) == 3
        record = dynamics.iterate_sqrt(sys, word, 3)
        assert record.n_fixed == 0 and {s.outcome for s in record.steps} == {"periodic"}
        # a period from a later start moves back by the shift, down to 0
        blocks = decimate(periodic_word("SSL"), 0, "LL", "d")
        assert blocks.period() == (2, 3)
        assert [shift(blocks, j).period() for j in (1, 2, 5)] == [(1, 3), (0, 3), (0, 3)]
        assert shift(blocks, 1).prefix(12) == blocks.prefix(13)[1:]

    def test_sqrt_cubed_of_section3_word(self, sys):
        word = expand(sl_cycle("S", sys.s_word, sys.l_word, 4))
        assert word.period() == (0, 8)
        for _ in range(3):
            word = sqrt_stream(ALPH, word)
        assert word.prefix(8) == S and sys.rotation_index(word) == 0

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.text("SL", min_size=1, max_size=12), shift_letters=st.integers(0, 7),
           offset=st.integers(0, 5), head=st.text("SL", max_size=3), steps=st.integers(0, 3))
    def test_derived_periods_hold(self, pattern, shift_letters, offset, head, steps):
        # every derived period is a period of the letters from its start on
        blocks = decimate(periodic_word(pattern), offset, head, "d")
        word = expand(streams.SLProduct(blocks, shift_letters, S, L))
        for _ in range(steps):
            word = sqrt_stream(ALPH, word)
        for src in (blocks, word):
            start, p = src.period()
            text = src.prefix(start + 3 * p + 64)
            assert text[start + p :] == text[start : len(text) - p]

    def test_walk_reads_only_when_asked(self):
        src = periodic_word("0101" + "00" + "1010")
        root = sqrt_stream(ALPH, src)
        assert src.max_queried == 0
        assert root.period() == (0, 5) and src.max_queried == 10
        assert root.prefix(10) == "01010" * 2

    def test_walk_poisons_on_a_non_squareful_period(self):
        root = sqrt_stream(ALPH, periodic_word("0101" + "11"))
        with pytest.raises(SourcePoisonedError) as exc:
            root.period()
        assert exc.value.position == 4


    def test_failed_walk_serves_the_letters_before_the_failure(self):
        # the period 010101001001011 tokenizes to offset 28, past its end: a
        # request that reads one period but stops short of 28 is served
        word = "010101001001011"
        root = sqrt_stream(ALPH, periodic_word(word))
        assert root.prefix(14) == sqrt_finite(ALPH, (word * 2)[:28])
        for ask in (root.period, lambda: root.prefix(15)):
            with pytest.raises(SourcePoisonedError) as exc:
                ask()
            assert exc.value.position == 28

class TestPeriodicOrbits:
    def test_decimations_read_one_period(self, sys):
        # each type A step doubles the stride over the names SLL; read modulo
        # their period, a window of the 24th root spells no long stretch
        src = expand(sl_cycle("SLL", sys.s_word, sys.l_word))
        record = []
        assert traced_peak(lambda: record.append(dynamics.iterate_sqrt(sys, src, 24))) < 2 * 2**20
        assert {s.outcome for s in record[0].steps} == {"A"}

    def test_roots_repeat_past_their_period(self, sys):
        # the 5/13 rotation word is squareful here but outside the periodic
        # part; each root past its first period is read from it, so the 18
        # nested roots do not each read twice their output from the one below
        src = periodic_word("0010010100101")
        record = []
        assert traced_peak(lambda: record.append(dynamics.iterate_sqrt(sys, src, 18))) < 2 * 2**20
        assert {s.outcome for s in record[0].steps} == {"stream"}


class TestSLProduct:
    def test_expand_examples(self, sys):
        assert expand(sl_cycle("S", sys.s_word, sys.l_word)).prefix(24) == sys.s_word * 3
        lss = expand(sl_cycle("LSS", sys.s_word, sys.l_word))
        assert lss.prefix(24) == sys.l_word + sys.s_word * 2
        g2 = sys.big_gamma(2)
        blocks = sys.gamma_star(2)
        prod = streams.SLProduct(blocks, 0, sys.s_word, sys.l_word)
        assert expand(prod).prefix(500) == g2.prefix(500)

    def test_memory(self):
        # one translated part per request, not one part per block
        sys = OmegaSystem(OmegaParams())
        assert traced_peak(lambda: sys.big_gamma(1).prefix(6 * 10**5)) < 1.5 * 2**20

    def test_validation(self, sys):
        with pytest.raises(ValueError):
            streams.SLProduct(periodic_word("S"), 9, sys.s_word, sys.l_word)
        with pytest.raises(ValueError):
            streams.SLProduct(periodic_word("S"), 0, sys.s_word, "01")
        with pytest.raises(ValueError):
            sl_cycle("SX", sys.s_word, sys.l_word)

    def test_block_words(self, sys):
        prod = sl_cycle("SL", sys.s_word, sys.l_word)
        assert prod.blocks.prefix(3) == "SLS"
        assert expand(prod).prefix(24) == sys.s_word + sys.l_word + sys.s_word
