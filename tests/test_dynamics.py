import ast
import collections
import functools
import itertools
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from squareful import dynamics, equation, squares, streams
from squareful.dynamics import OrbitEngine
from squareful.omega import (
    D_LOOKAHEAD, PERIODIC, SWAPPED, TYPE_B, TYPE_C, TYPE_D, OmegaParams, OmegaSystem,
)
from squareful.streams import expand, shift
from squareful.sturmian import RotationSystem

from conftest import GRID, grid_systems, indexed_word


@pytest.fixture(scope="module")
def sys():
    return OmegaSystem(OmegaParams())


@pytest.fixture(scope="module")
def engine(sys):
    return OrbitEngine(sys)


def section3_fetch(sys):
    star = sys.gamma_star(1)
    return lambda i: "S" if i < 2 else star.letter(i - 2)


class TestEstimates:
    def test_fibonacci_estimate_reference_values(self):
        for s_len, want in ((8, "3.47"), (13, "4.16"), (144, "7.63"), (6765, "13.19")):
            assert dynamics.fibonacci_estimate(s_len) == want

    def test_format_truncates(self):
        # the values are 4.1654... and 7.6366..., which round up
        assert dynamics.fibonacci_estimate(13) == "4.16"
        assert dynamics.fibonacci_estimate(144) == "7.63"
        # the float formula, truncated, agrees wherever it is far from a digit
        golden, fibs = (1 + math.sqrt(5)) / 2, [1, 2]
        while fibs[-1] < 10**12:
            fibs.append(fibs[-1] + fibs[-2])
        for f_km1, f_k in zip(fibs, fibs[1:]):
            value = 100 * math.log2((golden - 1) * (golden * f_k + f_km1))
            if abs(value - round(value)) > 1e-6:
                assert dynamics.fibonacci_estimate(f_k) == f"{math.floor(value) / 100:.2f}"

    def test_rejects_non_fibonacci(self):
        with pytest.raises(ValueError):
            dynamics.fibonacci_estimate(12)

def letter_scan_junction(sys, hits):
    """The junction form read letter by letter, the oracle for
    :func:`squareful.dynamics.junction_signature`: the two prefixes differ
    in exactly one adjacent transposed pair, the first two letters of a
    block on the hits' block grid, and everything before the block before
    it is a product of minimal squares.  It cannot see a swap whose second
    letter lies past the prefix."""
    if len(hits) != 2 or hits[0].shift != hits[1].shift:
        return False
    a, b = hits[0].preimage_prefix, hits[1].preimage_prefix
    diffs = [i for i in range(min(len(a), len(b))) if a[i] != b[i]]
    if len(diffs) != 2 or diffs[1] != diffs[0] + 1:
        return False
    p, n = diffs[0], sys.block_len
    if a[p : p + 2] != b[p + 1] + b[p] or (p - (n - hits[0].shift) % n) % n:
        return False
    if p >= n:
        if a[p - n : p] not in (sys.s_word, sys.l_word):
            return False
        before = a[: p - n]
        if before and not squares.in_pi(sys.alphabet, before):
            return False
    return True


def only_the_last_letter_differs(hits):
    a, b = hits[0].preimage_prefix, hits[1].preimage_prefix
    return a[:-1] == b[:-1] and a != b


def widened(sys, hits):
    """The hits with their prefixes spelled one letter further from their
    windows, which shows both letters of a swap on the last letter."""
    return [dynamics.PreimageHit(sys.sigma(h.window)[h.shift : h.shift + len(h.preimage_prefix) + 1],
                                 h.shift, h.window) for h in hits]


def fraction_cells(sys):
    """The rotation of slope p/n (n = |S|, p its 1s) and the intercepts
    ``c/n`` whose codings are S and L, found by scanning every cell."""
    n = sys.block_len
    rot = RotationSystem(Fraction(sys.s_word.count("1"), n))
    rho_s, rho_l = (next(rho for rho in map(Fraction, range(n), itertools.repeat(n))
                         # most cells are refused on a short prefix
                         if rot.coding(rho, 8) == word[:8] and rot.coding(rho, n) == word)
                    for word in (sys.s_word, sys.l_word))
    return rot, rho_s, rho_l


def fraction_phases(sys):
    """Rotation successors and phases by ``sqrt_intercept`` on Fraction
    intercepts, and the least ``t`` with ``2^t / n >= 1 - slope``: the oracle
    for :attr:`OmegaSystem.rotations`.  The successor of rotation ``j`` is the
    rotation whose half-open cell holds the image of its intercept; the
    phase iterates the image until it lies in the cell of S or of L."""
    rot, rho_s, rho_l = fraction_cells(sys)
    width = Fraction(1, rot.q)
    lows = [(rho_s + j * rot.slope) % 1 for j in range(rot.q)]
    index = {lo: j for j, lo in enumerate(lows)}
    successors, phases = [], []
    for rho in lows:
        image = rot.sqrt_intercept(rho)
        successors.append(index[math.floor(image * rot.q) * width])
        steps = 0
        while not any(lo <= rho < lo + width for lo in (rho_s, rho_l)):
            assert steps < rot.q
            rho, steps = rot.sqrt_intercept(rho), steps + 1
        phases.append(steps)
    return tuple(successors), tuple(phases), next(t for t in itertools.count() if 2**t * width >= 1 - rot.slope)


class TestRotationPhase:
    def test_bound_and_psi_steps(self, sys):
        _, phases, bound = sys.rotations
        assert bound == 3  # ceil(log2((1 - 3/8) / (1/8)))
        assert len(phases) == 8 and max(phases) <= bound

    def test_psi_steps_zero_cases(self, sys, engine):
        # only S^w and L^w start inside [S] or [L], and so does 1 - slope,
        # the fixed point of the intercept map
        successors, phases, _ = sys.rotations
        fixed = sorted([0, sys.conjugate_index(sys.l_word)])
        assert [j for j, p in enumerate(phases) if p == 0] == fixed
        assert [successors[j] for j in fixed] == fixed
        rot, _, _ = fraction_cells(sys)
        assert rot.coding(1 - rot.slope, rot.q) in (sys.s_word, sys.l_word)

    @pytest.mark.parametrize("params", [
        OmegaParams(), OmegaParams(c=2, k=5), OmegaParams(a=2, b=1, k=5, seed=SWAPPED),
    ])
    def test_phase_table_matches_psi(self, params, rotation_walk):
        # the cell table equals the tokenizer's rotation walk, and rotation j
        # is the coding of the j-th intercept
        sys = OmegaSystem(params)
        successors, phases, bound = sys.rotations
        rot, rho_s, _ = fraction_cells(sys)
        assert (successors, phases) == rotation_walk(sys)
        assert max(phases) <= bound
        s = sys.s_word
        assert all(rot.coding(rho_s + j * rot.slope, rot.q) == s[j:] + s[:j] for j in range(rot.q))

    def test_cells_equal_fraction_intercepts(self):
        # integer cells against Fraction intercepts, on the grid and on the
        # Fibonacci rows to 233
        systems = [*grid_systems(), *map(dynamics.fibonacci_system, (8, 13, 21, 34, 55, 89, 144, 233))]
        assert len(systems) == 116 and max(s.block_len for s in systems) == 233
        for sys in systems:
            assert sys.rotations == fraction_phases(sys), sys.params

    def test_rotation_successor_is_the_cell_map(self, rotation_walk):
        """The EJC 2017 theorem on cells: the square root of ``T^j(S^omega)``
        is ``T^succ(j)(S^omega)`` with ``succ(j) = (floor((c_j + n - p)/2) -
        c_S) p^-1 mod n``, ``c_j = c_S + j p mod n`` being its cell.  The
        table :attr:`OmegaSystem.rotations` equals the tokenizer's walk on the
        grid, successors and phases.

        The type rule of the remainder ``("S", j)`` is observed on this grid,
        not proved: B iff ``n - j`` is even and ``succ(j) = (n + j)/2``, C iff
        ``j`` is even and ``succ(j) = j/2``, otherwise D."""
        kinds = collections.Counter()
        for sys in grid_systems():
            n = sys.block_len
            successors, phases, _ = sys.rotations
            assert (successors, phases) == rotation_walk(sys), sys.params
            for j, succ in enumerate(successors[1:], 1):
                kind, _ = sys.sqrt_step("S", j, "SSSS")
                if (n - j) % 2 == 0 and succ == (n + j) // 2:
                    assert kind == TYPE_B, (sys.params, j)
                elif j % 2 == 0 and succ == j // 2:
                    assert kind == TYPE_C, (sys.params, j)
                else:
                    assert kind == TYPE_D, (sys.params, j)
                kinds[kind] += 1
        assert kinds == {TYPE_B: 752, TYPE_C: 724, TYPE_D: 1584}

    def test_engine_builds_no_table(self, monkeypatch):
        # the table is computed on the first type-D image, never in
        # __init__, and building an engine tokenizes nothing
        def unreachable(*args):
            raise AssertionError("called while building an engine")

        monkeypatch.setattr(OmegaSystem, "rotations", property(unreachable))
        monkeypatch.setattr(squares, "factor_minimal_squares", unreachable)
        for s_len in (8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987):
            assert OrbitEngine(dynamics.fibonacci_system(s_len)).n == s_len

    @pytest.mark.parametrize("params", [OmegaParams(), OmegaParams(a=2, b=1, c=2, k=5, seed=SWAPPED)])
    def test_one_rotation_table_per_system(self, params, monkeypatch, forward):
        # the engine, iterate_sqrt and the forward oracle read one table,
        # built once per system however many of them ask for it
        built, build = [], OmegaSystem.rotations.func
        table = functools.cached_property(lambda self: built.append(self) or build(self))
        table.__set_name__(OmegaSystem, "rotations")
        monkeypatch.setattr(OmegaSystem, "rotations", table)
        sys = OmegaSystem(params)
        assert OrbitEngine(sys).steps_supremum() >= 1
        for j in (1, 2, sys.block_len - 1):
            record = dynamics.iterate_sqrt(sys, shift(sys.s_omega(), j), 4)
            assert record.n_periodic == 0
        assert forward(sys, 1, "S", lambda i: "S") is not None
        assert built == [sys]


class TestOrbitEngine:
    def test_section3_word(self, sys, engine):
        assert engine.steps_to_fixed(4, "S", section3_fetch(sys)) == 3

    def test_already_periodic_tail(self, sys, engine):
        # all-S blocks with a type-b start: must land within the bound
        n = engine.steps_to_fixed(6, "S", lambda i: "S")
        assert n is not None and 1 <= n <= 3

    def test_supremum_small_rows(self):
        for s_len in (8, 13, 21):
            eng = OrbitEngine(dynamics.fibonacci_system(s_len))
            assert eng.steps_supremum() == dynamics.TABLE1_REFERENCE[s_len]

    @pytest.mark.parametrize("params", [OmegaParams(), OmegaParams(k=7), OmegaParams(a=2, b=1, c=2, k=5)])
    def test_constant_tail_reads_the_phase_or_one_more(self, params):
        # T^j(S^w) as a product with every block S: the forward count sees
        # periodicity only as a type-D image, so when a type B or C image is
        # already S^w or L^w it counts one step more than the exact phase
        sys = OmegaSystem(params)
        engine = OrbitEngine(sys)
        over = []
        for j in range(1, sys.block_len):
            phase = sys.rotations[1][j]
            assert dynamics.iterate_sqrt(sys, shift(sys.s_omega(), j), phase).n_fixed == phase
            over.append(engine.steps_to_fixed(j, "S", lambda i: "S") - phase)
        assert set(over) == {0, 1}

    def test_walk_keeps_block_coordinates(self):
        # the depths of the remainders are one table of |S| bytes, and the
        # kernel keeps nothing
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine = OrbitEngine(dynamics.fibonacci_system(610))
            assert engine.steps_supremum() == dynamics.TABLE1_REFERENCE[610]
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert kept < 128 * 2**10, kept

    def test_rejects_unshifted(self, engine):
        with pytest.raises(ValueError):
            engine.steps_to_fixed(0, "S", lambda i: "S")


class TestIterate:
    def test_section3_orbit_record(self, sys):
        star = sys.gamma_star(1)
        blocks = indexed_word(
            lambda i: "S" if i < 2 else star.letter(i - 2), "S2+Gamma1*"
        )
        prod = streams.SLProduct(blocks, 4, sys.s_word, sys.l_word)
        rec = dynamics.iterate_sqrt(sys, expand(prod), 4)
        assert [s.outcome for s in rec.steps] == ["C", "B", "D", "periodic", "periodic"]
        assert rec.n_periodic == 3
        assert rec.n_fixed == 3
        assert rec.steps[3].fingerprint == sys.s_word

    def test_gamma2_is_fixed(self, sys):
        rec = dynamics.iterate_sqrt(sys, sys.big_gamma(2), 3)
        assert rec.n_periodic is None
        assert len({s.fingerprint for s in rec.steps}) == 1

    def test_s_omega(self, sys):
        rec = dynamics.iterate_sqrt(sys, sys.s_omega(), 2)
        assert rec.n_periodic == 0
        assert rec.n_fixed == 0

    def test_long_run_of_s_blocks_then_gamma1(self, sys, engine):
        # the word agrees with a shift of S^omega on its first seventeen
        # blocks; the orbit must still take exactly the forward count's steps
        star = sys.gamma_star(1)
        blocks = indexed_word(lambda i: "S" if i < 18 else star.letter(i - 18), "S18+Gamma1*")
        for shift_letters in range(1, sys.block_len):
            src = expand(streams.SLProduct(blocks, shift_letters, sys.s_word, sys.l_word))
            want = engine.steps_to_fixed(shift_letters, "S", blocks.letter)
            assert dynamics.iterate_sqrt(sys, src, want + 1).n_fixed == want

    @settings(max_examples=80, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 3)), min_size=1, max_size=3)
           .filter(lambda runs: any(k + j for k, j in runs)), shift_letters=st.integers(0, 7))
    def test_product_route_equals_letter_route(self, sys, runs, shift_letters):
        pattern = "".join("S" * k + "L" * j for k, j in runs)
        letters = sys.sigma(pattern)
        product = dynamics.iterate_sqrt(
            sys, expand(streams.sl_cycle(pattern, sys.s_word, sys.l_word, shift_letters)), 5)
        letter = dynamics.iterate_sqrt(
            sys, streams.periodic_word(letters[shift_letters:] + letters[:shift_letters]), 5)
        assert [s.fingerprint for s in product.steps] == [s.fingerprint for s in letter.steps]
        assert [s.outcome == PERIODIC for s in product.steps] == [s.outcome == PERIODIC for s in letter.steps]
        assert (product.n_periodic, product.n_fixed) == (letter.n_periodic, letter.n_fixed)
        # blocks of |S| letters differ, so the start is a shift of S^omega exactly
        # when one block name repeats; a long run of S blocks must not pass
        assert (letter.n_periodic == 0) == (len(set(pattern)) == 1)

    def test_lexicographic_monotonicity(self, sys):
        # fingerprints never drop (words starting with 0) and rise within
        # every two steps until the orbit certifies periodic
        star = sys.gamma_star(1)
        for ell, first in ((2, "S"), (4, "S"), (6, "S")):
            blocks = indexed_word(
                lambda i, f=first: f if i == 0 else star.letter(i), "w"
            )
            src = expand(streams.SLProduct(blocks, ell, sys.s_word, sys.l_word))
            if src.prefix(1) != "0":
                continue
            rec = dynamics.iterate_sqrt(sys, src, 6)
            fps = [s.fingerprint for s in rec.steps]
            upto = rec.n_periodic if rec.n_periodic is not None else len(fps)
            for i in range(1, upto):
                assert fps[i - 1] <= fps[i]
            for i in range(2, upto):
                assert fps[i - 2] < fps[i]


class NestedDecimation(streams.InfiniteWord):
    """``head`` then every other letter of ``src`` from ``offset`` on, as a
    view of ``src`` itself, so the views of an orbit nest one level per step.
    Letters and periods walk down the levels in a loop."""

    def __init__(self, src, offset, head, descriptor):
        super().__init__((), descriptor)
        self.src, self.offset, self.head = src, offset, head

    def levels(self):
        word, levels = self, []
        while isinstance(word, NestedDecimation):
            levels.append(word)
            word = word.src
        return levels, word

    def _window(self, start, stop):
        levels, base = self.levels()
        out = []
        for t in range(start, stop):
            for level in levels:
                if t < len(level.head):
                    out.append(level.head[t])
                    break
                t = level.offset + 2 * (t - len(level.head))
            else:
                out.append(base.letter(t))
        return "".join(out)

    def period(self):
        levels, base = self.levels()
        known = base.period()
        for level in reversed(levels):
            known = known and (len(level.head) + max(0, -(-(known[0] - level.offset) // 2)),
                               known[1] // math.gcd(known[1], 2))
        return known


class TestLongOrbits:
    def test_two_thousand_steps_on_gamma1(self, sys):
        # each type A step decimates the block names once more; the view
        # stays one level deep, so no read recurses through earlier steps
        rec = dynamics.iterate_sqrt(sys, sys.big_gamma(1), 2000)
        assert len(rec.steps) == 2001
        assert {(s.outcome, s.fingerprint) for s in rec.steps} == {("A", sys.s_word)}

    def test_one_level_views_match_nested_views(self, sys, monkeypatch):
        # the fixed points take type A steps only; the run of S blocks gives
        # type B, C and D steps, and so heads, at the shifts below
        star = sys.gamma_star(1)
        blocks = indexed_word(lambda i: "S" if i < 18 else star.letter(i - 18), "S18+Gamma1*")
        sources = [lambda: sys.big_gamma(1), lambda: sys.big_gamma(2)] + [
            lambda ell=ell: expand(sys.product(blocks, ell)) for ell in (2, 4, 6)]
        flat = [dynamics.iterate_sqrt(sys, src(), 450) for src in sources]
        monkeypatch.setattr(streams, "decimate", NestedDecimation)
        nested = [dynamics.iterate_sqrt(sys, src(), 450) for src in sources]
        for a, b in zip(flat, nested):
            assert [(s.fingerprint, s.outcome, s.versus_start) for s in a.steps] == \
                   [(s.fingerprint, s.outcome, s.versus_start) for s in b.steps]
            assert (a.start, a.n_periodic, a.n_fixed) == (b.start, b.n_periodic, b.n_fixed)
        assert {s.outcome for rec in nested for s in rec.steps} == {"A", "B", "C", "D", "periodic"}


class PieceRoot(streams._SqrtWord):
    """The square root tokenized a piece at a time at every offset, also past
    its period, so each level of an orbit reads about twice its output from
    the level below."""

    _window = streams.InfiniteWord._window


class TestPeriodicOrbits:
    def test_records_match_reads_past_the_period(self, monkeypatch):
        # periodic letter words and block patterns: reading a decimation
        # modulo its source's period and a root modulo its own period leaves
        # every record of 14 steps as the nested views and piecewise roots give it
        systems = [OmegaSystem(OmegaParams()), OmegaSystem(OmegaParams(k=5)),
                   OmegaSystem(OmegaParams(a=2, b=1, c=2, k=4))]
        sources = [(systems[0], lambda: streams.periodic_word("0010010100101"))]  # the 5/13 rotation word
        for sys in systems:
            for pattern in ("S", "L", "SL", "SLL", "SSL", "SLSLL"):
                letters = sys.sigma(pattern)
                for j in (0, 3):
                    sources.append((sys, lambda sys=sys, p=pattern, j=j:
                                    expand(streams.sl_cycle(p, sys.s_word, sys.l_word, j))))
                    sources.append((sys, lambda w=letters[j:] + letters[:j]: streams.periodic_word(w)))

        def records():
            recs = [dynamics.iterate_sqrt(sys, make(), 14) for sys, make in sources]
            return [(r.start, r.n_periodic, r.n_fixed,
                     [(s.fingerprint, s.outcome, s.versus_start) for s in r.steps]) for r in recs]

        fast = records()
        monkeypatch.setattr(streams, "decimate", NestedDecimation)
        monkeypatch.setattr(streams, "sqrt_stream", PieceRoot)
        assert fast == records()
        assert len(fast) == 73


class TestTable1:
    def test_first_rows(self):
        rows = dynamics.table1_experiment([8, 13])
        assert [r.steps for r in rows] == [3, 4]

    @pytest.mark.parametrize("lead", ["S", "L"])
    def test_witness_replays_to_the_supremum(self, lead, forward):
        # the row's start attains the value with the other blocks named by
        # the Gamma* that starts with ``lead`` (and so does iterate_sqrt on
        # that word) or at random; an all-S tail may read one more
        rng = random.Random(lead)
        for row in dynamics.table1_experiment([8, 13, 21]):
            engine = OrbitEngine(dynamics.fibonacci_system(row.s_len))
            (shift_letters, first), sys = row.start, engine.sys
            star = sys.gamma_star("SL".index(lead) + 1)
            blocks = indexed_word(lambda i: first if i == 0 else star.letter(i - 1), "w")
            orbit = dynamics.iterate_sqrt(sys, expand(sys.product(blocks, shift_letters)), row.steps)
            fill = [rng.choice("SL") for _ in range(256)]
            assert forward(sys, *row.start, lambda i: star.letter(i - 1)) == row.steps
            assert orbit.n_fixed == row.steps
            assert forward(sys, *row.start, lambda i: fill[i % 256]) == row.steps

    def test_supremum_is_the_bit_length_of_the_zeros(self):
        # the conjectured closed form, off the Fibonacci rows
        checked = 0
        for sys in grid_systems():
            if sys.block_len <= 150:
                checked += 1
                want = sys.s_word.count("0").bit_length()
                assert OrbitEngine(sys).steps_supremum() == want, sys.params
        assert checked == 108


class TestNameFreeStep:
    def test_name_dependent_step_is_refused(self, monkeypatch):
        sys = OmegaSystem(OmegaParams())
        shift_letters, first = OrbitEngine(sys).start()
        step = sys.sqrt_step

        def tampered(head, cut, names):
            # the start's remainder now leads straight to S^w after an L block
            if (head, cut) == (first, shift_letters) and names[0] == "L":
                return TYPE_D, 0
            return step(head, cut, names)

        monkeypatch.setattr(sys, "sqrt_step", tampered)
        with pytest.raises(AssertionError, match="depends on the block names"):
            OrbitEngine(sys).steps_supremum()

    def test_sixteen_tails_per_remainder(self, monkeypatch):
        # a type-D image reaches at most four blocks after the remainder, so
        # the walk judges each remainder's step under the 16 four-name tails;
        # a step stands for every tail that starts with the names it read,
        # so the kernel is walked once per such prefix: once for type B,
        # twice for C and 2^r times for D, which reads r = 2, 3 or 4 names;
        # rotations add no step
        tails = ["".join(p) for p in itertools.product("LS", repeat=D_LOOKAHEAD)]
        for s_len in (8, 89):
            sys = dynamics.fibonacci_system(s_len)
            step, calls = sys.sqrt_step, {}

            def counted(first, shift_letters, names):
                out = step(first, shift_letters, names)
                calls.setdefault((first, shift_letters), []).append((names, out))
                return out

            monkeypatch.setattr(sys, "sqrt_step", counted)
            assert OrbitEngine(sys).steps_supremum() == dynamics.TABLE1_REFERENCE[s_len]
            kinds = set()
            for (first, shift_letters), taken in calls.items():
                (kind, _), = {out for _, out in taken}
                assert all(len(names) == D_LOOKAHEAD for names, _ in taken)
                reads = [names[: sys.names_read(kind, shift_letters)] for names, _ in taken]
                assert all(sum(tail.startswith(read) for read in reads) == 1 for tail in tails)
                assert len(reads) == 2 ** len(reads[0])
                kinds.add(kind)
            assert kinds == {TYPE_B, TYPE_C, TYPE_D}

    def test_supremum_is_the_largest_forward_count(self, forward):
        rng = random.Random(5)
        grid = [p for p in GRID if p.a <= 2 and p.b <= 1 and p.k in (4, 5)]  # |S| from 8 to 27
        for params in grid:
            sys = OmegaSystem(params)
            engine, fresh = OrbitEngine(sys), OmegaSystem(params)
            value = engine.steps_supremum()
            fill = [rng.choice("SL") for _ in range(256)]
            starts = [(shift, first) for shift in range(1, sys.block_len) for first in "SL"]
            assert value == max(forward(fresh, *s, lambda i: "S") for s in starts), params
            assert forward(fresh, *engine.start(), lambda i: fill[i % 256]) == value, params

    def test_depth_is_the_forward_count_on_the_grid(self, forward):
        # 40 starts per system, with random, Gamma1*-offset and constant
        # tails: the depth of the start's remainder is the forward count
        rng, checked = random.Random(28), 0
        for sys in grid_systems():
            if sys.block_len > 150:
                continue
            engine, fresh, star = OrbitEngine(sys), OmegaSystem(sys.params), sys.gamma_star(1)
            for t in range(40):
                seq, offset = [rng.choice("SL") for _ in range(256)], rng.randrange(10**4)
                const = rng.choice("SL")
                fetch = [lambda i: seq[i % 256], lambda i: star.letter(offset + i), lambda i: const][t % 3]
                start = rng.randrange(1, sys.block_len), rng.choice("SL")
                assert engine.steps_to_fixed(*start, fetch) == forward(fresh, *start, fetch), (sys.params, start)
                checked += 1
        assert checked == 108 * 40


class TestPreimages:
    def test_histogram_and_signature(self, sys):
        index = dynamics.PreimageIndex(sys)
        text = sys.big_gamma(1).prefix(500 + index.match_len)
        for t in range(500):
            hits = index.find(text[t : t + index.match_len])
            assert len(hits) <= 2
            if len(hits) == 2:
                assert dynamics.junction_signature(sys, hits)

    def test_gamma_prefix_has_single_preimage(self, sys):
        index = dynamics.PreimageIndex(sys)
        hits = index.find(sys.big_gamma(1).prefix(index.match_len))
        assert len(hits) == 1
        # and it is the fixed point itself
        assert sys.big_gamma(1).prefix(len(hits[0].preimage_prefix)) == hits[0].preimage_prefix

    def test_constructed_double_preimage(self, sys):
        index = dynamics.PreimageIndex(sys)
        star = sys.gamma_star(1)
        zs = sys.tau_block(2)[-3:]

        def mk(i):
            return zs[i] if i < len(zs) else star.letter(i - len(zs))

        prod = streams.SLProduct(indexed_word(mk, "zS+G*"), 0,
                                 sys.s_word, sys.l_word)
        target = streams.sqrt_stream(sys.alphabet, expand(prod)).prefix(index.match_len)
        hits = index.find(target)
        assert len(hits) == 2
        assert dynamics.junction_signature(sys, hits)


    def test_junction_target_deep_in_the_fixed_point(self, sys):
        # a target whose junction window lies past the first 20,000 blocks
        index = dynamics.PreimageIndex(sys)
        target = sys.big_gamma(1).prefix(70_000 + index.match_len)[70_000:]
        hits = index.find(target)
        assert len(hits) == 2
        assert dynamics.junction_signature(sys, hits)

    def test_names_equal_the_letter_scan_on_every_grid_double(self):
        # every double of every index on the grid; where the prefixes differ
        # only in their last letter the swap is read on names alone
        doubles, last_letter = 0, 0
        for sys in grid_systems():
            index = dynamics.PreimageIndex(sys)
            for key in index.table:
                hits = index.find(key)
                if len(hits) == 2:
                    doubles += 1
                    if only_the_last_letter_differs(hits):
                        last_letter += 1
                        assert dynamics.junction_signature(sys, hits), sys.params
                        assert letter_scan_junction(sys, widened(sys, hits)), sys.params
                    else:
                        assert dynamics.junction_signature(sys, hits) == letter_scan_junction(sys, hits), sys.params
        assert (doubles, last_letter) == (11_056, 36)

    @pytest.mark.parametrize("params", [OmegaParams(), OmegaParams(c=2, seed=SWAPPED), OmegaParams(3, 2, 1, 6)])
    def test_names_equal_the_letter_scan_on_flipped_windows(self, params):
        # pairs that are no index double: one window and a copy with one or
        # two names flipped, at a random shift, each spelling its own prefix;
        # the scan reads a swap on the last letter one letter further
        sys, rng = OmegaSystem(params), random.Random(26)
        n, flip = sys.block_len, {"S": "L", "L": "S"}
        windows = sys.factors(10)
        verdicts = collections.Counter()
        for _ in range(400):
            x, ell = rng.choice(windows), rng.randrange(n)
            flips = rng.sample(range(10), rng.choice((1, 2)))
            y = "".join(flip[name] if q in flips else name for q, name in enumerate(x))
            hits = [dynamics.PreimageHit(sys.sigma(w)[ell : ell + 8 * n], ell, w) for w in (x, y)]
            if hits[0].preimage_prefix == hits[1].preimage_prefix:
                continue
            got = dynamics.junction_signature(sys, hits)
            if only_the_last_letter_differs(hits):
                hits = widened(sys, hits)
            assert got == letter_scan_junction(sys, hits)
            verdicts[got] += 1
        assert verdicts[True] and verdicts[False]
        # one window at two shifts is no junction pair
        x = rng.choice(windows)
        hits = [dynamics.PreimageHit(sys.sigma(x)[ell : ell + 8 * n], ell, x) for ell in (1, 2)]
        assert not dynamics.junction_signature(sys, hits)

    @pytest.mark.parametrize("params", [
        OmegaParams(), OmegaParams(c=2, seed=SWAPPED), OmegaParams(a=2, b=1, k=5),
        OmegaParams(c=2, k=5), OmegaParams(k=5, seed=SWAPPED),
        OmegaParams(a=2, b=1), OmegaParams(c=2), OmegaParams(k=7),
        OmegaParams(a=2, c=3, k=5, seed=SWAPPED), OmegaParams(a=3, b=2, k=6),
    ])
    def test_table_equals_a_per_offset_build(self, params):
        # every window from an explicit scan of a long prefix, every offset
        # tokenized on its own, the first witness kept in the same order
        sys = OmegaSystem(params)
        index = dynamics.PreimageIndex(sys)
        n, size, need = sys.block_len, index.window_blocks, index.match_len
        corpus = sys.gamma_star(1).prefix(60_000 + size)
        table = {}
        for window in sorted({corpus[i : i + size] for i in range(60_000)}):
            text = sys.sigma(window)
            for ell in range(n):
                roots, _ = squares.factor_minimal_squares(sys.alphabet, text[ell:])
                out = "".join(roots)
                assert len(out) >= need
                key = text[ell : ell + need // 2]
                table.setdefault(out[:need], {}).setdefault(key, (key, ell, window))
        assert {out: {key: (hit.preimage_prefix, hit.shift, hit.window) for key, hit in bucket.items()}
                for out, bucket in index.table.items()} == table

    @pytest.mark.parametrize("params", [OmegaParams(), OmegaParams(c=2, seed=SWAPPED), OmegaParams(3, 2, 1, 6)])
    def test_one_step_table_per_window_head(self, monkeypatch, params):
        # no tail of names changes a remainder's step, so the build keeps one
        # table of steps per first name of a window and takes each remainder's
        # step once: it walks as often as an engine that steps every
        # remainder, plus the four walks of pairs_halve
        walks, tokenize = [], squares.factor_minimal_squares
        monkeypatch.setattr(squares, "factor_minimal_squares", lambda *args: walks.append(1) or tokenize(*args))
        OrbitEngine(OmegaSystem(params)).start()
        engine, walks[:] = len(walks), []
        dynamics.PreimageIndex(OmegaSystem(params))
        assert engine > 0 and len(walks) == engine + 4

    def test_short_window_raises(self, monkeypatch):
        # windows cut to 20 names give roots of fewer than match_len letters
        factors = OmegaSystem.factors
        monkeypatch.setattr(OmegaSystem, "factors", lambda self, length: [w[:20] for w in factors(self, length)])
        with pytest.raises(AssertionError, match="too short"):
            dynamics.PreimageIndex(OmegaSystem(OmegaParams()))

    def test_roots_come_from_the_square_root_step(self):
        tree = ast.parse(pathlib.Path(dynamics.__file__).read_text())
        names = {getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
                 for node in ast.walk(tree)}
        assert not names & {"square_matcher", "_greedy_roots"}
        index = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) and node.name == "PreimageIndex")
        init = next(fn for fn in index.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__")
        assert any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "remainder_step"
                   for node in ast.walk(init))


class TestAlignmentTower:
    @pytest.mark.parametrize("piece", [1, 5, 7])
    @pytest.mark.parametrize("c, jmax", [(1, 6), (2, 5)])
    def test_starts_are_grid_arithmetic(self, monkeypatch, c, jmax, piece):
        # the level-j grid of the tau^2 fixed point starts at the multiples
        # of m^j, so after a shift by t it starts at (-t) mod m^j; jmax makes
        # the window grow at least once, so pieces cross window ends too
        monkeypatch.setattr(dynamics, "TOWER_PIECE", piece)
        sys = OmegaSystem(OmegaParams(c=c))
        m = 2 * c + 1
        star = sys.gamma_star(1)
        for t in (0, 1, 2, m, m * m, 7, 2 * m**3 + 1):
            tower = dynamics.AlignmentTower(sys, shift(star, t), block_budget=4_000_000)
            assert [tower.start(j) for j in range(jmax + 1)] == [(-t) % m**j for j in range(jmax + 1)]
            assert tower.aligned() == (t == 0)

    @pytest.mark.parametrize("piece", [7, dynamics.TOWER_PIECE])
    @pytest.mark.parametrize("flip", [
        9016,  # an S off the level-0 grid made L; with 7-name pieces it opens a piece
        9003,  # an L of the level-0 grid made S: level 1 gets an L off its grid
    ])
    def test_a_flipped_name_breaks_the_parse(self, monkeypatch, sys, piece, flip):
        # the flip lies in the second window, so only a level pinned on the
        # first window can see it, past the first piece when pieces are short
        monkeypatch.setattr(dynamics, "TOWER_PIECE", piece)
        text = sys.gamma_star(1).prefix(3 * 4096)
        flipped = text[:flip] + {"S": "L", "L": "S"}[text[flip]] + text[flip + 1 :]
        for word, broken in ((text, False), (flipped, True)):
            tower = dynamics.AlignmentTower(sys, streams.InfiniteWord([word]), len(word))
            assert tower.start(5) == 0
            if broken:
                with pytest.raises(AssertionError, match="do not parse"):
                    tower.start(6)
            else:
                assert tower.start(6) == 0

    @pytest.mark.parametrize("c, t, budget, want", [
        (1, 40, 20_000, [(0, 16), (1, 40), (2, 112), (3, 328), (4, 1624), (5, 5512), (6, 17176)]),
        (1, 9, 5_000, [(2, 144), (3, 576), (4, 1872), (5, 5760)]),
        (2, 5, 20_000, [(1, 160), (2, 960), (3, 4960), (4, 24960)]),
        (2, 9, 5_000, [(0, 8), (1, 128), (2, 928), (3, 4928)]),
    ])
    def test_budget_cuts_the_chain_where_it_did(self, c, t, budget, want):
        sys = OmegaSystem(OmegaParams(c=c))
        chain = dynamics.preimage_chain(sys, shift(sys.gamma_star(1), t), depth=10,
                                        block_budget=budget, letter_verify_cap=1000)
        assert chain.status == "budget"
        assert [(link.level, link.prefix_len) for link in chain.links] == want
        assert all(link.verified for link in chain.links)


class TestPreimageChains:
    def test_chains_verify(self, sys):
        star = sys.gamma_star(1)
        for t in (1, 2, 5, 7):
            chain = dynamics.preimage_chain(sys, shift(star, t), depth=6)
            assert chain.status == "ok"
            assert len(chain.links) == 6
            assert all(link.verified for link in chain.links)
            lens = [link.prefix_len for link in chain.links]
            assert lens == sorted(lens) and len(set(lens)) == len(lens)

    def test_fixed_point_status(self, sys):
        chain = dynamics.preimage_chain(sys, sys.gamma_star(1), depth=3)
        assert chain.status == "fixed_point"

    def test_blockwise_verification_agrees(self):
        # the letter route (a cap above every link) and the name route (cap 0)
        # build and verify the same links, letter for letter, for m = 3 and
        # m = 5; the names and the letters are the suffix of the squared
        # building block, both where it lies in the second copy and where it
        # reaches the first
        branches = set()
        for params in (OmegaParams(), OmegaParams(c=2)):
            sys = OmegaSystem(params)
            star = sys.gamma_star(1)
            for t in (1, 2, 5, 7):
                routes = [dynamics.preimage_chain(sys, shift(star, t), depth=6,
                                                  letter_verify_cap=cap)
                          for cap in (10**12, 0)]
                full, capped = ([(l.level, l.prefix_len, len(l.preimage), l.preimage.names(),
                                  str(l.preimage), l.verified) for l in chain.links] for chain in routes)
                assert routes[0].status == routes[1].status == "ok"
                assert full == capped
                assert len(full) == 6 and all(verified for *_, verified in full)
                for level, prefix_len, size, names, letters, _ in full:
                    assert size == len(letters) == 2 * prefix_len
                    top = sys.gamma(level + 1)
                    assert letters == (top + top)[-2 * prefix_len :]
                    nxt, top_names = prefix_len // sys.block_len, sys.tau_block(level + 1)
                    assert names == (top_names + top_names)[-2 * nxt :]
                    branches.add(2 * nxt > len(top_names))
        assert branches == {False, True}

    def test_pair_halving_is_checked_once_per_system(self, monkeypatch):
        # the index, the periodic-point search and the name route of the
        # chains read one cached check; where the pairs do not halve, the
        # first two refuse with one message and no link by names verifies
        calls = []
        sqrt_finite = squares.sqrt_finite

        def record(alph, w):
            calls.append(w)
            return sqrt_finite(alph, w)

        monkeypatch.setattr(squares, "sqrt_finite", record)
        sys = OmegaSystem(OmegaParams())
        dynamics.PreimageIndex(sys)
        dynamics.periodic_point_search(sys, 4)
        chain = dynamics.preimage_chain(sys, shift(sys.gamma_star(1), 1), depth=4, letter_verify_cap=0)
        assert len(calls) == 4 and all(link.verified for link in chain.links)
        monkeypatch.setattr(OmegaSystem, "pairs_halve", False)
        sys = OmegaSystem(OmegaParams())
        for refused in (dynamics.PreimageIndex, lambda s: dynamics.periodic_point_search(s, 4)):
            with pytest.raises(AssertionError, match="^a block pair does not halve; block decimation is not exact$"):
                refused(sys)
        chain = dynamics.preimage_chain(sys, shift(sys.gamma_star(1), 1), depth=4, letter_verify_cap=0)
        assert len(chain.links) == 4 and not any(link.verified for link in chain.links)

    def test_deep_chain_memory(self):
        # a level-11 link on T^48(Gamma1*) and a level-12 link on T^75: the
        # name route builds no letters of a prefix, of a building block or of
        # a preimage, not even to count a preimage's letters
        for t, level, bound_mib in ((48, 11, 16), (75, 12, 24)):
            sys = OmegaSystem(OmegaParams())
            names = shift(sys.gamma_star(1), t)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                chain = dynamics.preimage_chain(sys, names, depth=10, block_budget=12_000_000,
                                                letter_verify_cap=300_000)
                letters = sum(len(link.preimage) for link in chain.links)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert chain.status == "ok" and chain.links[-1].level == level
            assert all(link.verified for link in chain.links)
            assert letters == sum(2 * link.prefix_len for link in chain.links)
            assert peak < bound_mib * 2**20, (t, peak)

    def test_chain_keeps_no_block(self):
        # a link is a view of a fixed-point window: a depth-10 chain on
        # T^80(Gamma1*), up to a level-12 link of 3^13-name blocks, retains
        # no block while it is alive, and the system none once it is dropped
        sys = OmegaSystem(OmegaParams())
        names = shift(sys.gamma_star(1), 80)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            chain = dynamics.preimage_chain(sys, names, depth=10, block_budget=12_000_000)
            alive = tracemalloc.get_traced_memory()[0] - base
            status, levels = chain.status, [link.level for link in chain.links]
            del chain
            dropped = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert status == "ok" and len(levels) == 10 and levels[-1] == 12
        assert alive < 0.1 * 2**20, alive
        assert dropped < 0.1 * 2**20, dropped


@functools.lru_cache(maxsize=None)
def brute_force_first_return(pattern, horizon=64):
    # decimate the cyclic word itself: its first |pattern| names after a
    # decimation are every other name of two periods
    w = pattern
    for steps in range(1, horizon + 1):
        w = (w + w)[::2]
        if w == pattern:
            return steps
    return None


def enumerated_periodic_points(sys, max_blocks):
    # the enumeration that the closed form replaces: every pattern spelled,
    # its return found by brute-force decimation, returning patterns kept
    # once per primitive root of their letters, and each kept word tested
    # by rotation_index.  The (points, refuted) of each max_blocks up to the
    # given one, and the number of words kept
    points, refuted, seen, results = {"Gamma1", "Gamma2"}, 0, set(), []
    for size in range(1, max_blocks + 1):
        for bits in itertools.product("SL", repeat=size):
            pattern = "".join(bits)
            if brute_force_first_return(pattern) is None:
                refuted += 1
                continue
            word = sys.sigma(pattern)
            root = word[: (word + word).find(word, 1)]
            if root in seen:
                continue
            seen.add(root)
            j = sys.rotation_index(streams.periodic_word(word, f"({pattern})^w"))
            if j is None:
                refuted += 1
            else:
                points.add("S^w" if j == 0 else "L^w" if word == sys.l_word * size else f"T^{j}(S^w)")
        results.append((sorted(points), refuted))
    return results, len(seen)


SEVEN_SYSTEMS = [
    OmegaParams(), OmegaParams(k=5, seed=SWAPPED), OmegaParams(a=2, b=1), OmegaParams(c=2),
    OmegaParams(a=2, b=1, k=5), OmegaParams(a=3, b=2, k=6), OmegaParams(b=1, c=2, k=5, seed=SWAPPED),
]


class TestPeriodicPoints:
    @pytest.mark.parametrize("params", SEVEN_SYSTEMS)
    def test_search_finds_exactly_four(self, params):
        points, _ = dynamics.periodic_point_search(OmegaSystem(params), max_blocks=6)
        assert points == ["Gamma1", "Gamma2", "L^w", "S^w"]

    def test_doubling_pattern_refuted_by_membership(self, sys):
        # (LSS)^w returns under decimation, but its word is not a shift of
        # S^w: it lies outside the subshift and is counted as refuted
        assert brute_force_first_return("LSS") is not None
        assert sys.rotation_index(streams.periodic_word(sys.sigma("LSS"), "(LSS)^w")) is None
        results, _ = enumerated_periodic_points(sys, 3)
        assert dynamics.periodic_point_search(sys, 3) == results[-1]

    def test_return_steps_match_brute_force(self):
        # Lemma A: with N = 2^e N', N' odd, a pattern returns under
        # decimation iff it has period N'; the powers of 2 mod N reach the
        # idempotent that is 0 mod 2^e and 1 mod N'
        for size in range(1, 15):
            odd = size // (size & -size)
            idempotent = next(pow(2, s, size) for s in range(1, 2 * size + 1)
                              if pow(2, 2 * s, size) == pow(2, s, size))
            assert idempotent % (size // odd) == 0 and idempotent % odd == 1 % odd
            for bits in itertools.product("SL", repeat=size):
                pattern = "".join(bits)
                returns = brute_force_first_return(pattern) is not None
                assert returns == (pattern == pattern[odd:] + pattern[:odd]), pattern

    @pytest.mark.parametrize("params", SEVEN_SYSTEMS)
    def test_kept_candidates_match_a_letter_level_dedupe(self, params):
        # the closed form against the enumeration, at every max_blocks up
        # to 12: same labels, same refuted count
        sys = OmegaSystem(params)
        results, kept = enumerated_periodic_points(sys, 12)
        assert [dynamics.periodic_point_search(sys, mb) for mb in range(1, 13)] == results
        assert kept > 20

    def test_rotation_index_is_called_at_most_twice(self, monkeypatch, sys):
        # only S^w and L^w are tested for membership (Lemma B)
        real, calls = OmegaSystem.rotation_index, []

        def spy(self, word):
            calls.append(word)
            return real(self, word)

        monkeypatch.setattr(OmegaSystem, "rotation_index", spy)
        points, refuted = dynamics.periodic_point_search(sys, 14)
        assert points == ["Gamma1", "Gamma2", "L^w", "S^w"] and refuted > 0
        assert len(calls) <= 2

    def test_search_keeps_no_record_per_pattern(self, sys):
        # 32,766 patterns of up to 14 names are counted, not listed
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            points, refuted = dynamics.periodic_point_search(sys, 14)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert points == ["Gamma1", "Gamma2", "L^w", "S^w"] and refuted > 0
        assert peak < 2**20, peak


class TestDoublingPeriod:
    def test_examples(self):
        assert next(len(orbit) for orbit in equation.doubling_orbits(3).orbits if 1 in orbit) == 2

    def test_matches_direct_simulation(self):
        # the doubling period of k, the least p with (2^p - 1) k = 0 mod M,
        # is the length of the doubling orbit of k
        def direct(k, M, horizon=4000):
            seq = [((pow(2, t, M) - 1) * k) % M for t in range(horizon)]
            return next(
                p for p in range(1, horizon)
                if all(seq[t] == seq[t + p] for t in range(horizon - p))
            )

        for M in (3, 9, 27, 5, 25, 125, 15, 45):
            lengths = {k: len(orbit) for orbit in equation.doubling_orbits(M).orbits for k in orbit}
            for k in range(1, min(M, 30)):
                assert lengths[k] == direct(k, M)

    def test_increasing_claim_small(self):
        assert dynamics.doubling_period_increasing(3, 4)


class TestAsymptotics:
    def test_steps_to_fixed_within_bound_for_samples(self, sys, engine):
        rng = random.Random(7)
        bound_total = dynamics.TABLE1_REFERENCE[8]
        for _ in range(100):
            seq = [rng.choice("SL") for _ in range(64)]
            ell = rng.randrange(1, sys.block_len)
            first = rng.choice("SL")
            steps = engine.steps_to_fixed(ell, first, lambda i: seq[i % 64])
            assert steps is not None and steps <= bound_total


class TestUniqueLeftExtension:
    def test_gamma_star_prefix_extensions(self, sys):
        # occurrences of a long fixed point prefix are always preceded by the
        # same blocks, namely the level-k building block names
        corpus = sys.gamma_star(1).prefix(60_000)
        for k in (1, 2):
            span = 3 ** (k + 2)
            target = corpus[:span]
            ext_len = 3**k
            seen = set()
            start = corpus.find(target, 1)
            while start > 0:
                if start >= ext_len:
                    seen.add(corpus[start - ext_len : start])
                start = corpus.find(target, start + 1)
            assert seen == {sys.tau_block(k)}
