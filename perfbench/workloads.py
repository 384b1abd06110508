"""The four benchmark workloads and the checks every pass runs.

Each workload has three parts:

* ``inputs(seed, size)`` makes the pass inputs from the seed with the
  benchmark's own random generator; the library receives only these values;
* ``setup(lib, inputs)`` builds the systems, engines and indexes a user builds
  before the first task (timed as ``setup_s``);
* ``run(lib, state, inputs, ctx)`` does one pass of the timed phase and checks
  every output against the paper's values or an independent route.

Reference values are copied from the paper here, not read from the library,
so a change to the library's own tables cannot move the goalposts.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

# Table 1 of the paper: most steps to reach S^omega or L^omega, per |S|.
TABLE1_REFERENCE = {8: 3, 13: 4, 21: 4, 34: 5, 55: 6, 89: 6, 144: 7, 233: 8,
                    377: 8, 610: 9, 987: 10}
# A solution of the word equation for the Fibonacci system (a,b,c,k) = (1,0,1,4).
DEFAULT_SOLUTION = "01010010010"
SYSTEMS = ((1, 0, 1), (2, 1, 1), (1, 0, 2))
# slopes F(k-2)/F(k) for the rational square-root theorem
RATIONAL_SLOPES = {8: 3, 13: 5, 21: 8, 34: 13, 55: 21, 89: 34}

TAIL_BLOCKS = 1 << 14  # block names in a forward start's tail; far above any read
# Gamma1* grows in tau^2 steps (9^j names), so every offset + TAIL_BLOCKS stays
# below 9^5: the tail never makes a seed grow Gamma1* one step further.
GAMMA_TAIL_OFFSETS = 9**5 - TAIL_BLOCKS


def six_roots(a: int, b: int) -> tuple[str, ...]:
    """The six minimal square roots, written out from their definition."""
    return ("0", "01" + "0" * (a - 1), "01" + "0" * a, "1" + "0" * a,
            "1" + "0" * (a + 1) + ("1" + "0" * a) * b,
            "1" + "0" * (a + 1) + ("1" + "0" * a) * (b + 1))


def tokenize(roots: tuple[str, ...], w: str) -> list[str] | None:
    """Factor ``w`` into minimal squares by direct prefix tests, or None.

    The independent route for the library's regex tokenizer: the six squares
    are prefix-free, so at each offset at most one of them can match.
    """
    squares = [r + r for r in roots]
    out, pos = [], 0
    while pos < len(w):
        for root, sq in zip(roots, squares):
            if w.startswith(sq, pos):
                out.append(root)
                pos += len(sq)
                break
        else:
            return None
    return out


# ---------------------------------------------------------------------------
# pass bookkeeping


@dataclass
class Pass:
    """Checked units and task latencies of one pass."""

    task_kind: str
    clock: object
    tracer: object = None
    units: list = field(default_factory=list)  # (label, ok)
    times: list = field(default_factory=list)  # seconds, every unit
    latencies: list = field(default_factory=list)  # seconds, units of task_kind
    materialized: int = 0  # letters read from the sources the benchmark holds

    def unit(self, kind: str, label: str, body, *args) -> None:
        """Run one checked unit: ``body(*args)`` returns its check results.

        An exception inside the body is recorded as a failed check.  Running
        the body as a function frees its objects before the next unit starts,
        so the peak memory does not depend on the order of the units.
        """
        if self.tracer is not None:
            self.tracer.task_id = len(self.units)
        t0 = self.clock()
        try:
            checks = list(body(*args))
        except Exception:
            checks = [False]
            label += " raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        elapsed = self.clock() - t0
        if self.tracer is not None:
            self.tracer.task_id = -1
        self.times.append(elapsed)
        if kind == self.task_kind:
            self.latencies.append(elapsed)
        self.units.append((label, bool(checks) and all(checks)))

    def hold(self, *sources) -> None:
        """Count the letters materialized by sources the benchmark is done with."""
        self.materialized += sum(src.max_queried for src in sources)

    @property
    def failed(self) -> list[str]:
        return [label for label, ok in self.units if not ok]


# ---------------------------------------------------------------------------
# table1_game


def table1_starts_per_row(n: int, size: str) -> int:
    if size == "smoke":
        return 4
    # The structural cross-check builds O(|S|^2) tables per start, so large
    # rows get few starts and the games stay most of the pass.  The small
    # rows get many, so the latency percentiles fall inside dense bands.
    return max(2, min(40, 2400 // n))


def table1_inputs(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    rows = [n for n in TABLE1_REFERENCE if size != "smoke" or n <= 89]
    starts = {}
    for n in rows:
        row = []
        for i in range(table1_starts_per_row(n, size)):
            shift, first = rng.randrange(1, n), rng.choice("SL")
            if i % 2:
                bits = rng.getrandbits(TAIL_BLOCKS)
                tail = format(bits, f"0{TAIL_BLOCKS}b").translate({48: "S", 49: "L"})
                row.append((shift, first, "random", tail))
            else:
                row.append((shift, first, "gamma1*", rng.randrange(0, GAMMA_TAIL_OFFSETS)))
        starts[n] = row
    return {"rows": rows, "starts": starts}


def table1_setup(lib, inputs: dict) -> dict:
    engines = {}
    for n in inputs["rows"]:
        sys_ = lib.dynamics.fibonacci_system(n)
        engines[n] = (sys_, lib.dynamics.OrbitEngine(sys_))
    return {"engines": engines}


def _game_row(engine, n):
    yield engine.steps_supremum() == TABLE1_REFERENCE[n]


def _rotation_successor(roots: tuple[str, ...], s_word: str, j: int) -> int:
    """Rotation index of the square root of ``T^j(S^omega)``, by prefix tests."""
    n = len(s_word)
    text = (s_word[j:] + s_word[:j]) * (4 + 4 * len(roots[-1]) // n)
    image, pos = [], 0
    while len(image) < n:
        for root in roots:
            if text.startswith(root + root, pos):
                image.extend(root)
                pos += 2 * len(root)
                break
        else:
            raise AssertionError("a rotation of S^omega is not a product of minimal squares")
    k = (s_word + s_word).find("".join(image[:n]))
    if not 0 <= k < n:
        raise AssertionError("square root left the rotations of S^omega")
    return k


def _structural_steps(lib, sys_, roots, blocks, shift: int, cap: int) -> int | None:
    """Steps to ``S^omega`` or ``L^omega`` by the product route alone.

    Each step is ``sqrt_of_product`` on the shifted product, which certifies
    periodicity only by type D and so holds for every S/L tail; the rotations
    after that are followed with the benchmark's own tokenizer.
    """
    s_word = sys_.s_word
    fixed = {0, (s_word + s_word).find(sys_.l_word)}
    prod = sys_.product(blocks, shift)
    for steps in range(1, cap + 1):
        nxt, kind = sys_.sqrt_of_product(prod)
        if kind == lib.omega.PERIODIC:
            j = (s_word + s_word).find(nxt.prefix(len(s_word)))
            while j not in fixed and steps <= cap:
                j = _rotation_successor(roots, s_word, j)
                steps += 1
            return steps if j in fixed else None
        if nxt.product is None:
            raise AssertionError("square root of a product left the product form")
        prod = nxt.product
    return None


def _forward_start(lib, ctx, sys_, engine, bound, shift, first, kind, tail):
    """steps_to_fixed on the warmed engine against independent routes.

    Every start is checked against the product route.  Starts with a Gamma1*
    tail are words of the subshift and are also checked against
    ``iterate_sqrt(...).n_fixed``.  A seeded S/L tail is not a word of the
    subshift: it can open with more equal blocks than the window on which
    ``omega_p_match`` certifies periodicity, so ``iterate_sqrt`` is not asked.
    """
    if kind == "gamma1*":
        tail = sys_.gamma_star(1).prefix(tail + TAIL_BLOCKS)[tail:]
    steps = engine.steps_to_fixed(shift, first, lambda i: tail[i - 1])
    blocks = lib.streams.InfiniteWord([first + tail], "start")
    roots = six_roots(sys_.params.a, sys_.params.b)
    checks = [steps is not None and steps <= bound,
              steps == _structural_steps(lib, sys_, roots, blocks, shift, 2 * bound + 2)]
    if kind == "gamma1*":
        src = lib.streams.expand(sys_.product(blocks, shift))
        checks.append(steps == lib.dynamics.iterate_sqrt(sys_, src, bound).n_fixed)
        ctx.hold(src)
    ctx.hold(blocks)
    return checks


def table1_run(lib, state: dict, inputs: dict, ctx: Pass) -> None:
    for n in inputs["rows"]:
        sys_, engine = state["engines"][n]
        ctx.unit("row", f"steps_supremum |S|={n}", _game_row, engine, n)
        for shift, first, kind, tail in inputs["starts"][n]:
            ctx.unit("start", f"|S|={n} start T^{shift}({first}|{kind})", _forward_start,
                     lib, ctx, sys_, engine, TABLE1_REFERENCE[n], shift, first, kind, tail)
        ctx.hold(sys_.gamma_star(1))


# ---------------------------------------------------------------------------
# fixed_point_stream


def fixed_inputs(seed: int, size: str) -> dict:
    depth = 2_000 if size == "smoke" else 300_000
    qs = (8, 13) if size == "smoke" else tuple(RATIONAL_SLOPES)
    ns = (7,) if size == "smoke" else (7, 15, 31)
    tasks = [("long", abc, which) for abc in SYSTEMS for which in (1, 2)]
    tasks += [("rational", q, j) for q in qs for j in range(q)]
    tasks += [("doubling", c, n) for c in (1, 2) for n in ns]
    random.Random(seed).shuffle(tasks)
    return {"depth": depth, "tasks": tasks}


def fixed_setup(lib, inputs: dict) -> dict:
    systems = {abc: lib.omega.OmegaSystem(lib.omega.OmegaParams(*abc, k=4)) for abc in SYSTEMS}
    rotations = {q: lib.sturmian.RotationSystem(Fraction(p, q)) for q, p in RATIONAL_SLOPES.items()}
    return {"systems": systems, "rotations": rotations}


def _doubling_words(pattern) -> list[str]:
    """Every block word of the doubling pattern: one letter per orbit."""
    out = []
    for mask in range(1 << len(pattern.orbits)):
        letters = [""] * pattern.n
        for bit, orbit in enumerate(pattern.orbits):
            for i in orbit:
                letters[i] = "SL"[mask >> bit & 1]
        out.append("".join(letters))
    return out


def _long_stream(lib, ctx, sys_, which, depth):
    """The square root of a fixed point, letter for letter against itself."""
    src = sys_.big_gamma(which)
    text = src.prefix(2 * depth + sys_.alphabet.max_square_len)
    image = lib.streams.sqrt_stream(sys_.alphabet, src)
    ok = image.prefix(depth) == text[:depth]
    ctx.hold(src, image)
    return [ok]


def _rational_word(lib, ctx, rot, rho):
    """Tokenizer route against intercept arithmetic on one full period."""
    q = rot.q
    word = lib.streams.periodic_word(rot.coding(rho, q))
    image = lib.streams.sqrt_stream(lib.squares.build_alphabet(*rot.params()), word)
    ok = image.prefix(q) == rot.coding(rot.sqrt_intercept(rho), q)
    ctx.hold(word, image)
    return [ok]


def _doubling_word(lib, sys_, word):
    n = len(word)
    return [all(word[i] == word[2 * i % n] for i in range(1, n)),
            lib.equation.check_self_sqrt(sys_, word)]


def fixed_run(lib, state: dict, inputs: dict, ctx: Pass) -> None:
    depth = inputs["depth"]
    for task in inputs["tasks"]:
        if task[0] == "long":
            _, abc, which = task
            ctx.unit("word", f"Gamma{which} of {abc} to {depth} letters", _long_stream,
                     lib, ctx, state["systems"][abc], which, depth)
        elif task[0] == "rational":
            _, q, j = task
            rot = state["rotations"][q]
            ctx.unit("word", f"rational sqrt slope {rot.slope} at {j}/{q}", _rational_word,
                     lib, ctx, rot, Fraction(j, q))
        else:
            _, c, n = task
            sys_ = state["systems"][(1, 0, c)]
            for word in _doubling_words(lib.equation.doubling_orbits(n)):
                ctx.unit("word", f"doubling c={c} n={n} {word}", _doubling_word, lib, sys_, word)


# ---------------------------------------------------------------------------
# limit_set_chains


CHAIN_DEPTH = 10


def chains_inputs(seed: int, size: str) -> dict:
    """A seeded third of criterion 09's shifts, the same share of each class.

    A chain's cost is set by the deepest level it reaches (9 to 12 for the
    family 1 <= t < 130, t mod 9 != 0), so the sample takes a third of every
    level class; seeds then differ in which chains run, not in the mix.
    """
    rng = random.Random(seed)
    limit = 6 if size == "smoke" else 130
    classes: dict[int, list[int]] = {}
    for t in range(1, limit):
        if t % 9:
            top_level = predicted_links(t, 1, 3, CHAIN_DEPTH)[-1][0]
            classes.setdefault(top_level, []).append(t)
    shifts = [t for _, members in sorted(classes.items())
              for t in rng.sample(members, max(1, round(len(members) / 3)))]
    rng.shuffle(shifts)
    return {
        "query_offset": rng.randrange(0, 100_000),
        "queries": 200 if size == "smoke" else 10_000,
        "shifts": shifts,
    }


def chains_setup(lib, inputs: dict) -> dict:
    sys_ = lib.omega.OmegaSystem(lib.omega.OmegaParams())
    return {"sys": sys_, "index": lib.dynamics.PreimageIndex(sys_)}


def predicted_links(t: int, n: int, m: int, depth: int) -> list[tuple[int, int]]:
    """(level, prefix length) of each chain link for ``T^t`` of the tau^2
    fixed point, from grid arithmetic alone.

    The level-``j`` factorization grid of the fixed point has its boundaries
    at the multiples of ``m^j``, so after a shift by ``t`` they lie at the
    positions congruent to ``-t`` modulo ``m^j``.  Each link climbs past the
    levels whose grid the current position already sits on.
    """
    links, pos = [], 0
    for _ in range(depth):
        k = 0
        while (pos + t) % m ** (k + 1) == 0:
            k += 1
        pos += (-t - pos) % m ** (k + 1)
        links.append((k, pos * n))
    return links


def _query(lib, sys_, index, target):
    hits = index.find(target)
    yield len(hits) <= 2
    if len(hits) == 2:
        yield lib.dynamics.junction_signature(sys_, hits)


def _left_extension(lib, ctx, sys_, index, k):
    """The left extension tau^k(S)[-3:] . Gamma1* has exactly two preimages."""
    m = index.match_len
    names = lib.streams.InfiniteWord(
        [sys_.tau_block(k)[-3:] + sys_.gamma_star(1).prefix(4 * m)], "zS+G*")
    word = lib.streams.expand(sys_.product(names))
    hits = index.find(lib.streams.sqrt_stream(sys_.alphabet, word).prefix(m))
    ctx.hold(names, word)
    return [len(hits) == 2 and lib.dynamics.junction_signature(sys_, hits)]


def _pair_roots(sys_):
    """The square root of each product of two blocks is its first block."""
    roots = six_roots(sys_.params.a, sys_.params.b)
    for x in (sys_.s_word, sys_.l_word):
        for y in (sys_.s_word, sys_.l_word):
            split = tokenize(roots, x + y)
            yield split is not None and "".join(split) == x


def _chain(lib, ctx, sys_, t):
    n, m = sys_.block_len, 2 * sys_.params.c + 1
    names = lib.streams.shift(sys_.gamma_star(1), t)
    chain = lib.dynamics.preimage_chain(sys_, names, depth=CHAIN_DEPTH, block_budget=12_000_000,
                                        letter_verify_cap=300_000)
    checks = [chain.status == "ok" and len(chain.links) == CHAIN_DEPTH]
    lens = [link.prefix_len for link in chain.links]
    checks.append(all(x < y for x, y in zip(lens, lens[1:])))
    checks.append([(link.level, link.prefix_len) for link in chain.links]
                  == predicted_links(t, n, m, CHAIN_DEPTH))
    for link in chain.links:
        checks.append(link.verified and len(link.preimage) == 2 * link.prefix_len)
        # block-name route: with v = sigma(V), sqrt(v) = sigma(V[0::2]) by the
        # pair identities, and that must be the chain's prefix u
        blocks = link.prefix_len // n
        top = sys_.tau_block(link.level + 1)
        checks.append((top + top)[-2 * blocks :: 2] == names.prefix(blocks))
    ctx.hold(names)
    return checks


def chains_run(lib, state: dict, inputs: dict, ctx: Pass) -> None:
    sys_, index = state["sys"], state["index"]
    m = index.match_len
    gamma1 = sys_.big_gamma(1)
    off = inputs["query_offset"]
    text = gamma1.prefix(off + inputs["queries"] + m)
    for t in range(off, off + inputs["queries"]):
        ctx.unit("query", f"find Gamma1[{t}:+{m}]", _query, lib, sys_, index, text[t : t + m])
    ctx.hold(gamma1)
    for k in (2, 3):
        ctx.unit("extension", f"left extension tau^{k}(S)[-3:]", _left_extension,
                 lib, ctx, sys_, index, k)
    ctx.unit("pair", "block pair roots", _pair_roots, sys_)
    for t in inputs["shifts"]:
        ctx.unit("chain", f"chain T^{t}(Gamma1*)", _chain, lib, ctx, sys_, t)
    ctx.hold(sys_.gamma_star(1))


# ---------------------------------------------------------------------------
# word_equation


SPOT_CHECKS = 100
SPOT_TEXT = 100_000


def equation_inputs(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    systems = [SYSTEMS[0]] if size == "smoke" else list(SYSTEMS)
    rng.shuffle(systems)
    spots = {abc: [(rng.randrange(0, SPOT_TEXT - 100), rng.randrange(1, 69))
                   for _ in range(SPOT_CHECKS)] for abc in systems}
    return {"systems": systems, "spots": spots}


def equation_setup(lib, inputs: dict) -> dict:
    return {"systems": {abc: lib.omega.OmegaSystem(lib.omega.OmegaParams(*abc, k=4))
                        for abc in inputs["systems"]}}


def _system(lib, ctx, sys_, abc, spots):
    equation = lib.equation
    n = sys_.block_len
    gammas = {sys_.gamma(k) for k in (1, 2, 3)}
    bmax = max(4 * n, len(sys_.gamma(1)))
    certs = equation.enumerate_solutions(sys_, bmax)
    found = {c.word for c in certs}
    roots = six_roots(abc[0], abc[1])
    # each certificate is checked against the equation itself
    checks = [set(c.roots) <= set(roots) and "".join(c.roots) == c.word
              and "".join(r + r for r in c.roots) == c.word * 2 for c in certs]
    checks.append(sys_.s_word in found and sys_.l_word in found)
    long_primitive = {w for w in found if len(w) >= 2 * n and lib.words.is_primitive(w)}
    checks.append(bool(long_primitive) and long_primitive <= gammas)
    if abc == SYSTEMS[0]:
        checks.append(DEFAULT_SOLUTION in found)
    for k in (1, 2, 3):
        checks.append(equation.conjugate_solution_audit(sys_.alphabet, sys_.gamma(k)).clean)
    # seeded factors of Gamma1: is_solution against the prefix-test tokenizer
    source = sys_.big_gamma(1)
    text = source.prefix(SPOT_TEXT)
    for offset, length in spots:
        u = text[offset : offset + length]
        split = tokenize(roots, u + u)
        checks.append((equation.is_solution(sys_.alphabet, u) is not None)
                      == (split is not None and "".join(split) == u))
    ctx.hold(source)
    return checks


def equation_run(lib, state: dict, inputs: dict, ctx: Pass) -> None:
    for abc in inputs["systems"]:
        ctx.unit("system", f"enumerate_solutions {abc}", _system,
                 lib, ctx, state["systems"][abc], abc, inputs["spots"][abc])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    task_kind: str
    inputs: object
    setup: object
    run: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1_game", "start", table1_inputs, table1_setup, table1_run),
        Workload("fixed_point_stream", "word", fixed_inputs, fixed_setup, fixed_run),
        Workload("limit_set_chains", "chain", chains_inputs, chains_setup, chains_run),
        Workload("word_equation", "system", equation_inputs, equation_setup, equation_run),
    )
}
