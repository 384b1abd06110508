"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is designed to finish well inside ten minutes.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from squareful import dynamics, equation, omega, streams, words
from squareful.dynamics import OrbitEngine
from squareful.omega import SWAPPED, OmegaParams, OmegaSystem, tau
from squareful.squares import build_alphabet, factor_minimal_squares, sqrt_finite
from squareful.sturmian import RotationSystem

from conftest import grid_systems, indexed_word


def report(name: str, ok: bool, detail: str = ""):
    marker = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {name}: {marker}{suffix}")
    assert ok, f"criterion {name} failed{suffix}"


@pytest.fixture(scope="module")
def fib_sys():
    return OmegaSystem(OmegaParams())


def random_names(rng: random.Random) -> str:
    """4096 block names, one per random bit."""
    return f"{rng.getrandbits(4096):04096b}".translate(str.maketrans("01", "SL"))


def test_criterion_01_table1_reproduction(rotation_walk, forward):
    start = time.time()
    lengths = [8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    rows = dynamics.table1_experiment(lengths)
    got = [r.steps for r in rows]
    want = [dynamics.TABLE1_REFERENCE[s] for s in lengths]
    # independent of the walk: each row's start, replayed by the forward
    # count (the oracle in conftest) on a fresh system with the other blocks named by Gamma1* or at random,
    # attains the value, and so does iterate_sqrt on the Gamma1*-tail word;
    # seeded random starts never exceed it; every rotation's successor and
    # phase by intercept iteration on integer cells equal the tokenizer's
    # rotation walk, and each phase stays within its bound; and
    # each row is the bit length of the number of 0s of S (a conjecture)
    rng = random.Random(2018)
    replayed, random_max, phases_ok, closed_ok = [], [], True, True
    for row in rows:
        sys = dynamics.fibonacci_system(row.s_len)
        closed_ok &= row.steps == sys.s_word.count("0").bit_length()
        successors, phases, bound = sys.rotations
        phases_ok &= max(phases) <= bound
        phases_ok &= (successors, phases) == rotation_walk(sys)
        fill = random_names(rng)
        shift, first = row.start
        star = sys.gamma_star(1)
        blocks = indexed_word(lambda i: first if i == 0 else star.letter(i - 1), "start")
        on_gamma = forward(sys, shift, first, lambda i: star.letter(i - 1))
        orbit = dynamics.iterate_sqrt(sys, streams.expand(sys.product(blocks, shift)), row.steps)
        at_random = forward(sys, shift, first, lambda i: fill[i % 4096])
        replayed.append(on_gamma if on_gamma == orbit.n_fixed == at_random else None)
        worst = 0
        for _ in range(50):
            seq = random_names(rng)
            steps = forward(sys, rng.randrange(1, row.s_len), rng.choice("SL"), lambda i: seq[i % 4096])
            worst = max(worst, steps if steps is not None else 10**9)
        random_max.append(worst)
    elapsed = time.time() - start
    report(
        "01 table 1 reproduction",
        got == want == replayed and all(m <= g for m, g in zip(random_max, got))
        and phases_ok and closed_ok and elapsed < 600,
        f"steps={got}, start replay={replayed}, random starts max={random_max}, "
        f"intercept phases of all rotations {'agree' if phases_ok else 'DISAGREE'}, "
        f"bit length of #0s {'agrees' if closed_ok else 'DISAGREES'}, {elapsed:.1f}s",
    )


def test_criterion_02_table2_reproduction():
    # every reference row; the two rows the truncated estimate misses by one
    # hundredth are the exact set of known mismatches, so a new mismatch or a
    # silent change of either fails
    got = {s: dynamics.fibonacci_estimate(s) for s in dynamics.TABLE2_REFERENCE}
    mismatches = {s: (got[s], ref) for s, ref in dynamics.TABLE2_REFERENCE.items() if got[s] != ref}
    known = {1597: ("11.10", "11.11"), 4181: ("12.49", "12.50")}
    report("02 table 2 reproduction", len(got) == 15 and mismatches == known,
           f"{len(got) - len(mismatches)} of {len(got)} rows match; "
           f"known mismatches (estimate, reference): {mismatches}")


def test_criterion_03_fixed_points():
    depth = 10**5
    ok = True
    for a, b, c in ((1, 0, 1), (2, 1, 1), (1, 0, 2)):
        sys = OmegaSystem(OmegaParams(a=a, b=b, c=c, k=4))
        for which in (1, 2):
            image = streams.sqrt_stream(sys.alphabet, sys.big_gamma(which))
            ok &= image.prefix(depth) == sys.big_gamma(which).prefix(depth)
    report("03 fixed points at 1e5 letters", ok)


def test_criterion_04_rational_sqrt_theorem():
    ok = True
    for p, q in ((3, 8), (5, 13), (8, 21)):
        rot = RotationSystem(Fraction(p, q))
        alph = build_alphabet(*rot.params())
        for j in range(q):
            rho = Fraction(j, q)
            word = streams.periodic_word(rot.coding(rho, q))
            got = streams.sqrt_stream(alph, word).prefix(q)
            want = rot.coding(rot.sqrt_intercept(rho), q)
            ok &= got == want
    report("04 rational square root theorem (exact)", ok)


def test_criterion_05_crucial_properties():
    ok = True
    for c in (1, 2):
        sys = OmegaSystem(OmegaParams(c=c))
        for j in range(7):
            g, gb = sys.gamma(j), sys.gamma_bar(j)
            ok &= sqrt_finite(sys.alphabet, g + g) == g
            ok &= sqrt_finite(sys.alphabet, g + gb) == g
            ok &= sqrt_finite(sys.alphabet, gb + g) == gb
            ok &= sqrt_finite(sys.alphabet, gb + gb) == gb
    report("05 crucial properties j <= 6, c in {1,2}", ok)


def test_criterion_06_worked_examples(fib_sys):
    sbar = "1001001010010"
    alph = build_alphabet(1, 0)
    roots1, fail1 = factor_minimal_squares(alph, sbar + sbar)
    roots2, fail2 = factor_minimal_squares(alph, sbar + words.swap_first_two(sbar))
    ok = fail1 is None and roots1 == ["100", "10", "01", "0", "10010"]
    ok &= fail2 is None and roots2 == ["100", "10", "010", "10010"]
    ok &= "".join(roots1) == sbar and "".join(roots2) == sbar

    star = fib_sys.gamma_star(1)
    blocks = indexed_word(
        lambda i: "S" if i < 2 else star.letter(i - 2), "S2+Gamma1*"
    )
    prod = streams.SLProduct(blocks, 4, fib_sys.s_word, fib_sys.l_word)
    rec = dynamics.iterate_sqrt(fib_sys, streams.expand(prod), 3)
    ok &= [s.outcome for s in rec.steps] == ["C", "B", "D", "periodic"]
    ok &= rec.n_periodic == 3 and rec.n_fixed == 3
    ok &= rec.steps[3].fingerprint == "01010010"
    report("06 worked examples (tokenizations and the 3-step orbit)", ok)


def test_criterion_07_solution_audit(fib_sys):
    n = fib_sys.block_len
    certs = equation.enumerate_solutions(fib_sys, 4 * n)
    found = {c.word for c in certs}
    ok = "01010010010" in found
    long_primitive = {
        c.word for c in certs if len(c.word) >= 2 * n and words.is_primitive(c.word)
    }
    gamma_words = {fib_sys.gamma(k) for k in range(1, 4)}
    ok &= bool(long_primitive) and long_primitive <= gamma_words
    audit_gamma = equation.conjugate_solution_audit(fib_sys.alphabet, fib_sys.gamma(1))
    ok &= audit_gamma.clean
    audit_block = equation.conjugate_solution_audit(fib_sys.alphabet, fib_sys.s_word)
    ok &= set(audit_block.solution_conjugates) | {fib_sys.s_word} == {
        fib_sys.s_word,
        fib_sys.l_word,
    }
    report("07 solution audit", bool(ok), f"{len(certs)} solutions up to root length {4 * n}")


def _injectivity_cap(sys: OmegaSystem, targets: int) -> tuple[bool, int]:
    """At most two preimages for each of ``targets`` Gamma1 targets, the
    junction signature on every double, and two preimages for both left
    extensions ``tau^k(S)[-3:] . Gamma1*``, k = 2, 3; with the double count."""
    index = dynamics.PreimageIndex(sys)
    m = index.match_len
    text = sys.big_gamma(1).prefix(targets + m)
    ok = True
    doubles = 0
    for t in range(targets):
        hits = index.find(text[t : t + m])
        if len(hits) > 2:
            ok = False
            break
        if len(hits) == 2:
            doubles += 1
            ok &= dynamics.junction_signature(sys, hits)
    # constructed left extensions of the fixed points must show both preimages
    star = sys.gamma_star(1)
    for k in (2, 3):
        tail = sys.tau_block(k)[-3:]

        def mk(i, tail=tail):
            return tail[i] if i < len(tail) else star.letter(i - len(tail))

        prod = streams.SLProduct(
            indexed_word(mk, "zS+G*"), 0, sys.s_word, sys.l_word
        )
        target = streams.sqrt_stream(sys.alphabet, streams.expand(prod)).prefix(m)
        hits = index.find(target)
        ok &= len(hits) == 2 and dynamics.junction_signature(sys, hits)
    return ok, doubles


def test_criterion_08_injectivity_cap(fib_sys):
    ok, doubles = _injectivity_cap(fib_sys, 10_000)
    report("08 injectivity cap over 10^4 targets", ok, f"{doubles} junction targets")


@pytest.mark.parametrize("params", [
    OmegaParams(a=2, b=1, k=4), OmegaParams(c=2, k=4), OmegaParams(k=5, seed=SWAPPED),
    OmegaParams(a=2, b=1, k=5), OmegaParams(k=6),
])
def test_criterion_08_across_systems(params):
    ok, doubles = _injectivity_cap(OmegaSystem(params), 3_000)
    report(f"08 injectivity cap on {params}", ok and doubles > 0, f"{doubles} junction targets")


def test_criterion_08_every_aperiodic_bucket():
    # every bucket of the index on the 108 systems with a <= 3, b <= 2,
    # c <= 2, 3 <= k <= 6 and either seed: a key outside the periodic part
    # (no factor of S^omega) has at most two hits, and two only in the
    # junction form; the periodic part is outside the cap and only counted
    start = time.time()
    systems = doubles = crowded = periodic_doubles = 0
    ok = True
    for sys in grid_systems():
        systems += 1
        index = dynamics.PreimageIndex(sys)
        s_omega = sys.s_word * (index.match_len // sys.block_len + 2)
        for key in index.table:
            hits = index.find(key)
            if key in s_omega:
                crowded += len(hits) > 2
                periodic_doubles += len(hits) == 2
            elif len(hits) > 1:
                doubles += 1
                ok &= len(hits) == 2 and dynamics.junction_signature(sys, hits)
    report(f"08 injectivity cap on every aperiodic bucket of {systems} systems",
           ok and systems == 108 and doubles > 0,
           f"{doubles} junction doubles; periodic part: {crowded} buckets of 3+ hits, "
           f"{periodic_doubles} doubles; {time.time() - start:.1f}s")


def test_criterion_09_limit_set(fib_sys, forward):
    star = fib_sys.gamma_star(1)
    ok = True
    # block shifts whose hierarchy alignment starts at level <= 1, so a
    # depth-10 chain stays inside the block budget (every link climbs a level)
    shifts = [t for t in range(1, 130) if t % 9][:100]
    assert len(shifts) == 100
    for t in shifts:
        chain = dynamics.preimage_chain(fib_sys, streams.shift(star, t), depth=10,
                                        block_budget=12_000_000,
                                        letter_verify_cap=300_000)
        ok &= chain.status == "ok" and len(chain.links) == 10
        ok &= all(link.verified for link in chain.links)
        lens = [link.prefix_len for link in chain.links]
        ok &= all(x < y for x, y in zip(lens, lens[1:]))
        if not ok:
            break
    # each escape count equals the forward walk (the oracle in conftest) on
    # a fresh system, and stays within the Table 1 value
    engine, fresh = OrbitEngine(fib_sys), OmegaSystem(fib_sys.params)
    bound = dynamics.TABLE1_REFERENCE[fib_sys.block_len]
    rng = random.Random(2024)
    for _ in range(100):
        seq = [rng.choice("SL") for _ in range(128)]
        ell, first = rng.randrange(1, fib_sys.block_len), rng.choice("SL")
        fetch = lambda i: seq[i % 128]
        steps = engine.steps_to_fixed(ell, first, fetch)
        ok &= steps == forward(fresh, ell, first, fetch) and steps <= bound
    report("09 limit set (100 chains of depth 10; 100 escapes, each the forward count and within n)", ok)


def test_criterion_10_periodic_points(fib_sys):
    points, _ = dynamics.periodic_point_search(fib_sys, max_blocks=8)
    ok = points == ["Gamma1", "Gamma2", "L^w", "S^w"]
    for m in (3, 5, 7):  # c = 1, 2, 3
        ok &= dynamics.doubling_period_increasing(m, 6)
    report("10 periodic points and doubling-period growth", ok, f"points={points}")


def test_criterion_11_doubling_generator(fib_sys):
    pattern = equation.doubling_orbits(7)
    ok = pattern.orbits == ((0,), (1, 2, 4), (3, 5, 6))
    results = equation.all_doubling_checks(fib_sys, 7)
    ok &= len(results) == 8 and all(fixed for _, fixed in results)
    u = equation.pattern_to_substitution(
        pattern, {(1, 2, 4): "S", (3, 5, 6): "L"}
    )
    ok &= (tau(u, "S"), tau(u, "L")) == ("LSSLSLL", "SSSLSLL")
    # the aperiodic fixed points: both tau^2 fixed points x of every body,
    # read by valuation, equal tau^2 iterated on 5 n^2 names.  The square
    # root map fixes sigma(x) by (d) of omega.tau, as the block pairs halve;
    # sqrt_stream on that prefix is the oracle, not the proof.
    ok &= fib_sys.pairs_halve
    points = fixed = 0
    for n in (7, 9, 15, 21):
        pattern, size = equation.doubling_orbits(n), 5 * n * n
        free = pattern.orbits[1:]
        for bits in itertools.product("SL", repeat=len(free)):
            body = equation.pattern_to_substitution(pattern, dict(zip(free, bits)))
            for seed in "SL":
                x, iterate = omega.fixed_point(body, seed), seed
                while len(iterate) < size:
                    iterate = tau(body, tau(body, iterate[: size // (n * n) + 1]))
                ok &= x.prefix(size) == iterate[:size]
                src, letters = streams.expand(fib_sys.product(x)), size * fib_sys.block_len
                points += 1
                fixed += streams.sqrt_stream(fib_sys.alphabet, src).prefix(letters) == src.prefix(letters)
    ok &= points == fixed == 112
    report("11 doubling-orbit generator", ok,
           f"8 periodic words at n = 7, {fixed} of {points} aperiodic fixed points at n = 7, 9, 15, 21")
