"""Command line interface.

Subcommands cover the tokenizer (``factorize``, ``sqrt``), the subshift
builders (``omega gamma``, ``omega classify``), orbit experiments (``orbit``,
``table1``, ``table2``, ``limit-set``, ``periodic-points``, ``preimages``)
and the word equation tools (``eq check``, ``eq enumerate``, ``eq orbits``).

Outputs are deterministic for a fixed argument vector.  Reproduction commands
print the computed value next to the reference value with a PASS/FAIL marker
and exit nonzero on FAIL.  A usage error exits 2 and a non-squareful input
exits 1, each with one ``error: ...`` line on stderr.  A word of letters must
be nonempty and over ``0``/``1``; anything else is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys as _sys

from . import dynamics, equation, squares, streams
from .omega import CONSUMED, PERIODIC, TYPE_D, OmegaParams, OmegaSystem, covering_level

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# The most letters a command may build from --k and table1 --fib (the block
# word S) and from --j (gamma_j and gamma_bar_j together), and the most block
# names that --c (tau^2(S) and tau^2(L) together, the size of the rotation
# tables of the fixed points that every tau block is read from) and the factor
# windows of eq enumerate --bmax may spell; a larger request is a usage error.
MAX_WORD_LETTERS = 10_000_000
# The largest periodic-points --max-blocks.  The search spells no pattern, so
# only its output limits it: the refuted count is below 2^(mb + 1), at most
# 3,011 digits here, under Python's default int-to-str limit of 4,300 digits.
MAX_BLOCKS = 10_000


class _Parser(argparse.ArgumentParser):
    """Hands usage errors to :func:`main`, which reports them in one line."""

    def error(self, message):
        raise ValueError(message)


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _alphabet_args(p: argparse.ArgumentParser):
    p.add_argument("--a", type=int, default=1, help="first square parameter (>= 1)")
    p.add_argument("--b", type=int, default=0, help="second square parameter (>= 0)")


def _system_args(p: argparse.ArgumentParser):
    _alphabet_args(p)
    p.add_argument("--c", type=int, default=1, help="block substitution parameter (>= 1)")
    p.add_argument("--k", type=int, default=4, help="index of the reversed standard word")
    p.add_argument("--seed-word", choices=("plain", "swapped"), default="plain",
                   help="which of the two companion words the block S expands to")


def _system(ns) -> OmegaSystem:
    """The system of the parameter flags, sized before any word is built.

    ``|S| = q_k`` follows the length recurrence of the standard words, and
    the substitution length ``m = 2c + 1`` (:attr:`OmegaSystem.m`) is
    derived once from ``--c``, as the guards run before the system exists.
    As ``q_i >= F_(i+2)`` and ``m >= 3``, capping ``k`` and ``j`` at 64
    leaves an over-limit size over the limit.  ``--c`` bounds the ``2 m^2``
    names of ``tau^2(S)`` and ``tau^2(L)``, the size of the rotation tables
    that :func:`~squareful.omega.fixed_point` builds (``m`` rotations of two
    ``m``-name level patterns), from which ``Gamma*``, the preimage chains,
    the covering texts and ``omega gamma`` read every tau block; no command
    builds one by substitution.  ``--bmax`` bounds the
    names of its factor windows, of :func:`equation.window_names` names, one
    per name of ``tau^j(a)`` in each of the three covering texts that (c) of
    :func:`~squareful.omega.tau` leaves, ``j = covering_level(m, names)``; it
    caps the default system at 6092, though the harvest reads only the texts.
    ``--max-blocks`` builds no word; :data:`MAX_BLOCKS` bounds it."""
    params = OmegaParams(a=ns.a, b=ns.b, c=ns.c, k=ns.k, seed=ns.seed_word)
    m, prev, n = 2 * ns.c + 1, 1, 1
    for d in params.directive(min(ns.k, 64)):
        prev, n = n, d * n + prev
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"--k {ns.k}: the block word has more than {MAX_WORD_LETTERS} letters")
    if 2 * m**2 > MAX_WORD_LETTERS:
        raise ValueError(f"--c {ns.c}: tau^2(S) and tau^2(L) have more than {MAX_WORD_LETTERS} names")
    if "j" in ns and 2 * n * m ** min(ns.j, 64) > MAX_WORD_LETTERS:
        raise ValueError(f"--j {ns.j}: gamma_j and gamma_bar_j have more than {MAX_WORD_LETTERS} letters")
    if "bmax" in ns:
        names = equation.window_names(n, ns.bmax)
        if 3 * m ** covering_level(m, names) * names > MAX_WORD_LETTERS:
            raise ValueError(f"--bmax {ns.bmax}: the factor windows spell more than {MAX_WORD_LETTERS} names")
    return OmegaSystem(params)


def _read_letters(ns) -> str:
    """The word argument, else stdin: a usage error unless nonempty over 0/1."""
    w = ns.word if ns.word is not None else _sys.stdin.read().strip()
    if not w:
        raise ValueError("the word is empty")
    if set(w) - {"0", "1"}:
        raise ValueError(f"letters must be 0 and 1, got {w!r}")
    return w


def _word_source(sys: OmegaSystem, ns) -> streams.InfiniteWord:
    kind = ns.input_kind
    if ns.shift and kind != "blocks":
        raise ValueError(f"--shift applies to --input-kind blocks, not {kind}")
    if kind == "named":
        named = {"gamma1": lambda: sys.big_gamma(1), "gamma2": lambda: sys.big_gamma(2),
                 "s-omega": sys.s_omega, "l-omega": sys.l_omega}
        if ns.word not in named:
            raise ValueError(f"unknown named word {ns.word!r}; pick one of {', '.join(named)}")
        return named[ns.word]()
    if kind == "blocks":
        prod = streams.sl_cycle(ns.word, sys.s_word, sys.l_word, ns.shift)
        return streams.expand(prod)
    word = _read_letters(ns)
    return streams.periodic_word(word, f"({word})^w")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its result and writes nothing


class Result:
    """A subcommand's output in each format and its verdict: ``ok`` exits 0,
    otherwise 1.  ``table`` is the CSV header and rows of a tabular command."""

    __slots__ = ("payload", "text", "ok", "table")

    def __init__(self, payload: dict, text: str, ok: bool = True,
                 table: tuple[list[str], list[list]] | None = None):
        self.payload, self.text, self.ok, self.table = payload, text, ok, table


def cmd_factorize(ns) -> Result:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    roots, failure = squares.factor_minimal_squares(alph, w)
    tail = "" if failure is None else f"  [no minimal square at offset {failure}]"
    return Result({"word": w, "roots": roots, "failure_offset": failure},
                  " . ".join(r + r for r in roots) + tail, failure is None)


def cmd_sqrt(ns) -> Result:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    root = squares.sqrt_finite(alph, w)
    return Result({"word": w, "sqrt": root}, root)


def cmd_omega_gamma(ns) -> Result:
    sys = _system(ns)
    g, gb = sys.gamma(ns.j), sys.gamma_bar(ns.j)
    return Result({"j": ns.j, "gamma": g, "gamma_bar": gb}, f"gamma_{ns.j}     = {g}\ngamma_bar_{ns.j} = {gb}")


def cmd_omega_classify(ns) -> Result:
    sys = _system(ns)
    prod = streams.sl_cycle(ns.blocks, sys.s_word, sys.l_word, ns.shift)
    _, kind = sys.sqrt_of_product(prod)
    if kind == PERIODIC:
        kind, pi_len = TYPE_D, 0
    else:  # the square-product prefix the step consumes: none, the remainder, or it and one block
        pi_len = CONSUMED[kind] * sys.block_len - prod.shift
    return Result({"type": kind, "pi_prefix_len": pi_len}, f"type {kind} (square-product prefix length {pi_len})")


def cmd_orbit(ns) -> Result:
    sys = _system(ns)
    record = dynamics.iterate_sqrt(sys, _word_source(sys, ns), ns.steps)
    steps = [{"fingerprint": s.fingerprint, "outcome": s.outcome, "versus_start": s.versus_start}
             for s in record.steps]
    lines = [f"start: {record.start}"]
    lines += [f"  step {i}: {s.outcome:9s} {s.fingerprint} ({s.versus_start} vs start)"
              for i, s in enumerate(record.steps)]
    lines.append(f"n_periodic = {record.n_periodic}, n_fixed = {record.n_fixed}")
    return Result({"start": record.start, "steps": steps, "n_periodic": record.n_periodic,
                   "n_fixed": record.n_fixed}, "\n".join(lines))


def _parse_fib(text: str) -> list[int]:
    lengths = []
    for t in filter(None, text.split(",")):
        try:
            lengths.append(int(t))
        except ValueError:
            raise ValueError(f"--fib: not an integer: {t!r}") from None
    if not lengths:
        raise ValueError("--fib names no block length")
    return lengths


def _reproduce(rows: list[tuple], header: list[str], text_line: str) -> Result:
    """``(s_len, value, reference)`` rows with verdicts; not ok on a FAIL."""
    table = [[*row, "PASS" if row[2] == row[1] else ("FAIL" if row[2] is not None else "n/a")]
             for row in rows]
    return Result({"rows": [dict(zip(header, row)) for row in table]},
                  "\n".join(text_line.format(*row) for row in table),
                  all(row[3] != "FAIL" for row in table), (header, table))


def cmd_table1(ns) -> Result:
    lengths = _parse_fib(ns.fib)
    if max(lengths) > MAX_WORD_LETTERS:
        raise ValueError(f"--fib {max(lengths)}: the block word has more than {MAX_WORD_LETTERS} letters")
    rows = [(r.s_len, r.steps, dynamics.TABLE1_REFERENCE.get(r.s_len))
            for r in dynamics.table1_experiment(lengths)]
    return _reproduce(rows, ["s_len", "steps", "reference", "verdict"],
                      "|S| = {:5d}  steps = {:2d}  reference = {}  {}")


def cmd_table2(ns) -> Result:
    rows = [(s_len, dynamics.fibonacci_estimate(s_len),
             dynamics.TABLE2_REFERENCE.get(s_len)) for s_len in _parse_fib(ns.fib)]
    return _reproduce(rows, ["s_len", "estimate", "reference", "verdict"],
                      "|S| = {:5d}  estimate = {}  reference = {}  {}")


def cmd_preimages(ns) -> Result:
    sys = _system(ns)
    target = _read_letters(ns)
    need = dynamics.preimage_match_len(sys)
    if len(target) < need:
        raise ValueError(f"target must supply {need} letters")
    hits = dynamics.PreimageIndex(sys).find(target[:need])
    junction = dynamics.junction_signature(sys, hits) if len(hits) == 2 else None
    # the injectivity cap holds off the periodic part: at most two
    # preimages, and two only in the junction form
    periodic = target[:need] in sys.s_word * (need // sys.block_len + 2)
    lines = [f"{len(hits)} preimage(s)"]
    lines += [f"  shift {h.shift:3d}  {h.preimage_prefix}" for h in hits]
    if len(hits) == 2:
        lines.append(f"junction form: {junction}")
    if periodic:
        lines.append("periodic part: the target is a factor of S^omega, where the cap does not apply")
    preimages = [{"prefix": h.preimage_prefix, "shift": h.shift, "window": h.window} for h in hits]
    return Result({"target": target[:need], "count": len(hits), "preimages": preimages,
                   "junction_form": junction}, "\n".join(lines),
                  periodic or len(hits) < 2 or bool(junction))


def cmd_limit_set(ns) -> Result:
    sys = _system(ns)
    star = sys.gamma_star(1)
    results = []
    ok = True
    for t in range(1, ns.samples + 1):
        chain = dynamics.preimage_chain(sys, streams.shift(star, t), ns.depth)
        verified = all(l.verified for l in chain.links)
        ok &= chain.status == "ok" and verified
        results.append({"shift_blocks": t, "status": chain.status,
                        "links": len(chain.links), "verified": verified})
    lines = [f"T^{r['shift_blocks']}(blocks): {r['status']}, {r['links']} links, verified={r['verified']}"
             for r in results]
    lines.append(f"all verified: {ok}")
    return Result({"samples": results, "all_verified": ok}, "\n".join(lines), ok)


def cmd_periodic_points(ns) -> Result:
    if ns.max_blocks > MAX_BLOCKS:
        raise ValueError(f"--max-blocks {ns.max_blocks}: above {MAX_BLOCKS}, the refuted count is too long to print")
    sys = _system(ns)
    points, refuted = dynamics.periodic_point_search(sys, ns.max_blocks)
    ok = points == ["Gamma1", "Gamma2", "L^w", "S^w"]
    verdict = "PASS" if ok else "FAIL"
    return Result({"periodic_points": points, "refuted": refuted, "verdict": verdict},
                  f"periodic points: {' '.join(points)}\nrefuted candidates: {refuted}\n"
                  f"expected {{Gamma1, Gamma2, S^w, L^w}}: {verdict}", ok)


def _certificate(cert: equation.SolutionCertificate) -> dict:
    return {"word": cert.word, "roots": list(cert.roots), "verified": True}


def cmd_eq_check(ns) -> Result:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    cert = equation.is_solution(alph, w)
    if cert is None:
        return Result({"word": w, "verified": False}, f"not a solution: {w}", False)
    return Result(_certificate(cert), f"solution: {w} = {' . '.join(cert.roots)}")


def cmd_eq_enumerate(ns) -> Result:
    sys = _system(ns)
    certs = equation.enumerate_solutions(sys, ns.bmax)
    return Result({"solutions": [_certificate(c) for c in certs]},
                  "\n".join(f"{len(c.word):4d}  {c.word}" for c in certs),
                  table=(["word", "roots"], [[c.word, " ".join(c.roots)] for c in certs]))


def cmd_eq_orbits(ns) -> Result:
    pattern = equation.doubling_orbits(ns.n)
    return Result({"n": ns.n, "orbits": [list(o) for o in pattern.orbits]},
                  " ".join("{" + ",".join(map(str, o)) + "}" for o in pattern.orbits))


def _write(ns, result: Result) -> int:
    """Render ``result`` in ``--format`` to stdout or ``--out``; the exit code."""
    if ns.format == "json":
        text = json.dumps(result.payload)
    elif ns.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([result.table[0], *result.table[1]])
        text = buf.getvalue().rstrip("\n")
    else:
        text = result.text
    if not ns.out:
        print(text)
    else:
        try:
            with open(ns.out, "w") as fh:
                print(text, file=fh)
        except OSError as err:
            raise ValueError(f"cannot write {ns.out}: {err.strerror}") from None
    return EXIT_OK if result.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="squareful", description="square root map on optimal squareful words")
    sub = top.add_subparsers(dest="command", required=True)

    def add(group, name, handler, params=None, **kwargs):
        p = group.add_parser(name, **kwargs)
        if params is not None:
            params(p)
        tabular = handler in (cmd_table1, cmd_table2, cmd_eq_enumerate)
        p.add_argument("--format", choices=("text", "json", "csv") if tabular else ("text", "json"),
                       default="text")
        p.add_argument("--out", type=str, default=None, help="write output to a file")
        p.set_defaults(handler=handler)
        return p

    p = add(sub, "factorize", cmd_factorize, _alphabet_args, help="factor a word into minimal squares")
    p.add_argument("word", nargs="?", default=None, help="binary word (stdin if omitted)")

    p = add(sub, "sqrt", cmd_sqrt, _alphabet_args, help="square root of a finite square product")
    p.add_argument("word", nargs="?", default=None)

    omega = sub.add_parser("omega", help="subshift building blocks")
    osub = omega.add_subparsers(dest="omega_command", required=True)
    p = add(osub, "gamma", cmd_omega_gamma, _system_args, help="print the level-j building blocks")
    p.add_argument("--j", type=_at_least(0), required=True)
    p = add(osub, "classify", cmd_omega_classify, _system_args,
            help="type (A)-(D) of a shifted block product")
    p.add_argument("--blocks", type=str, required=True, help="block names, e.g. SSLS")
    p.add_argument("--shift", type=int, default=0)

    p = add(sub, "orbit", cmd_orbit, _system_args, help="iterate the square root map",
            description="A step is periodic only when proved so; outcome 'stream' means the "
                        "word is not known to be a shift of S^omega, and no guess is made.")
    p.add_argument("--word", type=str, required=True,
                   help="named source (gamma1, gamma2, s-omega, l-omega), a 0/1 "
                        "period, or S/L block names per --input-kind")
    p.add_argument("--input-kind", choices=("letters", "blocks", "named"), default="named",
                   help="letters: the word repeated periodically; blocks: cycled "
                        "block names with --shift; named: a built-in word")
    p.add_argument("--shift", type=int, default=0, help="letters dropped (blocks only)")
    p.add_argument("--steps", type=_at_least(0), default=8)

    p = add(sub, "table1", cmd_table1, help="steps-to-fixed maxima for reversed Fibonacci words")
    p.add_argument("--fib", type=str, default="8,13,21,34,55,89")

    p = add(sub, "table2", cmd_table2, help="closed-form step estimates")
    p.add_argument("--fib", type=str, default="8,13,144,6765")

    p = add(sub, "preimages", cmd_preimages, _system_args,
            help="preimage search for a factor of the subshift")
    p.add_argument("word", nargs="?", default=None, help="target letters (stdin if omitted)")

    p = add(sub, "limit-set", cmd_limit_set, _system_args,
            help="depth-d preimage chains for product words")
    p.add_argument("--samples", type=_at_least(1), default=20)
    p.add_argument("--depth", type=_at_least(1), default=10)

    p = add(sub, "periodic-points", cmd_periodic_points, _system_args,
            help="refutation search for periodic points")
    p.add_argument("--max-blocks", type=_at_least(1), default=8)

    eq = sub.add_parser("eq", help="word equation tools")
    esub = eq.add_subparsers(dest="eq_command", required=True)
    p = add(esub, "check", cmd_eq_check, _alphabet_args, help="is the word a solution")
    p.add_argument("word", nargs="?", default=None)
    p = add(esub, "enumerate", cmd_eq_enumerate, _system_args, help="solutions among subshift factors")
    p.add_argument("--bmax", type=_at_least(1), default=32)
    p = add(esub, "orbits", cmd_eq_orbits, help="doubling orbits of Z_n")
    p.add_argument("--n", type=_at_least(1), required=True)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return _write(ns, ns.handler(ns))
    except squares.TokenizationError as err:  # a word that is no product of minimal squares
        message, code = str(err), EXIT_VIOLATION
    except ValueError as err:
        message, code = str(err), EXIT_USAGE
    except streams.SourcePoisonedError as err:
        message, code = f"the input is not squareful: {err}", EXIT_VIOLATION
    print(f"error: {message}", file=_sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
