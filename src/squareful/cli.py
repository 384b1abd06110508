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
from .omega import OmegaParams, OmegaSystem

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# The most letters a command may build from --k (the block word S) and from
# --j (gamma_j and gamma_bar_j together), and the most block names that
# --c (tau^2(S) and tau^2(L) together) and periodic-points --max-blocks may
# spell; a larger request is a usage error.
MAX_WORD_LETTERS = 10_000_000


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

    ``|S| = q_k`` follows the length recurrence of the standard words.  As
    ``q_i >= F_(i+2)`` and ``2c + 1 >= 3``, capping ``k`` and ``j`` at 64
    leaves an over-limit size over the limit.  Every system reads the
    ``tau^2`` blocks of both names, ``2 (2c + 1)^2`` names.  The patterns of
    ``--max-blocks mb`` spell ``(mb - 1) 2^(mb + 1) + 2`` names, the sum of
    ``s 2^s`` over ``s <= mb``; ``mb`` is capped at 64 likewise."""
    params = OmegaParams(a=ns.a, b=ns.b, c=ns.c, k=ns.k, seed=ns.seed_word)
    prev, n = 1, 1
    for d in params.directive(min(ns.k, 64)):
        prev, n = n, d * n + prev
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"--k {ns.k}: the block word has more than {MAX_WORD_LETTERS} letters")
    if 2 * (2 * ns.c + 1) ** 2 > MAX_WORD_LETTERS:
        raise ValueError(f"--c {ns.c}: tau^2(S) and tau^2(L) have more than {MAX_WORD_LETTERS} names")
    if "j" in ns and 2 * n * (2 * ns.c + 1) ** min(ns.j, 64) > MAX_WORD_LETTERS:
        raise ValueError(f"--j {ns.j}: gamma_j and gamma_bar_j have more than {MAX_WORD_LETTERS} letters")
    mb = min(getattr(ns, "max_blocks", 1), 64)
    if (mb - 1) * 2 ** (mb + 1) + 2 > MAX_WORD_LETTERS:
        raise ValueError(f"--max-blocks {ns.max_blocks}: the search spells more than {MAX_WORD_LETTERS} names")
    return OmegaSystem(params)


def _emit(ns, text: str) -> None:
    if getattr(ns, "out", None):
        try:
            with open(ns.out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as err:
            raise ValueError(f"cannot write {ns.out}: {err.strerror}") from None
    else:
        print(text)


def _read_letters(ns) -> str:
    """The word argument, else stdin: a usage error unless nonempty over 0/1."""
    w = ns.word if ns.word is not None else _sys.stdin.read().strip()
    if not w:
        raise ValueError("the word is empty")
    if set(w) - {"0", "1"}:
        raise ValueError(f"letters must be 0 and 1, got {w!r}")
    return w


def _csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


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
# subcommand handlers


def cmd_factorize(ns) -> int:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    roots, failure = squares.factor_minimal_squares(alph, w)
    if ns.format == "json":
        _emit(ns, json.dumps({"word": w, "roots": roots, "failure_offset": failure}))
    else:
        tail = "" if failure is None else f"  [no minimal square at offset {failure}]"
        _emit(ns, " . ".join(r + r for r in roots) + tail)
    return EXIT_OK if failure is None else EXIT_VIOLATION


def cmd_sqrt(ns) -> int:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    try:
        root = squares.sqrt_finite(alph, w)
    except squares.TokenizationError as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_VIOLATION
    _emit(ns, json.dumps({"word": w, "sqrt": root}) if ns.format == "json" else root)
    return EXIT_OK


def cmd_omega_gamma(ns) -> int:
    sys = _system(ns)
    g, gb = sys.gamma(ns.j), sys.gamma_bar(ns.j)
    if ns.format == "json":
        _emit(ns, json.dumps({"j": ns.j, "gamma": g, "gamma_bar": gb}))
    else:
        _emit(ns, f"gamma_{ns.j}     = {g}\ngamma_bar_{ns.j} = {gb}")
    return EXIT_OK


def cmd_omega_classify(ns) -> int:
    sys = _system(ns)
    prod = streams.sl_cycle(ns.blocks, sys.s_word, sys.l_word, ns.shift)
    kind, pi_len = sys.classify_type(prod)
    if ns.format == "json":
        _emit(ns, json.dumps({"type": kind, "pi_prefix_len": pi_len}))
    else:
        _emit(ns, f"type {kind} (square-product prefix length {pi_len})")
    return EXIT_OK


def cmd_orbit(ns) -> int:
    sys = _system(ns)
    src = _word_source(sys, ns)
    record = dynamics.iterate_sqrt(sys, src, ns.steps)
    if ns.format == "json":
        _emit(ns, json.dumps(record.as_json()))
    else:
        lines = [f"start: {record.start}"]
        for i, step in enumerate(record.steps):
            lines.append(f"  step {i}: {step.outcome:9s} {step.fingerprint} ({step.versus_start} vs start)")
        lines.append(f"n_periodic = {record.n_periodic}, n_fixed = {record.n_fixed}")
        _emit(ns, "\n".join(lines))
    return EXIT_OK


def _parse_fib(text: str) -> list[int]:
    lengths = [int(t) for t in text.split(",") if t]
    if not lengths:
        raise ValueError("--fib names no block length")
    return lengths


def _reproduce(ns, rows: list[tuple], header: list[str], text_line: str) -> int:
    """Emit ``(s_len, value, reference)`` rows with verdicts; exit 1 on a FAIL."""
    table = [[*row, "PASS" if row[2] == row[1] else ("FAIL" if row[2] is not None else "n/a")]
             for row in rows]
    if ns.format == "json":
        _emit(ns, json.dumps({"rows": [dict(zip(header, row)) for row in table]}))
    elif ns.format == "csv":
        _emit(ns, _csv_table(header, table))
    else:
        _emit(ns, "\n".join(text_line.format(*row) for row in table))
    return EXIT_VIOLATION if any(row[3] == "FAIL" for row in table) else EXIT_OK


def cmd_table1(ns) -> int:
    rows = [(r.s_len, r.steps, dynamics.TABLE1_REFERENCE.get(r.s_len))
            for r in dynamics.table1_experiment(_parse_fib(ns.fib))]
    return _reproduce(ns, rows, ["s_len", "steps", "reference", "verdict"],
                      "|S| = {:5d}  steps = {:2d}  reference = {}  {}")


def cmd_table2(ns) -> int:
    rows = [(s_len, dynamics.fibonacci_estimate(s_len),
             dynamics.TABLE2_REFERENCE.get(s_len)) for s_len in _parse_fib(ns.fib)]
    return _reproduce(ns, rows, ["s_len", "estimate", "reference", "verdict"],
                      "|S| = {:5d}  estimate = {}  reference = {}  {}")


def cmd_preimages(ns) -> int:
    sys = _system(ns)
    target = _read_letters(ns)
    need = dynamics.preimage_match_len(sys)
    if len(target) < need:
        raise ValueError(f"target must supply {need} letters")
    hits = dynamics.PreimageIndex(sys).find(target[:need])
    payload = {
        "target": target[:need],
        "count": len(hits),
        "preimages": [
            {"prefix": h.preimage_prefix, "shift": h.shift, "window": h.window}
            for h in hits
        ],
        "junction_form": dynamics.junction_signature(sys, hits) if len(hits) == 2 else None,
    }
    if ns.format == "json":
        _emit(ns, json.dumps(payload))
    else:
        lines = [f"{len(hits)} preimage(s)"]
        lines += [f"  shift {h.shift:3d}  {h.preimage_prefix}" for h in hits]
        if len(hits) == 2:
            lines.append(f"junction form: {payload['junction_form']}")
        _emit(ns, "\n".join(lines))
    return EXIT_OK if len(hits) <= 2 else EXIT_VIOLATION


def cmd_limit_set(ns) -> int:
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
    if ns.format == "json":
        _emit(ns, json.dumps({"samples": results, "all_verified": ok}))
    else:
        lines = [f"T^{r['shift_blocks']}(blocks): {r['status']}, {r['links']} links, verified={r['verified']}"
                 for r in results]
        lines.append(f"all verified: {ok}")
        _emit(ns, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_periodic_points(ns) -> int:
    sys = _system(ns)
    points, refuted = dynamics.periodic_point_search(sys, ns.max_blocks)
    ok = points == ["Gamma1", "Gamma2", "L^w", "S^w"]
    if ns.format == "json":
        _emit(ns, json.dumps({"periodic_points": points, "refuted": refuted,
                              "verdict": "PASS" if ok else "FAIL"}))
    else:
        _emit(ns, f"periodic points: {' '.join(points)}\n"
                  f"refuted candidates: {refuted}\n"
                  f"expected {{Gamma1, Gamma2, S^w, L^w}}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_eq_check(ns) -> int:
    alph = squares.build_alphabet(ns.a, ns.b)
    w = _read_letters(ns)
    cert = equation.is_solution(alph, w)
    if ns.format == "json":
        _emit(ns, json.dumps(cert.as_json() if cert else {"word": w, "verified": False}))
    else:
        _emit(ns, f"solution: {w} = {' . '.join(cert.roots)}" if cert else f"not a solution: {w}")
    return EXIT_OK if cert else EXIT_VIOLATION


def cmd_eq_enumerate(ns) -> int:
    sys = _system(ns)
    certs = equation.enumerate_solutions(sys, ns.bmax)
    if ns.format == "json":
        _emit(ns, json.dumps({"solutions": [c.as_json() for c in certs]}))
    elif ns.format == "csv":
        _emit(ns, _csv_table(["word", "roots"], [[c.word, " ".join(c.roots)] for c in certs]))
    else:
        _emit(ns, "\n".join(f"{len(c.word):4d}  {c.word}" for c in certs))
    return EXIT_OK


def cmd_eq_orbits(ns) -> int:
    pattern = equation.doubling_orbits(ns.n)
    if ns.format == "json":
        _emit(ns, json.dumps({"n": ns.n, "orbits": [list(o) for o in pattern.orbits]}))
    else:
        _emit(ns, " ".join("{" + ",".join(map(str, o)) + "}" for o in pattern.orbits))
    return EXIT_OK


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
        return ns.handler(ns)
    except (ValueError, squares.TokenizationError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except streams.SourcePoisonedError as err:
        print(f"error: the input is not squareful: {err}", file=_sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
