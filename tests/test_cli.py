import argparse
import contextlib
import inspect
import io
import json
import pathlib
import re

import jsonschema
import pytest
import referencing
from hypothesis import given, settings, strategies as st

from squareful import cli, dynamics, omega, squares, streams
from squareful.cli import main
from squareful.omega import OmegaParams, OmegaSystem

SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
# every schema by file name, so that one schema can refer to another
REGISTRY = referencing.Registry().with_resources(
    (path.name, referencing.Resource.from_contents(json.loads(path.read_text())))
    for path in SCHEMAS.glob("*.json"))
# stdout and exit code of every README example (limit-set at --samples 3
# --depth 4) and of every subcommand in each format it takes; refactors must
# reproduce them byte for byte
GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "cli_examples.json").read_text())
# the schema that every subcommand's JSON output validates against
SCHEMA_OF = {
    ("sqrt",): "sqrt.json", ("factorize",): "factorize.json", ("omega", "gamma"): "gamma.json",
    ("omega", "classify"): "classify.json", ("orbit",): "orbit.json", ("table1",): "table1.json",
    ("table2",): "table2.json", ("preimages",): "preimages.json", ("limit-set",): "limit_set.json",
    ("periodic-points",): "periodic_points.json", ("eq", "check"): "certificate.json",
    ("eq", "enumerate"): "solutions.json", ("eq", "orbits"): "doubling_orbits.json",
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.rstrip("\n")


def validate(payload, schema_name):
    jsonschema.validate(payload, REGISTRY.contents(schema_name), registry=REGISTRY)


class TestBasicCommands:
    def test_sqrt_example(self, capsys):
        code, out = run(capsys, "sqrt", "--a", "1", "--b", "0", "0101001010")
        assert (code, out) == (0, "01010")

    def test_factorize(self, capsys):
        code, out = run(capsys, "factorize", "--a", "1", "--b", "0", "0101001010")
        assert code == 0
        assert out == "0101 . 00 . 1010"

    def test_factorize_failure_exit(self, capsys):
        code, out = run(capsys, "factorize", "010")
        assert code == 1
        assert "offset 0" in out

    def test_eq_orbits(self, capsys):
        code, out = run(capsys, "eq", "orbits", "--n", "7")
        assert (code, out) == (0, "{0} {1,2,4} {3,5,6}")

    def test_eq_check_exit_codes(self, capsys):
        assert run(capsys, "eq", "check", "01010")[0] == 0
        assert run(capsys, "eq", "check", "0110")[0] == 1

    def test_omega_gamma(self, capsys):
        code, out = run(capsys, "omega", "gamma", "--c", "1", "--k", "4", "--j", "1")
        assert code == 0
        sys = OmegaSystem(OmegaParams())
        assert sys.gamma(1) in out

    def test_omega_classify(self, capsys):
        # S = 01010010: the remainder 010010 of shift 2 is a square product,
        # 0010 of shift 4 is one with the next block, 010 of shift 5 neither
        for shift, kind, pi_len in ((0, "A", 0), (2, "B", 6), (4, "C", 12), (5, "D", 0)):
            argv = ("omega", "classify", "--blocks", "S", "--shift", str(shift))
            code, out = run(capsys, *argv, "--format", "json")
            assert code == 0
            payload = json.loads(out)
            validate(payload, "classify.json")
            assert payload == {"type": kind, "pi_prefix_len": pi_len}
            assert run(capsys, *argv) == (0, f"type {kind} (square-product prefix length {pi_len})")


class TestTables:
    def test_table2_pass(self, capsys):
        code, out = run(capsys, "table2", "--fib", "8,13,144,6765")
        assert code == 0
        assert out.count("PASS") == 4

    def test_table2_json_schema(self, capsys):
        code, out = run(capsys, "table2", "--format", "json")
        assert code == 0
        validate(json.loads(out), "table2.json")

    def test_table1_small(self, capsys):
        code, out = run(capsys, "table1", "--fib", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "table1.json")
        assert payload["rows"][0] == {"s_len": 8, "steps": 3, "reference": 3,
                                      "verdict": "PASS"}

    def test_table1_csv(self, capsys):
        code, out = run(capsys, "table1", "--fib", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "s_len,steps,reference,verdict"


class TestOrbitCommand:
    def test_named_source(self, capsys):
        code, out = run(capsys, "orbit", "--word", "s-omega", "--steps", "2",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "orbit.json")
        assert payload["n_fixed"] == 0

    def test_blocks_source(self, capsys):
        # cycled all-S blocks at shift 4 give the periodic word T^4(S^omega),
        # which reaches S^omega itself after three steps
        code, out = run(capsys, "orbit", "--word", "S", "--input-kind", "blocks",
                        "--shift", "4", "--steps", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["n_periodic"] == 0
        assert payload["n_fixed"] == 3
        assert payload["steps"][3]["fingerprint"] == "01010010"

    def test_long_run_of_blocks_is_not_periodic(self, capsys):
        # (S^12 L)^w has least period 13|S|: it opens with twelve S blocks,
        # but no step of its orbit is a shift of S^omega
        code, out = run(capsys, "orbit", "--word", "S" * 12 + "L", "--input-kind", "blocks",
                        "--steps", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert [s["outcome"] for s in payload["steps"]] == ["A", "A", "A"]
        assert (payload["n_periodic"], payload["n_fixed"]) == (None, None)

    def test_stream_is_not_a_missing_period(self, capsys):
        # (0101)^w has a known period and so has its square root, yet it is
        # no shift of S^omega: 'stream' says exactly that
        code, out = run(capsys, "orbit", "--word", "0101", "--input-kind", "letters",
                        "--steps", "3", "--format", "json")
        assert code == 0
        assert [s["outcome"] for s in json.loads(out)["steps"]] == ["stream"] * 4
        word = streams.periodic_word("0101")
        assert word.period() == (0, 4)
        assert streams.sqrt_stream(OmegaSystem(OmegaParams()).alphabet, word).period() == (0, 2)
        with pytest.raises(SystemExit):
            main(["orbit", "--help"])
        assert "not known to be a shift of S^omega" in " ".join(capsys.readouterr().out.split())


    @pytest.mark.parametrize("kind, word", [("letters", "0010010100101"), ("blocks", "SLL")])
    def test_long_orbit_of_a_periodic_source(self, capsys, kind, word):
        # a decimation reads its periodic names modulo their period and a
        # root repeats its first period, so 200 steps stay small
        code, out = run(capsys, "orbit", "--input-kind", kind, "--word", word, "--steps", "200")
        assert code == 0
        assert len(out.split("\n")) == 203

class TestPreimagesCommand:
    def test_on_generated_target(self, capsys):
        sys = OmegaSystem(OmegaParams())
        target = streams.shift(sys.big_gamma(1), 5).prefix(16 * sys.block_len)
        code, out = run(capsys, "preimages", target, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "preimages.json")
        assert payload["count"] <= 2

    def test_short_target_usage_error(self, capsys):
        assert run(capsys, "preimages", "0101")[0] == 2

    def test_double_without_junction_form_is_a_violation(self, capsys, monkeypatch):
        # off the periodic part two preimages must have the junction form;
        # in it the cap does not apply, whatever the count
        sys = OmegaSystem(OmegaParams(k=6))
        target = sys.big_gamma(1).prefix(11 + 16 * sys.block_len)[11:]
        assert run(capsys, "preimages", "--k", "6", target)[0] == 0
        monkeypatch.setattr(dynamics, "junction_signature", lambda sys, hits: False)
        code, out = run(capsys, "preimages", "--k", "6", target)
        assert (code, out.splitlines()[-1]) == (1, "junction form: False")
        monkeypatch.undo()
        # at c = 2, T^2(S^omega) has two preimages that swap no block
        s_omega = OmegaSystem(OmegaParams(c=2)).s_word * 18
        code, out = run(capsys, "preimages", "--c", "2", s_omega[2:130])
        assert code == 0
        assert out.startswith("2 preimage(s)") and out.splitlines()[-2:] == [
            "junction form: False",
            "periodic part: the target is a factor of S^omega, where the cap does not apply"]


class TestMiscCommands:
    def test_limit_set(self, capsys):
        code, out = run(capsys, "limit-set", "--samples", "3", "--depth", "4",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["all_verified"] is True

    def test_limit_set_budget_cut_is_not_a_failed_verification(self, capsys, monkeypatch):
        chain = dynamics.preimage_chain
        monkeypatch.setattr(dynamics, "preimage_chain",
                            lambda *args: chain(*args, block_budget=20_000))
        code, out = run(capsys, "limit-set", "--samples", "1", "--depth", "14")
        assert code == 1
        assert out == "T^1(blocks): budget, 7 links, verified=True\nall verified: False"

    def test_limit_set_retokenizes_no_link_above_the_cap(self, capsys, monkeypatch):
        # the CLI verifies a link of more than 300,000 letters by names, as
        # criterion 09 does; a level-9 link on T^1 has 944,768 letters
        sizes = []
        sqrt_finite = squares.sqrt_finite

        def record(alph, w):
            sizes.append(len(w))
            return sqrt_finite(alph, w)

        monkeypatch.setattr(squares, "sqrt_finite", record)
        code, _ = run(capsys, "limit-set", "--samples", "1", "--depth", "10")
        assert code == 0
        assert sizes and max(sizes) <= 300_000

    def test_periodic_points(self, capsys):
        code, out = run(capsys, "periodic-points", "--max-blocks", "4",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["periodic_points"] == ["Gamma1", "Gamma2", "L^w", "S^w"]
        assert payload["verdict"] == "PASS"

    def test_eq_enumerate_json(self, capsys):
        code, out = run(capsys, "eq", "enumerate", "--bmax", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for cert in payload["solutions"]:
            validate(cert, "certificate.json")


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        args = ("table1", "--fib", "8", "--format", "json")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "t2.csv"
        code, _ = run(capsys, "table2", "--fib", "8", "--format", "csv",
                      "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("s_len,estimate")


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_readme_example_output_is_unchanged(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def test_every_subcommand_has_golden_json_that_validates():
    json_cases = [case for case in GOLDEN if case["argv"][-2:] == ["--format", "json"]]
    paths = set()
    for case in json_cases:
        path = next(p for p in SCHEMA_OF if tuple(case["argv"][: len(p)]) == p)
        validate(json.loads(case["stdout"]), SCHEMA_OF[path])
        paths.add(path)
    assert paths == set(SCHEMA_OF) == set(LEAVES)
    csv_paths = {tuple(case["argv"][:2]) for case in GOLDEN if case["argv"][-2:] == ["--format", "csv"]}
    assert csv_paths == {("table1", "--fib"), ("table2", "--fib"), ("eq", "enumerate")}


def test_solutions_schema_checks_each_certificate():
    validate({"solutions": [{"word": "01", "roots": ["01"], "verified": True}]}, "solutions.json")
    with pytest.raises(jsonschema.ValidationError):
        validate({"solutions": [{"word": "01", "roots": ["01"]}]}, "solutions.json")


@pytest.mark.parametrize("argv, code", [
    (["omega", "gamma", "--j", "-1"], 2),
    (["orbit", "--word", "foo"], 2),
    (["orbit", "--word", "0110", "--input-kind", "letters"], 1),
    (["limit-set", "--samples", "0"], 2),
    (["orbit", "--word", "gamma1", "--steps", "-3"], 2),
    (["factorize", ""], 2),
    (["sqrt", ""], 2),
    (["table1", "--fib", ""], 2),
    (["table1", "--fib", ",,"], 2),
    (["table2", "--fib", ""], 2),
    (["preimages", "2" * 128], 2),
    (["preimages", "01" * 63], 2),
    (["orbit", "--word", "gamma1", "--shift", "3"], 2),
    (["factorize", "0101", "--format", "csv"], 2),
    (["eq", "check", ""], 2),
    (["sqrt", "0120"], 2),
    (["factorize", "0120"], 2),
    (["eq", "check", "0a0a"], 2),
    (["preimages", ""], 2),
    (["orbit", "--word", "", "--input-kind", "letters"], 2),
    (["periodic-points", "--cap", "16"], 2),
])
def test_errors_exit_with_one_line(capsys, argv, code):
    # usage errors exit 2, a non-squareful input exits 1; never a traceback
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["omega", "classify", "--blocks", ""], "error: block names must be a nonempty word over S and L, not ''"),
    (["orbit", "--input-kind", "blocks", "--word", ""],
     "error: block names must be a nonempty word over S and L, not ''"),
    (["table1", "--fib", "8,x"], "error: --fib: not an integer: 'x'"),
    (["table2", "--fib", "8,x"], "error: --fib: not an integer: 'x'"),
])
def test_usage_errors_name_the_input(capsys, argv, message):
    # the message speaks of what the user gave, not of an internal word
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ["omega", "gamma", "--j", "20"],
    ["omega", "gamma", "--k", "40", "--j", "1"],
    ["preimages", "--k", "40", "01" * 64],
    ["omega", "gamma", "--j", "1000000000"],
    ["periodic-points", "--max-blocks", str(cli.MAX_BLOCKS + 1)],
    ["periodic-points", "--max-blocks", "1000000000"],
    ["periodic-points", "--c", "10000000"],
    ["limit-set", "--samples", "1", "--depth", "2", "--c", "3000"],
    ["eq", "enumerate", "--bmax", "200000"],
    ["table1", "--fib", "14930352"],
])
def test_oversized_words_are_refused_before_building(monkeypatch, capsys, argv):
    # the sizes are integer arithmetic: no block word and no tau image is built
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized word was built")

    monkeypatch.setattr(omega, "reversed_standard_word", unreachable)
    monkeypatch.setattr(OmegaSystem, "tau_block", unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    bound = cli.MAX_BLOCKS if "--max-blocks" in argv else cli.MAX_WORD_LETTERS
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(bound) in lines[0]


def test_largest_bmax_is_accepted(monkeypatch, capsys):
    # the factor windows of --bmax 6092 spell 3 * 3^7 * 1524 <= 10^7 names
    # in the three covering texts of the default system, those of 6093
    # spell 3 * 3^7 * 1525 > 10^7
    monkeypatch.setattr(cli.equation, "enumerate_solutions", lambda sys, bmax: [])
    assert main(["eq", "enumerate", "--bmax", "6092"]) == 0
    assert main(["eq", "enumerate", "--bmax", "6093"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --bmax 6093")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_largest_max_blocks_is_accepted(capsys, fmt):
    # the refuted count at the bound prints in full under either format
    assert main(["periodic-points", "--max-blocks", str(cli.MAX_BLOCKS), "--format", fmt]) == 0
    out = capsys.readouterr().out
    refuted = json.loads(out)["refuted"] if fmt == "json" else int(out.splitlines()[1].split(": ")[1])
    assert 1 << cli.MAX_BLOCKS < refuted < 1 << (cli.MAX_BLOCKS + 1)


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    assert main(["sqrt", "0101", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_every_option_is_read_by_a_handler(monkeypatch):
    # an option no handler reads is a flag that changes nothing
    dests = []
    add_argument = argparse.ArgumentParser.add_argument

    def record(self, *args, **kwargs):
        action = add_argument(self, *args, **kwargs)
        dests.append(action.dest)
        return action

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
    cli.build_parser()
    source = inspect.getsource(cli)
    options = sorted(set(dests) - {"help"})
    assert len(options) > 15  # the scan sees the parser
    unread = [d for d in options
              if not re.search(rf"\bns\.{d}\b|getattr\(ns, \"{d}\"", source)]
    assert not unread, f"options no handler reads: {unread}"


def leaf_parsers(parser, path=()):
    """``(subcommand path, parser)`` of each parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, path + (name,))


FUZZ_WORDS = st.text(alphabet="01SL2", max_size=12)
FUZZ_VALUES = {
    "a": st.integers(0, 3), "b": st.integers(0, 2), "c": st.integers(0, 2), "k": st.integers(0, 6),
    "j": st.integers(-1, 3), "n": st.integers(0, 12), "shift": st.integers(-2, 20),
    "max_blocks": st.integers(1, 6), "depth": st.integers(1, 3), "samples": st.integers(1, 3),
    "bmax": st.integers(1, 24), "steps": st.integers(0, 6),
    "fib": st.sampled_from(["8", "8,13", "13,21,34", "5", "7", "0", "", ",,", "8,x", "-8"]),
    "word": st.one_of(FUZZ_WORDS, st.sampled_from(["gamma1", "gamma2", "s-omega", "l-omega"])),
}


LEAVES = dict(leaf_parsers(cli.build_parser()))


@st.composite
def fuzzed_argv(draw, path):
    # small values for a random subset of the options of one subcommand; a
    # positional word is always given, so stdin is never read
    argv = list(path)
    for action in LEAVES[path]._actions:
        if action.dest in ("help", "out"):
            continue
        if action.option_strings and not draw(st.booleans()):
            continue
        strategy = FUZZ_VALUES.get(action.dest, FUZZ_WORDS)
        value = draw(st.sampled_from(action.choices) if action.choices else strategy)
        argv += [action.option_strings[0], str(value)] if action.option_strings else [str(value)]
    return argv


@pytest.mark.parametrize("path", LEAVES, ids=" ".join)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_contract(path, data):
    argv = data.draw(fuzzed_argv(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
