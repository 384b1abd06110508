"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and class methods of the library's
layer modules for the duration of one pass.  Every wrapped call records a
span: its name, start, end, parent span and the benchmark task it ran under.
Spans are kept in flat arrays in memory (about 29 bytes each) and written out
when the run ends.  A span's self time is its duration minus the durations of
its child spans; calls are strictly nested because the benchmark runs in one
thread, so the children never overlap.

Two kinds of stream are tagged: the outputs of ``streams.sqrt_stream`` and of
``OmegaSystem.big_gamma``.  A ``prefix`` or ``window`` call on a tagged stream
that extends what has been read of it carries the tag, so the time spent
producing square-root letters and fixed-point letters can be read off the
span tree without instrumenting the library's generators.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import json
import time
import weakref
from pathlib import Path

LAYERS = ("words", "sturmian", "squares", "streams", "omega", "dynamics", "equation")

# Methods left untraced: ``ensure`` is the shared first step of ``prefix`` and
# ``window``, and the other three are one-line delegations run once per
# square or per block.  Tracing them would multiply the span count of the
# hottest paths and add nothing: their time stays in their callers' spans, and
# the ``window`` calls they make are still traced.
SKIP = {
    "streams.InfiniteWord.ensure",
    "streams.InfiniteWord.letter",
    "streams.SLProduct.block",
    "squares.SquareAlphabet.root_of",
}

NO_TAG, SQRT_TAG, GAMMA_TAG = 0, 1, 2

TOKENIZE = "squares.factor_minimal_squares"
GAME = "dynamics.OrbitEngine.steps_supremum"


def _harvest_positions(text: str, max_root_len: int) -> int:
    """Window comparisons made by ``harvest_square_factors(text, max_root_len)``."""
    return sum(max(0, len(text) - 2 * half + 1) for half in range(1, max_root_len + 1))


def _chain_counts(chain) -> dict[str, int]:
    return {
        "dynamics.preimage_chain.links": len(chain.links),
        "dynamics.preimage_chain.verify_letters": sum(len(link.preimage) for link in chain.links),
    }


# span name -> function(args, result) giving counter increments
COUNTERS = {
    TOKENIZE: lambda args, out: {"squares.tokenize.letters": len(args[1])},
    "omega.tau": lambda args, out: {"omega.tau.letters_out": len(out)},
    "omega.OmegaSystem.sigma": lambda args, out: {"omega.sigma.letters_out": len(out)},
    "equation.harvest_square_factors": lambda args, out: {
        "equation.harvest_square_factors.positions": _harvest_positions(args[0], args[1])
    },
    "dynamics.preimage_chain": lambda args, out: _chain_counts(out),
}

# functions whose returned stream is tagged
TAGGED_OUTPUTS = {"streams.sqrt_stream": SQRT_TAG, "omega.OmegaSystem.big_gamma": GAMMA_TAG}
STREAM_READS = {"streams.InfiniteWord.prefix", "streams.InfiniteWord.window"}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.task = array.array("i")
        self.tag = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, int] = {}
        self.task_id = -1
        self._stack = [-1]
        self._tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._read: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.tag_letters = {SQRT_TAG: 0, GAMMA_TAG: 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, increments: dict[str, int]) -> None:
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)
        out_tag = TAGGED_OUTPUTS.get(name, NO_TAG)
        stack, clock = self._stack, time.perf_counter
        names, parents, tasks, tags, starts, ends = (
            self.name, self.parent, self.task, self.tag, self.start, self.end)

        def open_span() -> int:
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(self.task_id)
            tags.append(NO_TAG)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        if name in STREAM_READS:
            tag_of, read = self._tags, self._read

            @functools.wraps(fn)
            def traced_read(src, *args, **kwargs):
                i = open_span()
                try:
                    return fn(src, *args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                    tag = tag_of.get(src)
                    if tag is not None and src.max_queried > read[src]:
                        tags[i] = tag
                        self.tag_letters[tag] += src.max_queried - read[src]
                        read[src] = src.max_queried

            return traced_read

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                self.count(counter(args, out))
            if out_tag:
                self._tags[out] = out_tag
                self._read[out] = out.max_queried
            return out

        return traced

    # -- instrumentation -----------------------------------------------------

    def instrument(self, package, modules: dict) -> None:
        """Wrap every public function and method of the layer modules.

        A function imported by name into another module of the package (such
        as ``tau`` in ``equation``) is replaced there too.
        """
        replaced = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if name not in SKIP:
                        replaced[obj] = self._wrap(obj, name)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._instrument_class(short, obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def _instrument_class(self, short: str, cls) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{short}.{cls.__name__}.{attr}"
            if name not in SKIP:
                self._set(cls, attr, self._wrap(fn, name))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name call counts, self and inclusive times, and tag totals."""
        n = len(self.start)
        start, end, parent, name, tag = self.start, self.end, self.parent, self.name, self.tag
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, self_s, incl_s = [0] * k, [0.0] * k, [0.0] * k
        longest = [0.0] * k
        tag_self = {SQRT_TAG: 0.0, GAMMA_TAG: 0.0}
        tag_top = {SQRT_TAG: 0.0, GAMMA_TAG: 0.0}
        tokenize_id, game_id = self._ids.get(TOKENIZE), self._ids.get(GAME)
        under_game = bytearray(n)
        tag_mask = bytearray(n)  # bit t set: some ancestor carries tag t
        tokenize_under_game = 0
        for i in range(n):
            nid, p, d = name[i], parent[i], dur[i]
            calls[nid] += 1
            self_s[nid] += d - child[i]
            incl_s[nid] += d
            if d > longest[nid]:
                longest[nid] = d
            if p >= 0:
                under_game[i] = under_game[p] or name[p] == game_id
                tag_mask[i] = tag_mask[p] | (1 << tag[p] if tag[p] else 0)
            t = tag[i]
            if t:
                tag_self[t] += d - child[i]
                if not tag_mask[i] & (1 << t):
                    tag_top[t] += d
            if nid == tokenize_id and under_game[i]:
                tokenize_under_game += 1
        per_name = {
            self.names[j]: {"calls": calls[j], "self_s": self_s[j], "incl_s": incl_s[j],
                            "longest_s": longest[j]}
            for j in range(k)
        }
        return {
            "spans": n,
            "per_name": per_name,
            "tag_self_s": tag_self,
            "tag_top_s": tag_top,
            "tag_letters": dict(self.tag_letters),
            "tokenize_under_game": tokenize_under_game,
            "counters": dict(self.counters),
        }

    def write(self, path: Path) -> None:
        """Write the spans as raw arrays plus a JSON header beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "parent", "task", "tag", "start", "end")
        with open(path, "wb") as fh:
            for field in fields:
                getattr(self, field).tofile(fh)
        header = {
            "run_id": self.run_id,
            "count": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": self.names,
            "tags": {"1": "streams.sqrt_stream output", "2": "omega.big_gamma output"},
        }
        path.with_suffix(".json").write_text(json.dumps(header))


def _per(summary: dict, name: str, stat: str) -> float:
    return summary["per_name"].get(name, {}).get(stat, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(summary: dict, materialized: int, overhead_frac: float) -> dict:
    """The per-layer metrics, by name, as ``(value, unit)``."""
    per = functools.partial(_per, summary)
    c = summary["counters"].get
    tok_letters = c("squares.tokenize.letters", 0)
    tok_self = per(TOKENIZE, "self_s")
    sqrt_letters = summary["tag_letters"][SQRT_TAG]
    gamma_letters = summary["tag_letters"][GAMMA_TAG]
    m = {
        "squares.tokenize.calls": (per(TOKENIZE, "calls"), "count"),
        "squares.tokenize.letters": (tok_letters, "count"),
        "squares.tokenize.self_s": (tok_self, "s"),
        "squares.tokenize.letters_per_s": (_ratio(tok_letters, tok_self), "letters/s"),
        "dynamics.steps_supremum.self_s": (per(GAME, "self_s"), "s"),
        "dynamics.steps_supremum.top_row_s": (per(GAME, "longest_s"), "s"),
        "dynamics.steps_supremum.tokenize_calls": (summary["tokenize_under_game"], "count"),
        "dynamics.rotation_phase.self_s": (per("dynamics.OrbitEngine.rotation_phase", "self_s"), "s"),
        "words.conjugates.self_s": (per("words.conjugates", "self_s"), "s"),
        "dynamics.steps_to_fixed.calls": (per("dynamics.OrbitEngine.steps_to_fixed", "calls"), "count"),
        "dynamics.steps_to_fixed.self_s": (per("dynamics.OrbitEngine.steps_to_fixed", "self_s"), "s"),
        "dynamics.iterate_sqrt.self_s": (per("dynamics.iterate_sqrt", "self_s"), "s"),
        "omega.classify_type.calls": (per("omega.OmegaSystem.classify_type", "calls"), "count"),
        "omega.sqrt_of_product.calls": (per("omega.OmegaSystem.sqrt_of_product", "calls"), "count"),
        "omega.sqrt_of_product.self_s": (per("omega.OmegaSystem.sqrt_of_product", "self_s"), "s"),
        "omega.omega_p_match.self_s": (per("omega.OmegaSystem.omega_p_match", "self_s"), "s"),
        "streams.sqrt_stream.sources": (per("streams.sqrt_stream", "calls"), "count"),
        "streams.sqrt_stream.letters_out": (sqrt_letters, "count"),
        "streams.sqrt_stream.self_s": (
            summary["tag_self_s"][SQRT_TAG] + per("streams.sqrt_stream", "self_s"), "s"),
        "streams.sqrt_stream.letters_per_s": (
            _ratio(sqrt_letters, summary["tag_top_s"][SQRT_TAG]), "letters/s"),
        "streams.window.calls": (per("streams.InfiniteWord.window", "calls"), "count"),
        "streams.window.self_s": (per("streams.InfiniteWord.window", "self_s"), "s"),
        "streams.prefix.calls": (per("streams.InfiniteWord.prefix", "calls"), "count"),
        "streams.prefix.self_s": (per("streams.InfiniteWord.prefix", "self_s"), "s"),
        "streams.letters_materialized": (materialized, "count"),
        "omega.tau.calls": (per("omega.tau", "calls"), "count"),
        "omega.tau.letters_out": (c("omega.tau.letters_out", 0), "count"),
        "omega.tau.self_s": (per("omega.tau", "self_s"), "s"),
        "omega.sigma.letters_out": (c("omega.sigma.letters_out", 0), "count"),
        "omega.sigma.self_s": (per("omega.OmegaSystem.sigma", "self_s"), "s"),
        "omega.big_gamma.letters_per_s": (
            _ratio(gamma_letters, summary["tag_top_s"][GAMMA_TAG]), "letters/s"),
        "dynamics.preimage_chain.calls": (per("dynamics.preimage_chain", "calls"), "count"),
        "dynamics.preimage_chain.self_s": (per("dynamics.preimage_chain", "self_s"), "s"),
        "dynamics.preimage_chain.links": (c("dynamics.preimage_chain.links", 0), "count"),
        "dynamics.preimage_chain.verify_letters": (
            c("dynamics.preimage_chain.verify_letters", 0), "count"),
        "dynamics.AlignmentTower.start.self_s": (
            per("dynamics.AlignmentTower.start", "self_s"), "s"),
        "dynamics.PreimageIndex.build_s": (per("dynamics.PreimageIndex", "incl_s"), "s"),
        "dynamics.PreimageIndex.find.calls": (per("dynamics.PreimageIndex.find", "calls"), "count"),
        "dynamics.PreimageIndex.find.self_s": (per("dynamics.PreimageIndex.find", "self_s"), "s"),
        "dynamics.junction_signature.calls": (per("dynamics.junction_signature", "calls"), "count"),
        "equation.harvest_square_factors.positions": (
            c("equation.harvest_square_factors.positions", 0), "count"),
        "equation.harvest_square_factors.self_s": (
            per("equation.harvest_square_factors", "self_s"), "s"),
        "equation.is_solution.calls": (per("equation.is_solution", "calls"), "count"),
        "equation.is_solution.self_s": (per("equation.is_solution", "self_s"), "s"),
        "equation.conjugate_solution_audit.self_s": (
            per("equation.conjugate_solution_audit", "self_s"), "s"),
        "equation.check_self_sqrt.calls": (per("equation.check_self_sqrt", "calls"), "count"),
        "equation.check_self_sqrt.self_s": (per("equation.check_self_sqrt", "self_s"), "s"),
        "sturmian.coding.self_s": (per("sturmian.RotationSystem.coding", "self_s"), "s"),
        "sturmian.sqrt_intercept.calls": (
            per("sturmian.RotationSystem.sqrt_intercept", "calls"), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return m
