"""Per-layer tracing for the traced run, installed from outside the package.

The layers are the modules of ``surfaut`` that do work of their own: core,
endo, whitehead, gens, groupoid and factorize.  Coarse public calls get a
span each (name, start, end, parent span).  Per-letter kernels (``Word``
construction, ``Endomorphism.apply``, ``compose``, ``Automorphism``
construction) are too many to keep, so they only add to counts and times.
Either way a call's self time is its duration minus the time its traced
callees took; calls in one thread nest, so that is the covered time.

Functions are replaced in every ``surfaut`` module namespace that binds
them, because modules import each other's names with ``from .x import y``
and a patch of the defining module alone would miss those internal calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import surfaut as S
import surfaut.endo as endo_mod


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)  # by layer and by call name
        self.incl_s: dict[str, float] = defaultdict(float)  # outermost calls only
        self.canonical_keys: set = set()
        self._child: list[list[float]] = []  # time covered by callees, per open call
        self._depth: Counter = Counter()
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._open_spans: list[int] = []

    def wrap(self, name: str, layer: str, fn, after=None, span: bool = True):
        """``fn`` timed as ``name`` in ``layer``; ``after(args, result)`` counts."""
        child = self._child
        depth = self._depth
        counts, self_s, incl_s = self.counts, self.self_s, self.incl_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            child.append(covered)
            depth[name] += 1
            sid = self._open_span(name) if span else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child.pop()
                depth[name] -= 1
                took = end - start
                if child:
                    child[-1][0] += took
                own = took - covered[0]
                self_s[layer] += own
                self_s[name] += own
                if not depth[name]:
                    incl_s[name] += took
                if span:
                    self._close_span(sid, start, end)
                counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _open_span(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._open_spans[-1] if self._open_spans else -1)
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid: int, start: float, end: float) -> None:
        self.span_start[sid] = start
        self.span_end[sid] = end
        self._open_spans.pop()

    def spans(self, first: int, last: int) -> list[dict]:
        """Spans with index in [first, last), parents as span indices."""
        return [
            {
                "id": i,
                "name": self.span_names[self.span_name[i]],
                "start": self.span_start[i],
                "end": self.span_end[i],
                "parent": self.span_parent[i],
            }
            for i in range(first, last)
        ]

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def install(self) -> None:
        c = self.counts

        def word_done(args, _):
            c["core.word_letters"] += len(args[0].codes)

        def apply_done(args, _):
            c["endo.apply_letters"] += len(args[1].codes)

        def zieschang_done(_, result):
            c["whitehead.zieschang_true"] += bool(result)

        def eval_done(args, _):
            c["gens.eval_tokens"] += len(args[0].tokens)

        def reduce_done(_, result):
            c["groupoid.nielsen_moves"] += len(result[0])

        def canonical_done(args, _):
            self.canonical_keys.add((args[0].sig, args[0].codes))

        def loops_done(_, result):
            c["factorize.base_loops"] += len(result)

        # Classes are shared objects, so patching the attribute reaches every caller.
        for cls, attr, name, layer, after in (
            (S.Word, "__init__", "core.word", "core", word_done),
            (S.Endomorphism, "apply", "endo.apply", "endo", apply_done),
            (S.Automorphism, "__init__", "endo.aut", "endo", None),
        ):
            setattr(cls, attr, self.wrap(name, layer, getattr(cls, attr), after, span=False))
        for fn, layer, after, span in (
            (endo_mod.compose, "endo", None, False),
            (S.is_zieschang, "whitehead", zieschang_done, True),
            (S.eval_gen_word, "gens", eval_done, True),
            (S.humphries_rewrite, "gens", None, True),
            (S.nielsen_reduce, "groupoid", reduce_done, True),
            (S.canonical_edge, "groupoid", canonical_done, True),
            (S.certify_automorphism, "groupoid", None, True),
            (S.factorize_adl, "factorize", None, True),
            (S.factorize_adlh, "factorize", None, True),
            (S.nielsen_to_base_loops, "factorize", loops_done, True),
            (S.peel_special, "factorize", None, True),
        ):
            _replace_everywhere(fn, self.wrap(fn.__name__, layer, fn, after, span))

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, own = self.counts, self.self_s
        z_calls = c["is_zieschang"]
        canon = c["canonical_edge"]
        return {
            "core.words": (c["core.word"], "count"),
            "core.word_letters": (c["core.word_letters"], "count"),
            "core.self_s": (own["core"], "s"),
            "endo.apply_calls": (c["endo.apply"], "count"),
            "endo.apply_letters": (c["endo.apply_letters"], "count"),
            "endo.compose_calls": (c["compose"], "count"),
            "endo.aut_built": (c["endo.aut"], "count"),
            "endo.self_s": (own["endo"], "s"),
            "whitehead.is_zieschang_calls": (z_calls, "count"),
            "whitehead.zieschang_ratio": (
                c["whitehead.zieschang_true"] / z_calls if z_calls else 0.0, "ratio"),
            "whitehead.self_s": (own["whitehead"], "s"),
            "gens.eval_calls": (c["eval_gen_word"], "count"),
            "gens.eval_tokens": (c["gens.eval_tokens"], "count"),
            "gens.eval_self_s": (own["eval_gen_word"], "s"),
            "gens.eval_s": (self.incl_s["eval_gen_word"], "s"),
            "gens.humphries_calls": (c["humphries_rewrite"], "count"),
            "gens.self_s": (own["gens"], "s"),
            "groupoid.nielsen_reduce_calls": (c["nielsen_reduce"], "count"),
            "groupoid.nielsen_moves": (c["groupoid.nielsen_moves"], "count"),
            "groupoid.canonical_calls": (canon, "count"),
            "groupoid.canonical_distinct_ratio": (
                len(self.canonical_keys) / canon if canon else 0.0, "ratio"),
            "groupoid.canonical_self_s": (own["canonical_edge"], "s"),
            "groupoid.certify_calls": (c["certify_automorphism"], "count"),
            "groupoid.self_s": (own["groupoid"], "s"),
            "factorize.calls": (c["factorize_adl"] + c["factorize_adlh"], "count"),
            "factorize.base_loops": (c["factorize.base_loops"], "count"),
            "factorize.peel_calls": (c["peel_special"], "count"),
            "factorize.self_s": (own["factorize"], "s"),
        }


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "surfaut" or mod_name.startswith("surfaut.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
