"""Spans and work counters recorded around loopsoup's public functions.

Wrappers live here, in the benchmark, and are patched at the name each
caller looks up (``balanced_signs`` in both ``loopsoup.sampler`` and
``loopsoup.cover``, methods on their classes).  Spans are kept in memory and
written when the run ends; ``install``/``uninstall`` put the originals back
so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

import numpy as np

SETUP, ROUND = "setup", "round"


class Tracer:
    def __init__(self):
        self.phase = SETUP
        self.spans: list[tuple] = []       # (id, parent, name, phase, t0, t1)
        self.seconds: dict[tuple, float] = {}
        self.self_seconds: dict[tuple, float] = {}
        self.counts: dict[tuple, int] = {}
        self._stack: list[list] = []       # [span id, seconds covered by children]
        self._patches: list[tuple] = []    # (owner, attr, original, wrapped)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)      # reserve this span's id
            stack.append(frame)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                key = (tracer.phase, name)
                tracer.spans[frame[0]] = (frame[0], parent, name, tracer.phase, t0, t1)
                tracer.seconds[key] = tracer.seconds.get(key, 0.0) + (t1 - t0)
                tracer.self_seconds[key] = (tracer.self_seconds.get(key, 0.0)
                                            + (t1 - t0) - frame[1])
                if count is not None:
                    for k, v in count(args, kwargs, result, exc).items():
                        ck = (tracer.phase, k)
                        tracer.counts[ck] = tracer.counts.get(ck, 0) + int(v)
                if stack:
                    # the parent's self time excludes this span and its counting
                    stack[-1][1] += time.perf_counter() - t0
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, count))
        else:
            wrapped = self.wrap(name, original, count)
        self._patches.append((owner, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """One JSON array per line: id, parent id, name, phase, start, end."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _roots(args, kwargs, result, exc):
    return {"roots_proposed": len(args[2]), "slabs": 1}


def _cells(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"cells": len(args[1]), "hits": int(np.count_nonzero(result >= 0))}


def _signs(args, kwargs, result, exc):
    return {"bridge_signs": args[1] * 2 * args[2]}


def _cover_signs(args, kwargs, result, exc):
    # _fold_coverage draws two sign rows (s and d) per traced loop
    return {"bridge_signs": args[1] * 2 * args[2], "cover_sign_rows": args[1]}


def _soup_loops(args, kwargs, result, exc):
    return {"soup_loops": 0 if exc is not None else len(result)}


def _extended_loops(args, kwargs, result, exc):
    return {"soup_loops": 0 if exc is not None else len(result) - len(args[0])}


def probe_loopsoup(tracer: Tracer) -> None:
    """Register every wrapper the per-layer metrics need."""
    from loopsoup import cli, cover, greens, laws, sampler, series

    def _half_lengths(args, kwargs, result, exc):
        if exc is None:
            return {"gram_half_lengths": result.m_trunc}
        if isinstance(exc, series.SeriesTruncationError):
            # the whole ceiling was summed before the error was raised
            ceiling = kwargs.get("m_ceiling", args[3] if len(args) > 3
                                 else series.DEFAULT_M_CEILING)
            return {"gram_half_lengths": ceiling}
        return {}

    p = tracer.patch
    p(cover.CoverEngine, "__init__", "cover.engine_build")
    p(cover.CoverEngine, "ensemble", "cover.ensemble")
    for cls in (cover.BoxTarget, cover.PointsTarget):
        p(cls, "root_coords", "cover.root_coords", _roots)
        p(cls, "vertex_index", "cover.vertex_index", _cells)
    p(cover, "first_cover_times_from_soup", "cover.pathwise")
    p(sampler, "balanced_signs", "sampler.bridge", _signs)
    p(cover, "balanced_signs", "sampler.bridge", _cover_signs)
    p(sampler.LengthDistribution, "build", "sampler.length_law")
    p(sampler, "sample_window_soup", "sampler.soup", _soup_loops)
    p(sampler, "extend_soup", "sampler.soup", _extended_loops)
    for mod in (greens, laws):
        p(mod, "greens_table", "greens.table")
    for mod in (greens, cover, laws):
        p(mod, "mu_gamma_o", "greens.mu")
    p(greens, "loop_series_gram", "series.gram", _half_lengths)
    p(laws, "second_moment_report", "laws.second_moment")
    p(laws.TargetSet, "pair_distance_counts", "laws.pair_histogram")
    p(cli, "write_rows_csv", "records.write")
    p(cli, "write_json", "records.write")


def layer_metrics(tracer: Tracer, traced_rounds: int) -> dict[str, float]:
    """Per-layer figures for the set-up phase plus one traced round."""

    def per_run(table, name):
        return (table.get((SETUP, name), 0)
                + table.get((ROUND, name), 0) / traced_rounds)

    def sec(name):
        return per_run(tracer.seconds, name)

    def cnt(name):
        return per_run(tracer.counts, name)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    roots, cells = cnt("roots_proposed"), cnt("cells")
    signs, loops = cnt("bridge_signs"), cnt("soup_loops")
    half_lengths = cnt("gram_half_lengths")
    return {
        "cover.engine_build_s": sec("cover.engine_build"),
        "cover.root_place_s": sec("cover.root_coords"),
        "cover.roots_proposed": roots,
        "cover.accept_frac": ratio(cnt("cover_sign_rows") / 2, roots),
        "cover.vertex_index_s": sec("cover.vertex_index"),
        "cover.cells_traced": cells,
        "cover.hit_frac": ratio(cnt("hits"), cells),
        "cover.slabs": cnt("slabs"),
        "cover.self_s": per_run(tracer.self_seconds, "cover.ensemble"),
        "cover.pathwise_s": sec("cover.pathwise"),
        "sampler.bridge_s": sec("sampler.bridge"),
        "sampler.bridge_steps": signs,
        "sampler.bridge_ns_per_step": ratio(sec("sampler.bridge"), signs, 1e9),
        "sampler.length_law_s": sec("sampler.length_law"),
        "sampler.soup_s": sec("sampler.soup"),
        "sampler.soup_loops": loops,
        "sampler.soup_us_per_loop": ratio(sec("sampler.soup"), loops, 1e6),
        "greens.table_s": sec("greens.table"),
        "greens.mu_s": sec("greens.mu"),
        "series.gram_s": sec("series.gram"),
        "series.gram_half_lengths": half_lengths,
        "series.gram_ns_per_half_length": ratio(sec("series.gram"), half_lengths, 1e9),
        "laws.second_moment_s": sec("laws.second_moment"),
        "laws.pair_histogram_s": sec("laws.pair_histogram"),
        "records.write_s": sec("records.write"),
    }
