"""Per-layer timing from outside the program.

`install` replaces the module attributes through which one layer calls the
next with timing wrappers; nothing in `src/` changes.  Functions look up
module globals at call time, so a patched attribute also catches calls made
from inside its own module.  The figure builders are reached through the
`figures.FIGURES` dict the CLI reads, so the dict entries are wrapped too.

Each wrapper records a span.  A span's self time is its duration minus the
time its child spans cover; the wrappers' own bookkeeping after a call is
added to the parent's child time, so it counts against no layer.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, metric prefix) of every wrapped function.
SPANS = (
    ("cli", "main", "cli.main"),
    ("oracle", "coupling_matrix", "oracle.coupling_matrix"),
    ("oracle", "build_hamiltonian", "oracle.build_hamiltonian"),
    ("oracle", "eigenvalues", "oracle.eigenvalues"),
    ("oracle", "cluster_levels", "oracle.cluster_levels"),
    ("oracle", "compare", "oracle.compare"),
    ("tableau", "_fiber_cache", "tableau.fibers"),
    ("spectrum", "level_set", "spectrum.level_set"),
    ("spectrum", "level_count_by_enumeration", "spectrum.level_count_by_enumeration"),
    ("motif", "count_by_enumeration", "motif.count_by_enumeration"),
    ("motif", "count_half_by_enumeration", "motif.count_half_by_enumeration"),
    ("partition", "hs_partition", "partition.hs_partition"),
    ("partition", "fi_partition", "partition.fi_partition"),
    ("partition", "dump_terms", "partition.dump_terms"),
    ("partition", "load_terms", "partition.load_terms"),
    ("figures", "render_svg", "figures.render_svg"),
)
FIGURE_SPAN = "figures.build"

# Metrics besides `<span>.self_s` and `<span>.calls`, with their units.
COUNTERS = {
    "oracle.build_hamiltonian.states": "count",
    "oracle.eigenvalues.matrix_mb": "MB",
    "oracle.cluster_levels.levels": "count",
    "oracle.cluster_levels.min_gap_ratio": "ratio",
    "oracle.cluster_levels.max_inner_ratio": "ratio",
    "tableau.fibers.states": "count",
    "tableau.fibers.hit_ratio": "ratio",
    "spectrum.level_set.motifs": "count",
    "spectrum.level_count_by_enumeration.words": "count",
    "motif.words": "count",
    "partition.terms": "count",
    "partition.coeff_bits": "bits",
    "partition.dump_bytes": "B",
}


class Tracer:
    """Span stack plus per-span totals for one process."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, child seconds]
        self.span_s: dict[str, float] = {}
        self.child_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._min_gap = float("inf")
        self._max_inner = 0.0

    def wrap(self, name: str, fn, after=None):
        """Time calls of fn as span `name`; `after(args, kwargs, result)` runs untimed."""
        self.span_s.setdefault(name, 0.0)
        self.child_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.span_s[name] += t1 - t0
                self.child_s[name] += frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += t1 - t0
            if after is not None:
                after(args, kwargs, result)
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - t1
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def add_to_open(self, span: str, key: str, value: float) -> None:
        """Count `value` for `key` when a span named `span` is open."""
        if any(frame[0] == span for frame in self._stack):
            self.add(key, value)

    def note_clusters(self, values, tol: float, levels: int) -> None:
        import numpy as np

        vals = np.sort(np.asarray(values, dtype=float))
        self.add("oracle.cluster_levels.levels", levels)
        if vals.size < 2:
            return
        thresh = tol * max(1.0, float(np.abs(vals).max()))
        gaps = np.diff(vals) / thresh
        between = gaps[gaps > 1.0]
        inner = gaps[gaps <= 1.0]
        if between.size:
            self._min_gap = min(self._min_gap, float(between.min()))
        if inner.size:
            self._max_inner = max(self._max_inner, float(inner.max()))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, span in self.span_s.items():
            out[f"{name}.self_s"] = span - self.child_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        out["oracle.cluster_levels.min_gap_ratio"] = 0.0 if self._min_gap == float("inf") else self._min_gap
        out["oracle.cluster_levels.max_inner_ratio"] = self._max_inner
        return out


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def install(tracer: Tracer, modules: dict) -> None:
    """Patch the layer boundaries of the imported `motifspectra` modules."""
    oracle, tableau, motif, partition, figures = (
        modules[k] for k in ("oracle", "tableau", "motif", "partition", "figures")
    )
    fiber_cache = tableau._fiber_cache
    fiber_start = fiber_cache.cache_info()
    fiber_misses = [fiber_start.misses]

    def after_hamiltonian(args, kwargs, result):
        chain = _arg(args, kwargs, 0, "chain")
        tracer.add("oracle.build_hamiltonian.states", (chain.m + chain.n) ** chain.sites)

    def after_eigenvalues(args, kwargs, result):
        dim = _arg(args, kwargs, 0, "a").shape[0]
        tracer.add("oracle.eigenvalues.matrix_mb", dim * dim * 8 / 1e6)

    def after_clusters(args, kwargs, result):
        tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-7)
        tracer.note_clusters(_arg(args, kwargs, 0, "values"), tol, len(result))

    def after_fibers(args, kwargs, result):
        info = fiber_cache.cache_info()
        if info.misses > fiber_misses[0]:
            N, m, n = args[:3]
            tracer.add("tableau.fibers.states", (m + n) ** N)
        fiber_misses[0] = info.misses
        hits = info.hits - fiber_start.hits
        tracer.counters["tableau.fibers.hit_ratio"] = hits / (hits + info.misses - fiber_start.misses)
        tracer.add_to_open("spectrum.level_set", "spectrum.level_set.motifs", len(result))

    def after_polynomial(args, kwargs, result):
        tracer.add("partition.terms", result.term_count())
        bits = result.max_coefficient().bit_length()
        tracer.counters["partition.coeff_bits"] = max(tracer.counters.get("partition.coeff_bits", 0), bits)

    partition_dump = partition.dump_terms

    def dump_with_size(qp, fh):
        start = fh.tell()
        partition_dump(qp, fh)
        tracer.add("partition.dump_bytes", fh.tell() - start)

    word_blocks = motif._valid_word_blocks

    def counted_word_blocks(*args, **kwargs):
        for words in word_blocks(*args, **kwargs):
            tracer.add("motif.words", words.size)
            tracer.add_to_open(
                "spectrum.level_count_by_enumeration", "spectrum.level_count_by_enumeration.words", words.size
            )
            yield words

    after = {
        "oracle.build_hamiltonian": after_hamiltonian,
        "oracle.eigenvalues": after_eigenvalues,
        "oracle.cluster_levels": after_clusters,
        "tableau.fibers": after_fibers,
        "partition.hs_partition": after_polynomial,
        "partition.fi_partition": after_polynomial,
    }
    for module_name, attr, name in SPANS:
        module = modules[module_name]
        fn = dump_with_size if name == "partition.dump_terms" else getattr(module, attr)
        setattr(module, attr, tracer.wrap(name, fn, after.get(name)))
    motif._valid_word_blocks = counted_word_blocks
    for key, (builder, *rest) in list(figures.FIGURES.items()):
        figures.FIGURES[key] = (tracer.wrap(FIGURE_SPAN, builder), *rest)


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for _, _, name in (*SPANS, (None, None, FIGURE_SPAN)):
        out[f"{name}.self_s"] = "s"
        out[f"{name}.calls"] = "count"
    out.update(COUNTERS)
    out["trace.overhead_s"] = "s"
    return out
