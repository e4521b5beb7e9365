"""Unique-source scaling with window size (paper §IV).

Discussing the ``N_V^{1/2}`` detection threshold, the paper conjectures a
connection to the observation (its refs [13], [36]) that "the number of
unique sources seen at the CAIDA Telescope and other locations is
approximately proportional to ``N_V^{1/2}``."  This experiment measures
that relation directly on the synthetic telescope: sample windows at
geometrically increasing ``N_V`` and fit the log-log slope of unique
sources vs window size.

The relation is a *species-accumulation* law: sampling ``N`` packets from
sources whose rates follow a power law with tail exponent ``alpha`` yields
``~N^(alpha-1)`` distinct sources while the dim tail is unsaturated
(1 < alpha < 2).  The paper's measured slope of ~0.5 therefore corresponds
to a rate exponent near 1.5.  The experiment builds a dedicated population
with ``zm_alpha = 1.5`` and a rate floor far below one packet per window
(many sources dimmer than the smallest window can resolve), sweeps the
window size over 7 octaves, and fits the log-log slope.  Published
measurements cluster between 0.5 and 0.7; the check asserts that band.

:func:`run_out_of_core` reaches paper-scale windows the same way the
telescope builds them: pool workers sum groups of ``2^17``-packet chunks
and write each group sum as a scratch run, and pool tasks combine the
runs pairwise into one run per window (:func:`assemble_window`), which
is row-counted on disk.  The parent only schedules; peak disk is about
twice the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from dataclasses import replace

from ..core import CorrelationStudy
from ..hypersparse import HierarchicalMatrix, HyperSparseMatrix
from ..hypersparse.coo import _row_of
from ..hypersparse.spill import ENTRY_BYTES, SpillStore, configured_mem_budget
from ..synth import SourcePopulation, TelescopeSimulator
from .common import Check, ascii_table

__all__ = ["run", "run_out_of_core", "assemble_window", "ScalingResult"]


@dataclass(frozen=True)
class ScalingResult:
    """Unique-source counts across window sizes and the fitted exponent."""

    rows: List[Tuple[int, int, int]]  # (log2 N_V, N_V, unique sources)
    slope: float
    intercept: float

    def format(self) -> str:
        """Render the result as an aligned text table."""
        table = [
            [f"2^{lg}", nv, uniq, f"{uniq / nv**0.5:.2f}"]
            for lg, nv, uniq in self.rows
        ]
        return (
            "Unique-source scaling (paper §IV: sources ~ N_V^(1/2))\n"
            + ascii_table(["window", "N_V", "unique sources", "ratio to N_V^0.5"], table)
            + f"\nfitted log-log slope: {self.slope:.3f}"
        )

    def checks(self) -> List[Check]:
        """Shape checks against the paper's claims (see EXPERIMENTS.md)."""
        counts = np.asarray([u for _, _, u in self.rows], dtype=float)
        return [
            Check(
                "unique sources grow sublinearly, near N_V^(1/2)",
                0.35 <= self.slope <= 0.75,
                f"slope {self.slope:.3f} (paper: ~0.5; published range ~0.5-0.7)",
            ),
            Check(
                "growth is strictly monotone in window size",
                bool(np.all(np.diff(counts) > 0)),
                f"counts {counts.astype(int).tolist()}",
            ),
            Check(
                "span covers at least 5 octaves of N_V",
                self.rows[-1][0] - self.rows[0][0] >= 5,
                f"2^{self.rows[0][0]} .. 2^{self.rows[-1][0]}",
            ),
        ]


def run(study: CorrelationStudy) -> ScalingResult:
    """Sweep window sizes against a scaling-regime population.

    The study's default population is tuned so the *default* window
    resolves most active sources (the Fig 3/4 regime).  The scaling law
    lives in the opposite regime — windows far smaller than the dim tail —
    so this experiment derives a population with rate exponent 1.5 and 4x
    the source count, then sweeps windows well below its saturation point.
    """
    base = study.model.config
    config = replace(
        base,
        zm_alpha=1.5,
        n_sources=4 * base.n_sources,
        seed=base.seed ^ 0x5CA1E,
    )
    telescope = TelescopeSimulator(SourcePopulation(config))
    top = config.log2_nv
    sizes = list(range(max(8, top - 8), top - 1))
    rows: List[Tuple[int, int, int]] = []
    for lg in sizes:
        sample = telescope.sample(4.55, n_valid=1 << lg)
        rows.append((lg, 1 << lg, sample.unique_sources))
    x = np.log2([nv for _, nv, _ in rows])
    y = np.log2([u for _, _, u in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingResult(rows=rows, slope=float(slope), intercept=float(intercept))


# -- out-of-core paper-scale path -------------------------------------------
#
# The in-memory `run` materializes every window's N_V packets at once, so
# it tops out near N_V = 2^20 on a laptop.  The out-of-core path draws the
# window's multinomial source counts once (bit-identical to `sample`'s
# draw — same RNG prefix), writes the per-source spec to memory-mappable
# .npy files, and expands 2^17-packet *chunks* of the conceptual packet
# stream in pool workers.  Each worker sums a group of consecutive chunks
# and writes the group sum as a scratch run; further pool tasks merge the
# runs pairwise until one run holds the window, so the parent never holds
# a sum (repro.parallel.shard).  REPRO_MEM_BUDGET caps the group size.
# Unique-source counts (the experiment's
# measurand) are identical to `run`'s because they depend only on the
# shared multinomial draw, never on per-chunk destination streams.

#: Salt of the per-chunk destination RNG streams (distinct from the
#: window RNG's 0x7E1E5C0 so chunked windows never collide with samples).
_CHUNK_SALT = 0x0C4C0DE

#: The month sampled by the sweep (must match `run`).
_SWEEP_MONTH = 4.55


def _chunk_matrix(
    chunk_index: int,
    *,
    spec_dir: str,
    chunk_size: int,
    total: int,
    seed: int,
    month_key: int,
    nv: int,
    darkspace: Tuple[int, int],
    shape: Tuple[int, int],
):
    """Worker: build the traffic sub-matrix of packets [lo, hi) of a window.

    The window spec (emitting addresses, cumulative counts, focus data)
    is memory-mapped from disk, so workers share pages instead of
    receiving per-chunk copies.  Nothing module-global is written;
    destinations come from a chunk-indexed RNG stream, so the result is
    bit-identical for any pool width (pinned by the ``processes`` tests).
    """
    root = Path(spec_dir)
    addresses = np.load(root / "addresses.npy", mmap_mode="r")
    cum = np.load(root / "cum.npy", mmap_mode="r")
    focused = np.load(root / "focused.npy", mmap_mode="r")
    focus_dst = np.load(root / "focus_dst.npy", mmap_mode="r")

    lo = chunk_index * chunk_size
    hi = min(lo + chunk_size, total)
    s0 = int(np.searchsorted(cum, lo, side="right")) - 1
    s1 = int(np.searchsorted(cum, hi, side="left"))
    seg_cum = np.clip(np.asarray(cum[s0 : s1 + 1]), lo, hi)
    cnt = np.diff(seg_cum)
    src = np.repeat(np.asarray(addresses[s0:s1]), cnt)
    rng = np.random.default_rng((seed, _CHUNK_SALT, month_key, nv, chunk_index))
    dst = rng.integers(darkspace[0], darkspace[1], src.size, dtype=np.uint64)
    fmask = np.repeat(np.asarray(focused[s0:s1]), cnt)
    if np.any(fmask):
        dst[fmask] = np.repeat(np.asarray(focus_dst[s0:s1]), cnt)[fmask]
    return HyperSparseMatrix(src, dst, shape=shape)


#: Chunks per worker group when no memory budget is in force: the group
#: size the benchmark's 64 MiB budget gives at 2^17-packet chunks.
_UNBUDGETED_GROUP = 8


def _group_size(budget: Optional[int], chunk_size: int) -> int:
    """Chunks per worker group: a group sum fills at most budget / 4.

    A packet is at most one stored entry of ``ENTRY_BYTES``.  The size
    never depends on the pool width, so the grouping — and the fold
    tree — is the same for every ``processes``.
    """
    if budget is None:
        return _UNBUDGETED_GROUP
    return max(1, budget // (4 * ENTRY_BYTES * chunk_size))


def _chunk_group_sum(
    chunk_indices: range, *, cutoff: int, shape: Tuple[int, int], **chunk
):
    """Worker: build a contiguous run of chunks and fold them in order.

    The paper's "every processor sums its own share": each chunk is
    built exactly as :func:`_chunk_matrix` builds it and folded in chunk
    order through a private ladder with the caller's ``cutoff``; the
    pool task then writes the group sum as a scratch run.  Packet counts
    are integral, so the regrouping leaves every sum exact.
    """
    acc = HierarchicalMatrix(shape=shape, cutoff=cutoff)
    try:
        # lint: allow-loop — one fold per chunk, not per packet
        for i in chunk_indices:
            acc.insert_matrix(_chunk_matrix(i, shape=shape, **chunk))
        return acc.total()
    finally:
        acc.close()


def assemble_window(
    telescope: TelescopeSimulator,
    month_time: float,
    *,
    n_valid: int,
    log2_chunk: int = 17,
    cutoff: int = 1 << 16,
    processes: Optional[int] = None,
    mem_budget: Optional[int] = None,
    spill_dir=None,
):
    """Assemble one window's traffic matrix chunk-by-chunk under a budget.

    Pool workers build groups of consecutive chunks, write each group
    sum as a scratch run, and merge the runs pairwise in the pool
    (:func:`~repro.parallel.shard.sharded_accumulate`).  ``mem_budget``
    sets the group size, so a group sum fills at most a quarter of it;
    ``cutoff`` is the level-0 capacity of each worker's ladder.

    Returns a :class:`~repro.hypersparse.hierarchical.HierarchicalMatrix`
    whose only level is the window's run — call ``total()`` for an
    in-RAM matrix or ``collapse_to_disk()`` at scales where it would not
    fit.  Packet counts are integral, so every sum is exact and the run
    is byte-identical for every ``mem_budget`` (including ``None``) and
    every ``processes``.  The caller owns the accumulator and must
    ``close()`` it.
    """
    import shutil
    import tempfile

    from ..parallel.shard import sharded_accumulate

    pop = telescope.population
    cfg = telescope.config
    spec = telescope.window_source_counts(month_time, n_valid=n_valid)
    # Drop sources the validity filter would discard, so the assembled
    # matrix's source marginal matches the filtered sample exactly.
    keep = pop.valid_source_mask(spec.addresses)
    counts = spec.counts[keep]
    cum = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
    )
    total = int(cum[-1])

    spec_root = Path(tempfile.mkdtemp(prefix="repro-window-spec-"))
    np.save(spec_root / "addresses.npy", spec.addresses[keep])
    np.save(spec_root / "cum.npy", cum)
    np.save(spec_root / "focused.npy", spec.focused[keep])
    np.save(spec_root / "focus_dst.npy", spec.focus_dst[keep])
    # With no explicit spill_dir the accumulator creates (and owns, and
    # removes on close()) a private store; a caller directory is the
    # caller's to keep.
    store = SpillStore(spill_dir) if spill_dir is not None else None
    try:
        chunk_size = 1 << log2_chunk
        n_chunks = max(1, -(-total // chunk_size))
        group = _group_size(
            configured_mem_budget() if mem_budget is None else mem_budget,
            chunk_size,
        )
        worker = partial(
            _chunk_group_sum,
            cutoff=cutoff,
            shape=(2**32, 2**32),
            spec_dir=str(spec_root),
            chunk_size=chunk_size,
            total=total,
            seed=cfg.seed,
            month_key=int(round(month_time * 1000)),
            nv=n_valid,
            darkspace=telescope.darkspace,
        )
        return sharded_accumulate(
            worker,
            (
                range(lo, min(lo + group, n_chunks))
                for lo in range(0, n_chunks, group)
            ),
            shape=(2**32, 2**32),
            processes=processes,
            spill=store,
        )
    finally:
        shutil.rmtree(spec_root, ignore_errors=True)


def _unique_rows(matrix: HyperSparseMatrix) -> int:
    """Distinct rows of a matrix, read off its canonical packed keys.

    Keys are sorted, so their row digits are non-decreasing and the
    distinct count is the number of row transitions plus one.
    """
    if matrix.nnz == 0:
        return 0
    rows = _row_of(matrix.keys, matrix.shape[1])
    return int(np.count_nonzero(rows[1:] != rows[:-1])) + 1


def run_out_of_core(
    study: CorrelationStudy,
    *,
    mem_budget: Optional[int] = None,
    samples: Optional[int] = None,
    log2_chunk: int = 17,
    cutoff: int = 1 << 16,
    processes: Optional[int] = None,
    spill_dir=None,
) -> ScalingResult:
    """The scaling sweep via out-of-core sharded window assembly.

    Produces rows and slope **identical** to :func:`run` — unique-source
    counts depend only on the multinomial draw both paths share — while
    holding peak RSS near ``mem_budget``: windows assemble chunk-by-chunk
    in pool workers, partial sums spill to ``spill_dir`` when the ladder
    exceeds the budget, and each window's final matrix is collapsed on
    disk and row-counted by streaming, never materialized in RAM.

    ``samples`` limits the sweep to its largest N octaves (the paper's
    five-sample 2^30 runs); ``None`` sweeps all seven.
    """
    from ..hypersparse.spill import unique_rows_of_run
    from ..parallel.shard import update_peak_rss

    base = study.model.config
    config = replace(
        base,
        zm_alpha=1.5,
        n_sources=4 * base.n_sources,
        seed=base.seed ^ 0x5CA1E,
    )
    telescope = TelescopeSimulator(SourcePopulation(config))
    top = config.log2_nv
    sizes = list(range(max(8, top - 8), top - 1))
    if samples is not None:
        sizes = sizes[-samples:]
    rows: List[Tuple[int, int, int]] = []
    for lg in sizes:
        acc = assemble_window(
            telescope,
            _SWEEP_MONTH,
            n_valid=1 << lg,
            log2_chunk=log2_chunk,
            cutoff=cutoff,
            processes=processes,
            mem_budget=mem_budget,
            spill_dir=spill_dir,
        )
        try:
            if mem_budget is not None:
                run_file = acc.collapse_to_disk()
                uniq = unique_rows_of_run(run_file)
                # The collapsed run was only ever a counting substrate;
                # drop it now so a five-window sweep never holds more
                # than one window's collapse on disk (close() removes
                # the ladder's own spill files).
                run_file.path.unlink(missing_ok=True)
            else:
                uniq = _unique_rows(acc.total())
        finally:
            acc.close()
        update_peak_rss()
        rows.append((lg, 1 << lg, uniq))
    x = np.log2([nv for _, nv, _ in rows])
    y = np.log2([u for _, _, u in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return ScalingResult(rows=rows, slope=float(slope), intercept=float(intercept))


def plot(result: ScalingResult) -> str:
    """Log-log render of unique sources vs window size."""
    from ..report import AsciiPlot

    p = AsciiPlot(x_log=True, y_log=True, title="Unique sources vs N_V")
    nv = [r[1] for r in result.rows]
    uniq = [r[2] for r in result.rows]
    p.add_series("measured", nv, uniq)
    fit = [2.0 ** (result.intercept + result.slope * np.log2(v)) for v in nv]
    p.add_series(f"slope {result.slope:.2f}", nv, fit)
    return p.render()
