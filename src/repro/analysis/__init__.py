"""repro-lint: domain-aware static analysis and runtime invariants.

The reproduction's numerical results are only trustworthy while every
kernel preserves the hypersparse invariants (canonical sorted-COO,
``uint64`` coordinates / ``float64`` values, no per-entry Python loops)
and every experiment stays deterministic under its seeded RNG — the
discipline GraphBLAS enforces structurally in the original C stack.
This package makes that discipline machine-checked so refactors can be
aggressive without silently corrupting the science:

* :mod:`repro.analysis.engine` — an AST-walking rule engine with an
  in-source allowlist escape hatch (``# lint: allow-<tag>``);
* :mod:`repro.analysis.rules` — the rule catalogue: seeded randomness
  (RL001), dtype and packed-key width discipline (RL002, RL011),
  no per-entry loops in hot paths (RL003), clock reads (RL006, RL007),
  no re-sort of canonical runs (RL008), the knob registry (RL012), and
  the writer and engine lifecycles (RL016 and RL020, from
  :mod:`repro.analysis.concurrency` and :mod:`repro.analysis.service`);
  every rule checks one file at a time;
* :mod:`repro.analysis.contracts` — runtime invariant validation of
  canonical form, off by default and switched on with
  ``REPRO_DEBUG_INVARIANTS=1``;
* :mod:`repro.analysis.sanitize` — the runtime sanitizers RS001, RS003
  and RS004 (``REPRO_SAN``, ``repro san``).  Immutability of the
  canonical containers needs neither a rule nor a sanitizer: their
  buffers are read-only from construction
  (:class:`repro.hypersparse.coo.FrozenSlots`);
* :mod:`repro.analysis.report` — findings formatting (aligned tables in
  the style of :mod:`repro.report.ascii_plot`);
* ``python -m repro.analysis`` / ``repro lint`` — the CLI.

Importing the package imports none of the lint machinery: kernels pull
in only :mod:`~repro.analysis.contracts` and :mod:`~repro.analysis.knobs`,
and the engine and rules load when a lint actually runs.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue.
"""

__all__ = ["main"]


def main(argv=None):
    """CLI entry point (see :mod:`repro.analysis.cli`)."""
    from .cli import main as _main

    return _main(argv)
