"""The attack-vs-defense arena: sharded defense × classifier sweeps.

The arena quantifies the Section VI trade-off the paper only sketches:
every defense configuration is scored against an *adaptive* attacker
(retrained per defended traffic) under every requested classifier and
operational condition, producing per-cell overhead (bytes, latency) and
leakage (choice accuracy, timing recall) and a deterministic
Pareto-frontier report.

* :mod:`repro.arena.grid` — the sweep grammar
  (``name[:key=value,...]``) and the ordered cartesian grid of cells;
* :mod:`repro.arena.cell` — one cell, scored end to end (simulate →
  defend → retrain → attack), returning a deterministic result dict;
* :mod:`repro.arena.report` — :class:`ArenaReport`: cells + frontier,
  saved as sorted-keys JSON, byte-identical no matter how the sweep ran
  (serially, ``--shard-workers N``, resumed, or leased through
  ``repro serve`` / ``repro work``).

Defenses and classifiers enter the arena exclusively as component specs
(:mod:`repro.components`); no sweep path instantiates them by direct
class reference.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".cell": "ARENA_SCHEMA_VERSION cell_to_json run_cell",
        ".grid": "ArenaCell ArenaGrid parse_component_entry parse_condition_entry",
        ".report": "ArenaReport",
    },
)
