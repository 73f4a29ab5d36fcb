"""Countermeasures against the record-length side-channel.

Section VI of the paper sketches the obvious fixes — split the JSON state
report across records, or pad/compress it so its length stops being
distinctive — and warns that a timing side-channel may survive them.  This
package implements those defences as transformations of the observable
client-record sequence, plus :func:`score_defense` — the one scorer, shared
by the defence ablation and the arena — measuring how much each defence
degrades an adaptive attacker, and a residual-timing analysis.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".padding": "PadToConstant PadToMultiple",
        ".splitting": "SplitRecords",
        ".compression": "CompressStateReports",
        ".base": "RecordDefense apply_defense",
        ".timing": "TimingOnlyAttack timing_question_recall",
        ".evaluation": "score_defense timing_scores",
        ".registry": "DEFENSE_REGISTRY build_defense defense_from_spec defense_names"
            " defense_spec",
    },
)
