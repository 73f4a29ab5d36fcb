"""Branching-narrative (interactive script) model.

An interactive movie is a directed graph of *segments*.  Playback follows a
path through the graph; at the end of some segments the viewer is presented
with a *choice point* offering (in Bandersnatch, and here) exactly two options,
one of which the platform treats as the *default* branch and prefetches.

The module is deliberately independent of any networking concern: it only
describes the script structure that the streaming simulator
(:mod:`repro.streaming`) walks and that the attack (:mod:`repro.core`)
ultimately tries to reconstruct.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        ".segment": "Segment",
        ".choices": "Choice ChoicePoint ChoiceRecord",
        ".graph": "StoryGraph",
        ".path": "ViewingPath path_from_choices",
        ".bandersnatch": "BANDERSNATCH_CHOICE_LABELS build_bandersnatch_script"
            " build_minimal_interactive_script",
    },
)
