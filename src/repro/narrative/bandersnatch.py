"""Script builders, including a Bandersnatch-like interactive script.

Netflix's actual Bandersnatch script is proprietary; what matters for the
side-channel is only its *structure*: a common opening segment, a trunk of
roughly ten binary choice points reached by every viewer, branch segments of a
few minutes each, and several endings.  :func:`build_bandersnatch_script`
constructs a script with those structural properties and with choice prompts
paraphrasing the kinds of decisions the paper cites as sensitive (food
preference, media taste, aggression, compliance with authority, ...), which
the behavioural profiling code in :mod:`repro.core.profiling` keys off.
"""

from __future__ import annotations

from repro.narrative.choices import Choice, ChoicePoint
from repro.narrative.graph import StoryGraph
from repro.narrative.segment import Segment

#: question id -> (trait probed, default label, non-default label)
BANDERSNATCH_CHOICE_LABELS: dict[str, tuple[str, str, str]] = {
    "Q1": ("food_preference", "cereal_a", "cereal_b"),
    "Q2": ("music_taste", "mainstream_tape", "alt_tape"),
    "Q3": ("compliance", "accept_job_offer", "decline_job_offer"),
    "Q4": ("openness", "visit_therapist", "follow_colleague"),
    "Q5": ("risk_taking", "refuse_substance", "accept_substance"),
    "Q6": ("aggression", "pour_tea_on_computer", "shout_at_father"),
    "Q7": ("conformity", "bite_nails", "pull_earlobe"),
    "Q8": ("violence", "back_off", "attack_father"),
    "Q9": ("trust", "bury_evidence", "chop_up_evidence"),
    "Q10": ("fatalism", "accept_ending", "try_again"),
}


def build_bandersnatch_script(
    trunk_segment_minutes: float = 6.0,
    branch_segment_minutes: float = 4.0,
    ending_minutes: float = 8.0,
) -> StoryGraph:
    """Build the Bandersnatch-like script used throughout the reproduction.

    Structure (mirroring Figure 1 of the paper and public descriptions of the
    film's trunk): an opening Segment 0 shared by every viewer, then ten
    binary choice points ``Q1..Q10``.  Each question offers a *default*
    branch segment ``S{i}a`` (prefetched by the platform) and a non-default
    branch ``S{i}b``; both branches re-join at the next question, except the
    last pair which lead to two distinct endings.

    Parameters are the segment durations in minutes; the defaults give a
    script whose single-path runtime (~55 minutes) is in the right ballpark
    for one Bandersnatch playthrough.
    """
    graph = StoryGraph(title="Black Mirror: Bandersnatch (reproduction)", root_segment_id="S0")
    graph.add_segment(
        Segment(
            segment_id="S0",
            title="Opening: introduction of the protagonist",
            duration_seconds=trunk_segment_minutes * 60.0,
        )
    )

    question_ids = list(BANDERSNATCH_CHOICE_LABELS.keys())
    for index, question_id in enumerate(question_ids, start=1):
        is_last = index == len(question_ids)
        default_id = f"S{index}a"
        alternate_id = f"S{index}b"
        duration = (ending_minutes if is_last else branch_segment_minutes) * 60.0
        trait, default_label, alternate_label = BANDERSNATCH_CHOICE_LABELS[question_id]
        graph.add_segment(
            Segment(
                segment_id=default_id,
                title=f"Default branch after {question_id} ({trait})",
                duration_seconds=duration,
                is_ending=is_last,
            )
        )
        graph.add_segment(
            Segment(
                segment_id=alternate_id,
                title=f"Alternative branch after {question_id} ({trait})",
                duration_seconds=duration,
                is_ending=is_last,
            )
        )

    # Wire choice points.  The source of Q1 is S0; the source of Q(i) for
    # i > 1 alternates depending on the branch taken at Q(i-1): in the real
    # film most branches re-join the trunk, so both S(i-1)a and S(i-1)b lead
    # to the same question.  A StoryGraph attaches one choice point per
    # source segment, so each branch segment gets its own ChoicePoint object
    # sharing the same question id semantics; we give them distinct ids of
    # the form "Qi@segment" but a shared "canonical" prefix.
    previous_sources = ["S0"]
    for index, question_id in enumerate(question_ids, start=1):
        trait, default_label, alternate_label = BANDERSNATCH_CHOICE_LABELS[question_id]
        default_target = f"S{index}a"
        alternate_target = f"S{index}b"
        for source in previous_sources:
            suffix = "" if len(previous_sources) == 1 else f"@{source}"
            graph.add_choice_point(
                ChoicePoint(
                    question_id=f"{question_id}{suffix}",
                    prompt=f"Decision on {trait.replace('_', ' ')}",
                    source_segment_id=source,
                    options=(
                        Choice(
                            label=default_label,
                            target_segment_id=default_target,
                            is_default=True,
                        ),
                        Choice(
                            label=alternate_label,
                            target_segment_id=alternate_target,
                            is_default=False,
                        ),
                    ),
                )
            )
        previous_sources = [default_target, alternate_target]

    graph.validate()
    return graph


def canonical_question_id(question_id: str) -> str:
    """Strip the ``@segment`` disambiguation suffix from a question id.

    Both branch copies of question ``Q3`` (attached to ``S2a`` and ``S2b``)
    canonicalise to ``"Q3"``; the attack reconstructs choices at this
    granularity because an eavesdropper cannot tell which copy fired.
    """
    return question_id.split("@", 1)[0]


def build_minimal_interactive_script() -> StoryGraph:
    """Tiny two-question script matching the worked example of Figure 1.

    Segment 0 leads to Q1 (default S1, alternative S1'); both branches lead
    to Q2 (default S2, alternative S2'), whose targets are endings.  Used by
    unit tests and by the Figure 1 reproduction.
    """
    graph = StoryGraph(title="Figure 1 example", root_segment_id="S0")
    graph.add_segments(
        [
            Segment("S0", "Common opening", duration_seconds=300.0),
            Segment("S1", "Default branch after Q1", duration_seconds=240.0),
            Segment("S1p", "Alternative branch after Q1", duration_seconds=240.0),
            Segment("S2", "Default branch after Q2", duration_seconds=300.0, is_ending=True),
            Segment("S2p", "Alternative branch after Q2", duration_seconds=300.0, is_ending=True),
        ]
    )
    graph.add_choice_point(
        ChoicePoint(
            question_id="Q1",
            prompt="First on-screen question",
            source_segment_id="S0",
            options=(
                Choice("option_default_1", "S1", is_default=True),
                Choice("option_alternate_1", "S1p", is_default=False),
            ),
        )
    )
    for source, suffix in (("S1", ""), ("S1p", "@S1p")):
        graph.add_choice_point(
            ChoicePoint(
                question_id=f"Q2{suffix}",
                prompt="Second on-screen question",
                source_segment_id=source,
                options=(
                    Choice("option_default_2", "S2", is_default=True),
                    Choice("option_alternate_2", "S2p", is_default=False),
                ),
            )
        )
    graph.validate()
    return graph
