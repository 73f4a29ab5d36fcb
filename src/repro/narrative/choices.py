"""Choice points and the choices a viewer can make at them."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import NarrativeError


@dataclass(frozen=True)
class Choice:
    """One selectable option at a choice point.

    Parameters
    ----------
    label:
        On-screen text of the option (e.g. ``"Frosties"``).
    target_segment_id:
        The segment that plays if this option is selected.
    is_default:
        ``True`` for the branch Netflix prefetches while the viewer decides.
        Exactly one choice per choice point is the default.
    """

    label: str
    target_segment_id: str
    is_default: bool = False

    def __post_init__(self) -> None:
        if not self.label:
            raise NarrativeError("choice label must be a non-empty string")
        if not self.target_segment_id:
            raise NarrativeError(
                f"choice {self.label!r} must reference a target segment"
            )


@dataclass(frozen=True)
class ChoicePoint:
    """A binary question shown when a segment finishes playing.

    The paper's notation: question ``Qi`` offers the default branch ``Si`` and
    the non-default branch ``Si'``.

    Parameters
    ----------
    question_id:
        Identifier such as ``"Q1"``.
    prompt:
        The on-screen question text.
    source_segment_id:
        The segment whose end triggers this question.
    options:
        Exactly two :class:`Choice` objects, exactly one of them default.
    timeout_seconds:
        How long the viewer has before the default is auto-selected
        (ten seconds in Bandersnatch).
    """

    question_id: str
    prompt: str
    source_segment_id: str
    options: tuple[Choice, Choice]
    timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if not self.question_id:
            raise NarrativeError("question_id must be a non-empty string")
        if len(self.options) != 2:
            raise NarrativeError(
                f"choice point {self.question_id!r} must offer exactly two "
                f"options, got {len(self.options)}"
            )
        defaults = [option for option in self.options if option.is_default]
        if len(defaults) != 1:
            raise NarrativeError(
                f"choice point {self.question_id!r} must mark exactly one "
                f"default option, got {len(defaults)}"
            )
        if self.options[0].target_segment_id == self.options[1].target_segment_id:
            raise NarrativeError(
                f"choice point {self.question_id!r} options must target "
                "distinct segments"
            )
        if self.timeout_seconds <= 0:
            raise NarrativeError(
                f"choice point {self.question_id!r} timeout must be positive"
            )

    @property
    def default_choice(self) -> Choice:
        """The prefetched branch (``Si``)."""
        return next(option for option in self.options if option.is_default)

    @property
    def non_default_choice(self) -> Choice:
        """The alternative branch (``Si'``)."""
        return next(option for option in self.options if not option.is_default)

    def choice_for(self, take_default: bool) -> Choice:
        """Return the default or non-default choice."""
        return self.default_choice if take_default else self.non_default_choice


@dataclass(frozen=True)
class ChoiceRecord:
    """Ground truth for one decision made during a viewing session."""

    question_id: str
    selected_label: str
    took_default: bool
    decision_time_seconds: float

    def __post_init__(self) -> None:
        if self.decision_time_seconds < 0:
            raise NarrativeError("decision time must be non-negative")
