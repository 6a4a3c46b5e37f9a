"""Per-frame activity classification and run-based segmentation.

The classifier is a closed decision table from the hand state variables
to ``model.ActivityLabel``. Segmentation merges equal labels into
maximal runs, a debounce window rejects label blips shorter than it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grounding import HandSymState, SymbolicState, runs
from .model import ActivityLabel

DEFAULT_DEBOUNCE = 3


# The activity of a hand from whether it acts on a cube, holds one and
# moves. actedOn implies a moving hand (``HandSymState`` enforces it), so
# acting alone separates Reach and Stack from Put, Take and IdleMotion.
ACTIVITY: dict[tuple[bool, bool, bool], ActivityLabel] = {
    (True, True, True): ActivityLabel.STACK, (True, True, False): ActivityLabel.STACK,
    (True, False, True): ActivityLabel.REACH, (True, False, False): ActivityLabel.REACH,
    (False, True, True): ActivityLabel.PUT, (False, True, False): ActivityLabel.TAKE,
    (False, False, True): ActivityLabel.IDLE, (False, False, False): ActivityLabel.IDLE,
}


def classify(hand: HandSymState) -> ActivityLabel:
    """Activity of one hand state, read from ``ACTIVITY``."""
    return ACTIVITY[hand.actedOn is not None, hand.inHand is not None, hand.handMove]


@dataclass(frozen=True)
class ActivitySegment:
    """A maximal run of one activity, indices into the state list, inclusive."""

    hand: str
    label: ActivityLabel
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"segment start {self.start} after end {self.end}")


def debounce_labels(labels: list[ActivityLabel], debounce: int) -> list[ActivityLabel]:
    """Reject runs shorter than the debounce window.

    Frames of a rejected run keep the preceding committed label; the
    first run is always committed since there is nothing to fall back to.
    """
    if debounce < 1:
        raise ValueError("debounce must be >= 1")
    smoothed: list[ActivityLabel] = []
    committed: ActivityLabel | None = None
    for label, start, end in runs(labels):
        length = end - start + 1
        if committed is None or length >= debounce:
            committed = label
        smoothed.extend([committed] * length)
    return smoothed


def segment(states: list[SymbolicState]) -> list[ActivitySegment]:
    """Partition every hand's state sequence into labelled segments,
    debounced over ``DEFAULT_DEBOUNCE`` frames."""
    if not states:
        return []
    segments: list[ActivitySegment] = []
    for hand in sorted(states[0].hands):
        raw = [classify(state.hands[hand]) for state in states]
        smoothed = debounce_labels(raw, DEFAULT_DEBOUNCE)
        for label, start, end in runs(smoothed):
            segments.append(ActivitySegment(hand, label, start, end))
    return segments


# Sidecar files index segments by trace frame; state k describes frame k+1.

def segments_to_json(segments: list[ActivitySegment]) -> list[dict]:
    return [
        {
            "hand": seg.hand,
            "label": seg.label.value,
            "start_frame": seg.start + 1,
            "end_frame": seg.end + 1,
        }
        for seg in segments
    ]
