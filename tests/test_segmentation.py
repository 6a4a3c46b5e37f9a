"""Tests for segmentation.py."""

import pytest
from grounding_oracle import columns
from hypothesis import given
from hypothesis import strategies as st

from demoplan.grounding import EnvSymState, HandSymState
from demoplan.segmentation import (
    ActivityLabel,
    ActivitySegment,
    classify,
    debounce_labels,
    segment,
    segments_to_json,
)

I = ActivityLabel.IDLE
R = ActivityLabel.REACH
P = ActivityLabel.PUT
T = ActivityLabel.TAKE
S = ActivityLabel.STACK


def hand(move=False, open_=True, held=None, acted=None, grasp=None):
    return HandSymState(move, open_, held, acted, grasp)


def test_rule_table():
    assert classify(hand(move=True, acted="c", held="d", open_=False)) == S
    assert classify(hand(move=True, acted="c")) == R
    assert classify(hand(move=True, held="c", open_=False)) == P
    assert classify(hand(move=False, held="c", open_=False)) == T
    assert classify(hand(move=True)) == I
    assert classify(hand(move=False)) == I


def test_rules_ignore_graspable():
    with_g = hand(move=True, acted="c", grasp="c")
    without = hand(move=True, acted="c")
    assert classify(with_g) == classify(without) == R


def test_stationary_acted_on_is_treated_as_stack():
    """An upstream glitch cannot happen through HandSymState, but raw
    records replayed from other tools can carry it."""

    class Raw:
        handMove = False
        handOpen = False
        inHand = "c"
        actedOn = "d"
        graspable = None

    assert classify(Raw()) == S


def test_debounce_absorbs_short_blips():
    labels = [I, I, I, R, I, I, I]
    assert debounce_labels(labels, 3) == [I] * 7

    labels = [I, I, I, R, R, I, I, I]
    assert debounce_labels(labels, 3) == [I] * 8

    labels = [I, I, I, R, R, R, I, I, I]
    assert debounce_labels(labels, 3) == labels


def test_debounce_first_run_always_commits():
    labels = [R, I, I, I]
    assert debounce_labels(labels, 3) == [R, I, I, I]


def test_debounce_trailing_blip_inherits():
    labels = [I, I, I, R]
    assert debounce_labels(labels, 3) == [I, I, I, I]


def test_debounce_one_is_identity():
    labels = [I, R, I, T, T, S]
    assert debounce_labels(labels, 1) == labels


@st.composite
def label_sequences(draw):
    return draw(st.lists(st.sampled_from(list(ActivityLabel)), min_size=1, max_size=40))


@given(labels=label_sequences(), debounce=st.integers(min_value=1, max_value=5))
def test_debounce_properties(labels, debounce):
    out = debounce_labels(labels, debounce)
    assert len(out) == len(labels)
    assert set(out) <= set(labels)
    # Idempotent: committed runs survive a second pass unchanged.
    assert debounce_labels(out, debounce) == out


def test_segment_splits_per_hand():
    def state(t, right, left):
        return t, {"Right_hand": right, "Left_hand": left}, EnvSymState(frozenset(), frozenset())

    still = hand()
    reach = hand(move=True, acted="c")
    states = columns([
        state(0.0, still, still),
        state(0.1, reach, still),
        state(0.2, reach, still),
        state(0.3, reach, still),
        state(0.4, reach, still),
        state(0.5, still, still),
        state(0.6, still, still),
        state(0.7, still, still),
    ])
    segments = segment(states)
    by_hand = {}
    for s in segments:
        by_hand.setdefault(s.hand, []).append(s)
    assert [s.label for s in by_hand["Left_hand"]] == [I]
    assert [(s.label, s.start, s.end) for s in by_hand["Right_hand"]] == [
        (I, 0, 0),
        (R, 1, 4),
        (I, 5, 7),
    ]


def test_debounce_window_validation():
    with pytest.raises(ValueError):
        debounce_labels([I], 0)


def test_segment_bounds_validated():
    with pytest.raises(ValueError):
        ActivitySegment("h", I, 3, 2)


def test_sidecar_numbers_frames_from_one():
    segments = [
        ActivitySegment("Right_hand", R, 0, 3),
        ActivitySegment("Right_hand", T, 4, 9),
    ]
    doc = segments_to_json(segments)
    # Frame numbering in files is 1-based while states are 0-based.
    assert doc == [
        {"hand": "Right_hand", "label": "Reach", "start_frame": 1, "end_frame": 4},
        {"hand": "Right_hand", "label": "Take", "start_frame": 5, "end_frame": 10},
    ]
