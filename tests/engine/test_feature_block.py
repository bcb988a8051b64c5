"""Generated oracle for the feature block of re-extracted candidate lists.

A list extracted a second time keeps its feature matrix in its session
view, every anchor update and network event patches that block in
place, and later extractions return copies of it.  Interleaving small
anchor deltas, wholesale anchor switches (which invalidate instead of
patching), churn events, extractions, in-place refreshes and writes
into returned arrays, every list's features must stay byte-identical to
a fresh session's on the pair that replays the applied events.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AlignmentSession
from repro.engine.evolution import replay_schedule, scripted_churn_schedule

STEPS = ("anchors", "switch", "event", "extract", "refresh", "scribble")


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_re_extracted_lists_match_a_fresh_session(tiny_synthetic_pair, data):
    base = tiny_synthetic_pair
    schedule = scripted_churn_schedule(base, events=4, seed=0)
    anchors = sorted(base.anchors, key=repr)
    lefts, rights = base.left_users(), base.right_users()
    # Extracted once and then refreshed in place, like a materialized
    # task's matrix; extracted after every step; extracted when drawn,
    # holding a repeated pair.
    once = [(u, v) for u in lefts[:6] for v in rights[:8]]
    every = [(u, v) for u in lefts[4:12] for v in rights[6:14]]
    repeated = [anchors[0], (lefts[0], rights[1]), anchors[0], anchors[3]]

    known = set(anchors[: len(anchors) // 2])
    session = AlignmentSession(copy.deepcopy(base), known_anchors=known)
    X_once = session.extract(once)
    returned = session.extract(every)
    applied = 0
    replayed = {}

    def fresh_extract(pairs):
        if applied not in replayed:
            replayed[applied] = replay_schedule(
                copy.deepcopy(base), schedule, upto=applied
            )
        fresh = AlignmentSession(replayed[applied], known_anchors=known)
        return fresh.extract(pairs).tobytes()

    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        step = data.draw(st.sampled_from(STEPS), label="step")
        if step == "anchors":  # a few adds and removes: the delta path
            added = data.draw(st.sets(st.sampled_from(anchors), max_size=3))
            removed = data.draw(st.sets(st.sampled_from(anchors), max_size=2))
            known = (known | added) - removed
            session.set_anchors(known)
        elif step == "switch":  # a wholesale change drops the structures
            known = set(anchors) - known
            session.set_anchors(known)
        elif step == "event" and applied < len(schedule):
            session.apply_network_delta(schedule[applied])
            applied += 1
        elif step == "extract":
            assert session.extract(repeated).tobytes() == fresh_extract(
                repeated
            )
        elif step == "refresh":
            session.refresh_features(X_once, once)
            assert X_once.tobytes() == fresh_extract(once)
        elif step == "scribble":
            returned[...] = -1.0
        returned = session.extract(every)
        assert returned.tobytes() == fresh_extract(every)
        assert session._views[id(once)].block is None

    session.refresh_features(X_once, once)
    assert X_once.tobytes() == fresh_extract(once)
    assert session.extract(repeated).tobytes() == fresh_extract(repeated)
