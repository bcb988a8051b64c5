"""Tests for the evolving-network seam: deltas through every layer."""

import numpy as np
import pytest

from repro.engine import (
    AlignmentSession,
    CandidateGenerator,
    StreamedAlignmentTask,
    evolution_rounds,
    scripted_delta_schedule,
)
from repro.exceptions import AlignmentError
from repro.networks.aligned import NetworkDelta


def _grow_delta(pair, side="left", tag="evo"):
    """A hand-built delta: new user + post, knit-in edges, attributes."""
    network = pair.left if side == "left" else pair.right
    users = pair.left_users() if side == "left" else pair.right_users()
    timestamps = network.attribute_values("timestamp")
    locations = network.attribute_values("location")
    return NetworkDelta.build(
        side,
        added_nodes={
            "user": [f"{tag}:{side}:u0"],
            "post": [f"{tag}:{side}:p0"],
        },
        added_edges=[
            ("follow", f"{tag}:{side}:u0", users[0]),
            ("follow", users[1], f"{tag}:{side}:u0"),
            ("follow", users[2], users[-1]),
            ("write", users[0], f"{tag}:{side}:p0"),
        ],
        updated_attributes=[
            ("timestamp", f"{tag}:{side}:p0", timestamps[0]),
            ("location", f"{tag}:{side}:p0", locations[0]),
        ],
    )


def _candidates(pair, limit=400):
    return [
        (u, v) for u in pair.left_users() for v in pair.right_users()
    ][:limit]


class TestNetworkDelta:
    def test_build_normalizes(self):
        delta = NetworkDelta.build(
            "left",
            added_nodes={"user": ["u1", "u2"]},
            added_edges=[("follow", "u1", "u2")],
            updated_attributes=[("timestamp", "p", 3)],
        )
        assert delta.n_nodes == 2
        assert delta.n_edges == 1
        assert delta.updated_attributes == (("timestamp", "p", 3, 1),)
        assert "left" in delta.summary()

    def test_apply_appends_node_order(self, fresh_pair):
        pair = fresh_pair
        before = pair.left_users()
        delta = _grow_delta(pair, tag="order")
        pair.apply_delta(delta)
        after = pair.left_users()
        assert after[: len(before)] == before
        assert after[-1] == "order:left:u0"

    def test_duplicate_node_rejected(self, handmade_pair):
        delta = NetworkDelta.build("left", added_nodes={"user": ["la"]})
        with pytest.raises(AlignmentError, match="re-adds"):
            handmade_pair.apply_delta(delta)

    def test_missing_endpoint_rejected(self, handmade_pair):
        delta = NetworkDelta.build(
            "left", added_edges=[("follow", "la", "ghost")]
        )
        with pytest.raises(AlignmentError, match="missing"):
            handmade_pair.apply_delta(delta)

    def test_bad_side_rejected(self, handmade_pair):
        with pytest.raises(AlignmentError, match="side"):
            handmade_pair.apply_delta(NetworkDelta.build("middle"))

    def test_self_loop_rejected(self, handmade_pair):
        delta = NetworkDelta.build(
            "left", added_edges=[("follow", "la", "la")]
        )
        with pytest.raises(AlignmentError, match="self-loop"):
            handmade_pair.apply_delta(delta)

    def test_anchor_one_to_one_enforced(self, handmade_pair):
        delta = NetworkDelta.build(
            "left", added_anchors=[("lb", "ra")]  # lb already anchored
        )
        with pytest.raises(AlignmentError, match="one-to-one"):
            handmade_pair.apply_delta(delta)

    def test_failed_validation_leaves_pair_untouched(self, handmade_pair):
        n_users = handmade_pair.left.node_count("user")
        delta = NetworkDelta.build(
            "left",
            added_nodes={"user": ["lx"]},
            added_edges=[("follow", "lx", "ghost")],
        )
        with pytest.raises(AlignmentError):
            handmade_pair.apply_delta(delta)
        assert handmade_pair.left.node_count("user") == n_users


@pytest.fixture()
def fresh_pair():
    from repro.datasets import foursquare_twitter_like

    return foursquare_twitter_like("tiny", seed=11)


class TestApplyNetworkDelta:
    """Every evolution path must match a from-scratch session bit for bit."""

    def _scratch(self, pair, anchors, pairs):
        return AlignmentSession(pair, known_anchors=anchors).extract(pairs)

    def test_delta_matches_scratch_on_grown_network(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        pairs = _candidates(pair)
        session = AlignmentSession(pair, known_anchors=anchors)
        X = session.extract(pairs)
        assert session.apply_network_delta(_grow_delta(pair, "left"))
        assert session.apply_network_delta(_grow_delta(pair, "right"))
        session.refresh_features(X, pairs)
        assert session.stats.network_updates == 2
        assert session.stats.delta_updates > 0
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))

    def test_loose_keyword_form(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(pair, known_anchors=sorted(pair.anchors, key=repr)[:4])
        users = pair.left_users()
        changed = session.apply_network_delta(
            side="left", added_edges=[("follow", users[0], users[-1])]
        )
        assert changed in (True, False)  # depends on whether edge existed

    def test_new_user_candidates_extract_exactly(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        session = AlignmentSession(pair, known_anchors=anchors)
        session.extract(_candidates(pair))
        session.apply_network_delta(_grow_delta(pair, "left"))
        session.apply_network_delta(_grow_delta(pair, "right"))
        new_pairs = [
            ("evo:left:u0", "evo:right:u0"),
            ("evo:left:u0", pair.right_users()[0]),
            (pair.left_users()[0], "evo:right:u0"),
        ]
        expected = self._scratch(pair, anchors, new_pairs)
        assert np.array_equal(session.extract(new_pairs), expected)

    def test_non_incremental_session_matches(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        pairs = _candidates(pair)
        session = AlignmentSession(
            pair, known_anchors=anchors, incremental=False
        )
        session.extract(pairs)
        session.apply_network_delta(_grow_delta(pair, "left"))
        assert session.stats.delta_updates == 0
        assert np.array_equal(
            session.extract(pairs), self._scratch(pair, anchors, pairs)
        )

    def test_threaded_session_matches_serial(self, fresh_pair):
        """Evolution folds under a thread pool are byte-identical.

        Exercises the seeded (base, pending) engine state under
        concurrent per-structure fan-out — a torn fold would show up as
        a feature mismatch.
        """
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        pairs = _candidates(pair)
        with AlignmentSession(
            pair, known_anchors=anchors, workers=4
        ) as session:
            X = session.extract(pairs)
            session.apply_network_delta(_grow_delta(pair, "left"))
            session.refresh_features(X, pairs)
            session.apply_network_delta(_grow_delta(pair, "right"))
            session.refresh_features(X, pairs)
            fresh = session.extract(list(pairs))
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))
        assert np.array_equal(fresh, X)

    def test_anchor_updates_compose_with_evolution(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _candidates(pair)
        session = AlignmentSession(pair, known_anchors=anchors[:4])
        X = session.extract(pairs)
        session.apply_network_delta(_grow_delta(pair, "left"))
        session.refresh_features(X, pairs)
        session.set_anchors(anchors)
        session.refresh_features(X, pairs)
        session.apply_network_delta(_grow_delta(pair, "right"))
        session.refresh_features(X, pairs)
        assert np.array_equal(X, self._scratch(pair, anchors, pairs))

    def test_no_op_delta_returns_false(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(pair)
        # An edge that already exists changes nothing.
        existing = next(iter(pair.left.edges("follow")))
        assert not session.apply_network_delta(
            side="left", added_edges=[("follow", *existing)]
        )
        assert session.stats.network_updates == 0

    def test_state_dict_replays_evolution(self, fresh_pair):
        from repro.datasets import foursquare_twitter_like

        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        pairs = _candidates(pair)
        session = AlignmentSession(pair, known_anchors=anchors)
        X = session.extract(pairs)
        session.apply_network_delta(_grow_delta(pair, "left"))
        session.refresh_features(X, pairs)
        state = session.state_dict()
        assert len(state["evolution"]) == 1

        # Restore into a session over a freshly built (ungrown) pair.
        other_pair = foursquare_twitter_like("tiny", seed=11)
        restored = AlignmentSession(other_pair, known_anchors=anchors)
        restored.load_state_dict(state)
        assert other_pair.left.has_node("user", "evo:left:u0")
        assert np.array_equal(restored.extract(list(pairs)), X)

    def test_version_1_state_still_loads(self, fresh_pair):
        """Pre-evolution snapshots (no evolution log) remain loadable."""
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        pairs = _candidates(pair)
        session = AlignmentSession(pair, known_anchors=anchors)
        X = session.extract(pairs)
        state = session.state_dict()
        state.pop("evolution")
        state["format_version"] = 1
        restored = AlignmentSession(pair)
        restored.load_state_dict(state)
        assert np.array_equal(restored.extract(list(pairs)), X)

    def test_older_snapshot_than_session_rejected(self, fresh_pair):
        from repro.exceptions import StoreError

        pair = fresh_pair
        session = AlignmentSession(pair)
        state = session.state_dict()  # no evolution events
        session.apply_network_delta(_grow_delta(pair, "left"))
        with pytest.raises(StoreError, match="evolution"):
            session.load_state_dict(state)


class TestRepeatedAnchorLeafFamily:
    """Anchor deltas on expressions that repeat the anchor leaf.

    The generalized algebra green-lights these (the old seam rejected
    them), so the session's anchor update must telescope through *old*
    anchored sub-chain values — a regression guard for the
    evaluate-before-engine-update ordering.
    """

    def _family(self):
        from repro.meta.algebra import Chain, Leaf, Parallel
        from repro.meta.diagrams import DiagramFamily, MetaDiagram

        expr = Parallel(
            [
                Chain([Leaf("F1"), Leaf("A"), Leaf("F2", transpose=True)]),
                Chain(
                    [
                        Leaf("F1"),
                        Leaf("F1"),
                        Leaf("A"),
                        Leaf("F2", transpose=True),
                    ]
                ),
            ]
        )
        diagram = MetaDiagram(
            name="repeatedA",
            semantics="test diagram repeating the anchor leaf",
            family="f2",
            expr=expr,
            covering=frozenset(),
        )
        return DiagramFamily(paths=(), diagrams=(diagram,))

    def test_anchor_delta_matches_scratch(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)
        pairs = _candidates(pair)
        session = AlignmentSession(
            pair, family=self._family(), known_anchors=anchors[:3]
        )
        X = session.extract(pairs)
        session.set_anchors(anchors)
        session.refresh_features(X, pairs)
        assert session.stats.delta_updates > 0, "delta path must engage"
        scratch = AlignmentSession(
            pair, family=self._family(), known_anchors=anchors
        )
        assert np.array_equal(X, scratch.extract(pairs))


class TestDirtyTracking:
    def test_epoch_advances_and_reports_rows(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        session = AlignmentSession(pair, known_anchors=anchors)
        session.extract(_candidates(pair))
        marker = session.delta_epoch
        session.apply_network_delta(_grow_delta(pair, "left"))
        assert session.delta_epoch == marker + 1
        dirty = session.dirty_since(marker)
        assert dirty is not None
        rows, cols = dirty
        assert rows.size > 0
        current = session.dirty_since(session.delta_epoch)
        assert current is not None and current[0].size == 0

    def test_fold_switch_reports_everything_dirty(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)
        half = len(anchors) // 2
        session = AlignmentSession(pair, known_anchors=anchors[:half])
        session.extract(_candidates(pair))
        marker = session.delta_epoch
        session.set_anchors(anchors[half:])  # disjoint switch -> rebuild
        assert session.dirty_since(marker) is None

    def test_unknown_epoch_is_conservative(self, fresh_pair):
        session = AlignmentSession(fresh_pair)
        assert session.dirty_since(session.delta_epoch + 1) is None


class TestCandidateGeneratorRefresh:
    def test_refresh_matches_fresh_from_support(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        session = AlignmentSession(pair, known_anchors=anchors)
        generator = CandidateGenerator.from_support(session, block_size=64)
        session.apply_network_delta(_grow_delta(pair, "left"))
        session.apply_network_delta(_grow_delta(pair, "right"))
        generator.refresh(session)
        fresh = CandidateGenerator.from_support(session, block_size=64)
        assert list(generator.pairs()) == list(fresh.pairs())
        assert generator.count() == fresh.count()

    def test_stale_generator_refuses_to_stream_positions(self, fresh_pair):
        """Slot positions go stale when the pair's slots change; the
        stream raises instead of pointing at the wrong users."""
        pair = fresh_pair
        session = AlignmentSession(pair, known_anchors=sorted(pair.anchors, key=repr))
        generator = CandidateGenerator.from_support(session, block_size=64)
        session.apply_network_delta(_grow_delta(pair, "right"))
        with pytest.raises(AlignmentError, match="refresh"):
            next(generator.blocks())
        generator.refresh(session)
        assert generator.count() == sum(len(b) for b in generator.blocks())

    def test_refresh_after_anchor_change_matches(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)
        session = AlignmentSession(pair, known_anchors=anchors[:4])
        generator = CandidateGenerator.from_support(session, block_size=64)
        session.set_anchors(anchors)
        generator.refresh(session)
        fresh = CandidateGenerator.from_support(session, block_size=64)
        assert list(generator.pairs()) == list(fresh.pairs())

    def test_degree_pruned_generator_refreshes_degrees(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(pair)
        generator = CandidateGenerator(pair, max_degree_ratio=2.0)
        session.apply_network_delta(_grow_delta(pair, "left"))
        generator.refresh()
        fresh = CandidateGenerator(pair, max_degree_ratio=2.0)
        assert list(generator.pairs()) == list(fresh.pairs())

    def test_explicit_mask_refresh_rejected(self, fresh_pair):
        from scipy import sparse

        pair = fresh_pair
        mask = sparse.csr_matrix(
            (len(pair.left_users()), len(pair.right_users()))
        )
        generator = CandidateGenerator(pair, allowed=mask)
        with pytest.raises(AlignmentError, match="explicit"):
            generator.refresh()


class TestStreamedDirtyBlocks:
    def test_partial_rescore_is_exact(self, fresh_pair):
        pair = fresh_pair
        anchors = sorted(pair.anchors, key=repr)[:5]
        candidates = _candidates(pair)
        session = AlignmentSession(pair, known_anchors=anchors)
        task = StreamedAlignmentTask.from_pairs(
            session,
            candidates,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            block_size=64,
        )
        weights = np.linspace(-0.5, 0.5, session.n_features)
        first = task.scores(weights)
        assert task.full_score_passes == 1
        session.apply_network_delta(_grow_delta(pair, "left"))
        rescored = task.scores(weights)
        assert task.partial_score_passes == 1
        assert 0 < task.blocks_rescored <= task.n_blocks

        reference_session = AlignmentSession(pair, known_anchors=anchors)
        reference = StreamedAlignmentTask.from_pairs(
            reference_session,
            candidates,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            block_size=64,
        )
        assert np.array_equal(rescored, reference.scores(weights))
        assert not np.array_equal(first, rescored)

    def test_same_epoch_serves_cache(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(
            pair, known_anchors=sorted(pair.anchors, key=repr)[:5]
        )
        task = StreamedAlignmentTask.from_pairs(
            session,
            _candidates(pair),
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            block_size=64,
        )
        weights = np.linspace(-0.5, 0.5, session.n_features)
        first = task.scores(weights)
        again = task.scores(weights)
        assert task.full_score_passes == 1
        assert np.array_equal(first, again)

    def test_new_weights_force_full_pass(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(
            pair, known_anchors=sorted(pair.anchors, key=repr)[:5]
        )
        task = StreamedAlignmentTask.from_pairs(
            session,
            _candidates(pair),
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            block_size=64,
        )
        task.scores(np.linspace(-0.5, 0.5, session.n_features))
        task.scores(np.linspace(-0.4, 0.6, session.n_features))
        assert task.full_score_passes == 2


class TestRetune:
    def test_retune_rechops_and_keeps_order(self, fresh_pair):
        pair = fresh_pair
        session = AlignmentSession(
            pair, known_anchors=sorted(pair.anchors, key=repr)[:5]
        )
        candidates = _candidates(pair)
        task = StreamedAlignmentTask.from_pairs(
            session,
            candidates,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            block_size="auto",
            retune_every=1,
        )
        weights = np.linspace(-0.5, 0.5, session.n_features)
        before = task.scores(weights)
        task._score_cache = None  # force a genuine second block pass
        after = task.scores(weights)
        assert task.pairs == candidates  # order never changes
        assert sum(len(block) for block in task.blocks) == len(candidates)
        assert np.array_equal(before, after)

    def test_retune_requires_auto(self, fresh_pair):
        from repro.exceptions import ModelError

        pair = fresh_pair
        session = AlignmentSession(pair)
        with pytest.raises(ModelError, match="auto"):
            StreamedAlignmentTask.from_pairs(
                session,
                _candidates(pair),
                np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
                block_size=64,
                retune_every=2,
            )


class TestScriptedSchedule:
    def test_schedule_is_deterministic_and_replayable(self):
        from repro.datasets import foursquare_twitter_like

        pair_a = foursquare_twitter_like("tiny", seed=11)
        pair_b = foursquare_twitter_like("tiny", seed=11)
        schedule_a = scripted_delta_schedule(pair_a, events=3, seed=2)
        schedule_b = scripted_delta_schedule(pair_b, events=3, seed=2)
        assert schedule_a == schedule_b
        for delta in schedule_a:
            pair_a.apply_delta(delta)
        for delta in schedule_b:
            pair_b.apply_delta(delta)
        assert pair_a.left_users() == pair_b.left_users()
        assert pair_a.right_users() == pair_b.right_users()

    def test_evolution_rounds_shapes_schedule(self):
        from repro.datasets import foursquare_twitter_like

        pair = foursquare_twitter_like("tiny", seed=11)
        schedule = scripted_delta_schedule(pair, events=3, seed=2)
        events = evolution_rounds(schedule, every=2, start=1)
        assert [round_ for round_, _ in events] == [1, 3, 5]

    def test_bad_knobs_rejected(self):
        from repro.datasets import foursquare_twitter_like

        pair = foursquare_twitter_like("tiny", seed=11)
        with pytest.raises(AlignmentError):
            scripted_delta_schedule(pair, events=0)
        with pytest.raises(AlignmentError):
            scripted_delta_schedule(pair, sides=("middle",))
        with pytest.raises(AlignmentError):
            evolution_rounds([], every=0)
