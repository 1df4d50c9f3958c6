import numpy as np
import pytest

from conftest import NaNReplies, make_oracle
from keywarp.correspondence import (AllInfeasible, FilterConfig, MatchOutcome,
                                    cross_view_distance, demo_cross_view_distances,
                                    match_demo, match_pixel, select_source_demo)
from keywarp.demo import ObjectState, SceneSnapshot


def _shifted_snapshot(snapshot, delta, objects=None):
    """Copy of a snapshot with chosen objects rigidly translated."""
    moved = {}
    for name, state in snapshot.objects.items():
        pos = np.array(state.position)
        if objects is None or name in objects:
            pos = pos + delta
        moved[name] = ObjectState(position=tuple(pos), upright=state.upright)
    return SceneSnapshot(rig=snapshot.rig, objects=moved, anchors=snapshot.anchors)


class _PerturbLeftPrimary:
    """Wraps a matcher, shifting left-view demo-to-scene matches by dv px."""

    def __init__(self, inner, dv):
        self.inner = inner
        self.dv = dv

    def match(self, source, target, query_pixel, query_view, target_view):
        pixel = self.inner.match(source, target, query_pixel, query_view, target_view)
        if (pixel is not None and query_view == "left" and target_view == "left"
                and source.state_id != target.state_id):
            return pixel + np.array([0.0, self.dv])
        return pixel


class _PerturbObsCrossView:
    """Shifts same-scene cross-view matches on non-demo scenes by dv px."""

    def __init__(self, inner, dv, demo_state_ids):
        self.inner = inner
        self.dv = dv
        self.demo_state_ids = demo_state_ids

    def match(self, source, target, query_pixel, query_view, target_view):
        pixel = self.inner.match(source, target, query_pixel, query_view, target_view)
        if (pixel is not None and source.state_id == target.state_id
                and source.state_id not in self.demo_state_ids):
            return pixel + np.array([0.0, self.dv])
        return pixel


class _NoMatchLeft:
    def __init__(self, inner):
        self.inner = inner

    def match(self, source, target, query_pixel, query_view, target_view):
        if query_view == "left" and source.state_id != target.state_id:
            return None
        return self.inner.match(source, target, query_pixel, query_view,
                                target_view)


def test_identity_scene_matches_exactly(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    outcome = match_demo(clean_oracle, demo, demo.snapshot, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert outcome.feasible
    assert np.max(np.abs(outcome.target_waypoints - demo.waypoints)) < 1e-6
    assert np.max(outcome.triangulation_residuals) < 1e-6
    assert np.max(outcome.cross_view_gaps) < 1e-6
    assert outcome.score < 1e-6


def test_residual_above_threshold_is_infeasible(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))
    matcher = _PerturbLeftPrimary(clean_oracle, dv=100.0)
    outcome = match_demo(matcher, demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert np.max(outcome.triangulation_residuals) > 0.10
    assert not outcome.feasible
    assert outcome.score == float("inf")


def test_translated_objects_translate_waypoints(library, clean_oracle):
    # both waypoints of an into-bowl demo are object-anchored
    demo_id = library.by_task["pineapple_table_to_bowl"][0]
    demo = library.demos[demo_id]
    delta = np.array([0.1, 0.0, 0.0])
    target = _shifted_snapshot(demo.snapshot, delta)
    outcome = match_demo(clean_oracle, demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert outcome.feasible
    assert np.max(np.abs(outcome.target_waypoints - (demo.waypoints + delta))) < 1e-6
    assert outcome.score == pytest.approx(0.1 * np.sqrt(2), abs=1e-6)


def test_static_anchor_waypoints_stay_put(library, clean_oracle):
    # the shelf release waypoint is anchored to the static shelf
    demo_id = library.by_task["pineapple_table_to_shelf"][0]
    demo = library.demos[demo_id]
    delta = np.array([0.05, -0.04, 0.0])
    target = _shifted_snapshot(demo.snapshot, delta, objects={"pineapple"})
    outcome = match_demo(clean_oracle, demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert outcome.feasible
    assert np.allclose(outcome.target_waypoints[0], demo.waypoints[0] + delta,
                       atol=1e-6)
    assert np.allclose(outcome.target_waypoints[1], demo.waypoints[1], atol=1e-6)
    assert outcome.score == pytest.approx(np.linalg.norm(delta), abs=1e-6)


def test_cross_view_distance_zero_for_exact_match(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    d = cross_view_distance(clean_oracle, demo.snapshot,
                            demo.keypoints["left"][0], "left",
                            demo.waypoints[0])
    assert d < 1e-9


def test_cross_view_gap_rule(library, clean_oracle):
    """demo-side 0.02 m vs obs-side pushed to ~0.15 m -> gap > 0.10 -> reject."""
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))
    matcher = _PerturbObsCrossView(clean_oracle, dv=80.0,
                                   demo_state_ids={demo.snapshot.state_id})
    demo_side = {v: np.full(demo.num_waypoints, 0.02) for v in ("left", "right")}
    outcome = match_demo(matcher, demo, target, FilterConfig(),
                         demo_side_distances=demo_side)
    assert np.max(outcome.cross_view_gaps) > 0.10
    assert not outcome.feasible


def test_no_match_marks_demo_infeasible(library, clean_oracle):
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))
    outcome = match_demo(_NoMatchLeft(clean_oracle), demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert not outcome.feasible
    assert np.all(np.isnan(outcome.target_waypoints))


def test_feasibility_monotone_in_thresholds(library):
    rng_scenes = np.random.default_rng(2)
    oracle = make_oracle(library, pixel_noise_sigma=4.0, seed=9)
    tight = FilterConfig(residual_max=0.01, gap_max=0.01)
    loose = FilterConfig(residual_max=0.3, gap_max=0.3)
    demos = list(library.demos.values())[:12]
    flipped = 0
    for demo in demos:
        delta = rng_scenes.uniform(-0.05, 0.05, 3) * [1, 1, 0]
        target = _shifted_snapshot(demo.snapshot, delta)
        o_tight = match_demo(oracle, demo, target, tight,
                             library.demo_side_distances[demo.id])
        o_loose = match_demo(oracle, demo, target, loose,
                             library.demo_side_distances[demo.id])
        if o_tight.feasible:
            assert o_loose.feasible
        if o_tight.feasible != o_loose.feasible:
            flipped += 1
    assert flipped > 0   # the comparison actually exercised the gate


def test_outlier_contamination_is_rejected(library):
    """Contaminated demos (any query returned an outlier) get filtered. A
    reply is an outlier when a noiseless twin oracle, given the same calls,
    replies otherwise."""

    class _Recorder:
        def __init__(self, inner, twin):
            self.inner, self.twin = inner, twin
            self.saw_outlier = False

        def match(self, *args):
            pixel, clean = self.inner.match(*args), self.twin.match(*args)
            if pixel is not None and (clean is None or not np.array_equal(pixel, clean)):
                self.saw_outlier = True
            return pixel

    contaminated = rejected_contaminated = 0
    demos = list(library.demos.values())
    for trial in range(200):
        oracle = make_oracle(library, outlier_rate=0.05, seed=1000 + trial)
        recorder = _Recorder(oracle, make_oracle(library))
        demo = demos[trial % len(demos)]
        outcome = match_demo(recorder, demo, demo.snapshot, FilterConfig(),
                             library.demo_side_distances[demo.id])
        if recorder.saw_outlier:
            contaminated += 1
            rejected_contaminated += int(not outcome.feasible)
        else:
            assert outcome.feasible   # clean matches on the identity scene pass
    assert contaminated > 20
    assert rejected_contaminated / contaminated >= 0.9


def _outcome(demo_id, score):
    feasible = np.isfinite(score)
    return MatchOutcome(demo_id=demo_id, target_waypoints=np.zeros((1, 3)),
                        triangulation_residuals=np.zeros(1),
                        cross_view_gaps=np.zeros(1), feasible=feasible,
                        score=float(score))


def test_select_source_demo_is_argmin():
    outcomes = [_outcome("d0", 0.4), _outcome("d1", 0.1),
                _outcome("d2", float("inf"))]
    assert select_source_demo(outcomes).demo_id == "d1"


def test_select_source_demo_all_infeasible():
    with pytest.raises(AllInfeasible):
        select_source_demo([_outcome("d0", float("inf"))])


def test_select_source_demo_tie_breaks_by_id():
    outcomes = [_outcome("d7", 0.2), _outcome("d2", 0.2), _outcome("d5", 0.9)]
    assert select_source_demo(outcomes).demo_id == "d2"


def test_select_source_demo_permutation_invariant():
    rng = np.random.default_rng(0)
    outcomes = [_outcome(f"d{i}", s)
                for i, s in enumerate([0.5, 0.31, 0.7, np.inf, 0.31])]
    for _ in range(10):
        perm = list(rng.permutation(len(outcomes)))
        assert select_source_demo([outcomes[i] for i in perm]).demo_id == "d1"


def test_demo_cross_view_distances_are_the_stored_ones(library, clean_oracle):
    """The demo side a library derives at load is what
    `demo_cross_view_distances` computes with a clean oracle, bit for bit."""
    for demo in library.demos.values():
        stored = library.demo_side_distances[demo.id]
        computed = demo_cross_view_distances(clean_oracle, demo)
        assert all(np.array_equal(computed[v], stored[v]) for v in ("left", "right"))


# ---------------------------------------------------------------------------
# replies that are not a finite pixel

class _Replies:
    """A matcher whose every reply is `reply`."""

    def __init__(self, reply):
        self.reply = reply

    def match(self, *args):
        return self.reply


@pytest.mark.parametrize("reply", [
    None, np.array([np.nan, 200.0]), np.array([300.0, np.inf]), np.full(2, -np.inf),
    [np.nan, 1.0], np.zeros(3), np.zeros((2, 1)), np.zeros(0), "pixel", object()])
def test_a_reply_that_is_not_a_finite_pixel_is_no_match(library, reply):
    demo = next(iter(library.demos.values()))
    assert match_pixel(_Replies(reply), demo.snapshot, demo.snapshot,
                       demo.keypoints["left"][0], "left", "left") is None


def test_a_finite_pixel_reply_is_the_match(library):
    demo = next(iter(library.demos.values()))
    pixel = np.array([300.5, 200.25])
    assert match_pixel(_Replies(pixel), demo.snapshot, demo.snapshot,
                       pixel, "left", "left") is pixel
    listed = match_pixel(_Replies([300, 200]), demo.snapshot, demo.snapshot,
                         pixel, "left", "left")
    assert listed.dtype == float and listed.tolist() == [300.0, 200.0]


def test_nan_scene_replies_make_the_demo_infeasible(library, clean_oracle):
    """A NaN pixel for the demo-to-scene left-view queries used to be
    triangulated into a feasible outcome with a NaN score."""
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))
    outcome = match_demo(NaNReplies(clean_oracle), demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert not outcome.feasible
    assert outcome.score == float("inf")
    assert np.all(np.isnan(outcome.target_waypoints))


def test_nan_cross_view_replies_fail_the_gap_gate(library, clean_oracle):
    """A NaN cross-view pixel used to give a NaN gap, which `max` dropped:
    the gap read 0 and the demo passed."""
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))
    matcher = NaNReplies(clean_oracle, lambda source, target, qv, tv: qv != tv)
    outcome = match_demo(matcher, demo, target, FilterConfig(),
                         library.demo_side_distances[demo.id])
    assert not outcome.feasible
    assert np.all(outcome.cross_view_gaps == np.inf)
    assert np.all(np.isfinite(outcome.target_waypoints))


def test_a_gap_with_a_side_that_is_not_finite_is_infinite(library, clean_oracle):
    """inf - inf is NaN, and so is a NaN side: such a gap used to read 0 and
    pass the gate."""
    demo = next(iter(library.demos.values()))
    target = _shifted_snapshot(demo.snapshot, np.array([0.02, 0.0, 0.0]))

    class _NoCrossView:
        def match(self, source, target, query_pixel, query_view, target_view):
            if query_view != target_view:
                return None
            return clean_oracle.match(source, target, query_pixel, query_view, target_view)

    failed = {v: np.full(demo.num_waypoints, np.inf) for v in ("left", "right")}
    outcome = match_demo(_NoCrossView(), demo, target, FilterConfig(), failed)
    assert not outcome.feasible
    assert np.all(outcome.cross_view_gaps == np.inf)
    unknown = {v: np.full(demo.num_waypoints, np.nan) for v in ("left", "right")}
    outcome = match_demo(clean_oracle, demo, target, FilterConfig(), unknown)
    assert not outcome.feasible
    assert np.all(outcome.cross_view_gaps == np.inf)
