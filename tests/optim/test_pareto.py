"""ParetoTracker edge cases and the set-semantics property.

The front is a *set*: duplicates are rejected, a tie on one objective
with an improvement on the other replaces the dominated member, and the
final front never depends on the order points arrived in (the property
test shuffles arrival orders).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import ParetoTracker
from repro.optim.tracking import ParetoPoint


def front_points(tracker):
    return [(p.makespan, p.cost) for p in tracker.front]


class TestEdgeCases:
    def test_duplicates_never_grow_the_front(self):
        t = ParetoTracker()
        assert t.offer(10.0, 5.0)
        for _ in range(5):
            assert not t.offer(10.0, 5.0)
        assert front_points(t) == [(10.0, 5.0)]
        assert t.offers == 6

    def test_tie_on_one_objective_replaces_the_dominated(self):
        t = ParetoTracker()
        t.offer(10.0, 5.0)
        assert t.offer(10.0, 4.0)  # same span, cheaper: replaces
        assert front_points(t) == [(10.0, 4.0)]
        assert t.offer(9.0, 4.0)  # same cost, faster: replaces
        assert front_points(t) == [(9.0, 4.0)]
        assert not t.offer(9.0, 4.5)  # same span, dearer: rejected
        assert len(t) == 1

    def test_single_point_dominating_everything(self):
        t = ParetoTracker()
        for span, cost in [(10.0, 5.0), (12.0, 3.0), (11.0, 4.0)]:
            t.offer(span, cost)
        assert len(t) == 3
        assert t.offer(10.0, 3.0)  # dominates the whole front
        assert front_points(t) == [(10.0, 3.0)]

    def test_incomparable_points_accumulate_sorted(self):
        t = ParetoTracker()
        for span, cost in [(12.0, 3.0), (10.0, 5.0), (11.0, 4.0)]:
            assert t.offer(span, cost)
        assert front_points(t) == [(10.0, 5.0), (11.0, 4.0), (12.0, 3.0)]
        assert list(t) == t.front

    def test_dominated_query_includes_equality(self):
        t = ParetoTracker()
        t.offer(10.0, 5.0)
        assert t.dominated(10.0, 5.0)
        assert t.dominated(11.0, 5.0)
        assert not t.dominated(10.0, 4.9)

    def test_candidate_copied_only_on_acceptance(self):
        copies = []

        def spy(c):
            copies.append(c)
            return list(c)

        t = ParetoTracker(copy=spy)
        live = [1, 2, 3]
        t.offer(10.0, 5.0, live)
        t.offer(20.0, 50.0, live)  # dominated: no copy
        assert copies == [live]
        live.append(4)  # mutating the engine's working solution...
        assert t.front[0].candidate == [1, 2, 3]  # ...never leaks in

    def test_point_accessor(self):
        assert ParetoPoint(10.0, 5.0).point == (10.0, 5.0)


points_lists = st.lists(
    st.tuples(
        st.floats(1.0, 1e3, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


class TestSetSemantics:
    @given(points=points_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_front_is_insertion_order_invariant(self, points, seed):
        import random

        shuffled = list(points)
        random.Random(seed).shuffle(shuffled)
        a, b = ParetoTracker(), ParetoTracker()
        for p in points:
            a.offer(*p)
        for p in shuffled:
            b.offer(*p)
        assert front_points(a) == front_points(b)

    @given(points=points_lists)
    @settings(max_examples=200, deadline=None)
    def test_front_is_mutually_non_dominated_and_covers_input(self, points):
        t = ParetoTracker()
        for p in points:
            t.offer(*p)
        front = front_points(t)
        assert front == sorted(set(front))  # duplicate-free, sorted
        for i, (ms, cs) in enumerate(front):
            for j, (mo, co) in enumerate(front):
                if i != j:
                    assert not (mo <= ms and co <= cs)
        # every input point is dominated-or-equalled by the front
        for span, cost in points:
            assert any(ms <= span and cs <= cost for ms, cs in front)


class TestPointCopy:
    """The default copy is as deep as ``copy.deepcopy``: a weighted SE
    run keeps the same front and candidates under either, and no stored
    candidate shares state with what was offered."""

    def test_a_weighted_run_keeps_the_deepcopy_front(self):
        import copy

        from repro.core import SEConfig, SimulatedEvolution
        from repro.optim.evaluation import EvaluationFields
        from repro.workloads import small_workload

        w = small_workload(seed=3)
        fronts = []
        for tracker in (ParetoTracker(), ParetoTracker(copy=copy.deepcopy)):
            config = SEConfig(
                seed=5,
                max_iterations=6,
                platform="spot",
                objective="weighted:1:0.5",
            )
            config.evaluation_service = (
                lambda wl, t=tracker, c=config: EvaluationFields.
                evaluation_service(c, wl, pareto=t)
            )
            SimulatedEvolution(config).run(w)
            assert tracker.offers > 50 and len(tracker) > 1
            fronts.append(
                [
                    (p.makespan, p.cost, _as_pair(p.candidate))
                    for p in tracker.front
                ]
            )
        assert fronts[0] == fronts[1]

    def test_copies_are_independent_of_the_offered_candidate(self):
        from repro.schedule.encoding import ScheduleString

        t = ParetoTracker()
        string = ScheduleString([1, 0, 2], [0, 1, 1], 2)
        order, machines = [0, 2, 1], [1, 1, 0]
        nested = {"order": [2, 1, 0]}
        t.offer(3.0, 1.0, string)
        t.offer(2.0, 2.0, (order, machines))
        t.offer(1.0, 3.0, nested)
        string.relocate(1, 2, 1)
        order.reverse()
        machines[0] = 0
        nested["order"].append(9)
        got = {p.makespan: p.candidate for p in t.front}
        assert got[3.0] == ScheduleString([1, 0, 2], [0, 1, 1], 2)
        assert got[3.0].positions == [1, 0, 2]
        assert got[2.0] == ([0, 2, 1], [1, 1, 0])
        assert got[1.0] == {"order": [2, 1, 0]}


def _as_pair(candidate):
    """``(order, machines)`` of a string or of a scoring call's pair."""
    if hasattr(candidate, "machines"):
        return (list(candidate.order), list(candidate.machines))
    return (list(candidate[0]), list(candidate[1]))
