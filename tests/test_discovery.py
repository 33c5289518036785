import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_log
from oracles import reference_coverage
from pathminer.conformance import align, conformance_report
from pathminer.discovery import (
    DirectlyFollowsGraph,
    _coverage,
    alpha_pairs,
    build_dfg,
    build_footprint,
    mine_alpha,
    mine_dfm,
    _retained_edges,
)
from pathminer.errors import InputError
from pathminer.model import EventLog


class TestBuildDfg:
    def test_transformed_example_counts(self, example_log):
        dfg = build_dfg(example_log)
        assert dfg.edges == {
            ("Visit before CO", "HF"): 1,
            ("HF", "Death_HF"): 1,
        }
        assert dfg.starts == {"Visit before CO": 2}
        assert dfg.ends == {"Death_HF": 1, "Visit before CO": 1}
        assert dfg.activities == {"Visit before CO": 2, "HF": 1, "Death_HF": 1}

    def test_single_event_trace(self):
        dfg = build_dfg(make_log(("a",)))
        assert dfg.edges == {}
        assert dfg.starts == {"a": 1}
        assert dfg.ends == {"a": 1}

    def test_empty_log(self):
        dfg = build_dfg(EventLog())
        assert dfg.activities == {} and dfg.edges == {}


class TestMineDfm:
    def test_full_paths_keeps_training_log_fitting(self, example_log):
        net = mine_dfm(example_log, 1.0)
        assert conformance_report(net, example_log).fitness == 1.0

    def test_trivial_two_step_log(self):
        log = make_log(("a", "b"))
        net = mine_dfm(log, 1.0)
        assert {t.label for t in net.transitions if not t.silent} == {"a", "b"}
        assert align(net, ("a", "b")).total_cost == 0
        assert align(net, ("b", "a")).total_cost > 0

    def test_path_filter_drops_rare_route(self):
        log = make_log(*([("a", "b")] * 9 + [("a", "c", "b")]))
        net = mine_dfm(log, 0.5)
        # the rare route is reconnected for coverage but no longer replays
        assert align(net, ("a", "b")).total_cost == 0
        assert align(net, ("a", "c", "b")).total_cost > 0
        assert {t.label for t in net.transitions if not t.silent} == {"a", "b", "c"}

    def test_paths_zero_still_covers_every_activity(self):
        log = make_log(("a", "b", "c"), ("a", "c"))
        net = mine_dfm(log, 0.0)
        assert {t.label for t in net.transitions if not t.silent} == {"a", "b", "c"}
        assert conformance_report(net, log).fitness > 0.0

    def test_paths_out_of_range_rejected(self):
        with pytest.raises(InputError):
            mine_dfm(make_log(("a",)), 1.5)

    def test_retained_edges_monotone_in_paths(self):
        rng = random.Random(42)
        for _ in range(20):
            traces = [
                tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 15))
            ]
            dfg = build_dfg(make_log(*traces))
            previous = set()
            for paths in (0.0, 0.25, 0.5, 0.75, 1.0):
                retained, _ = _retained_edges(dfg, paths)
                assert previous <= retained
                previous = retained

    def test_empty_log_yields_walkable_net(self):
        net = mine_dfm(EventLog(), 1.0)
        assert align(net, ()).total_cost == 0


@st.composite
def dfgs_with_retained_edges(draw):
    """A directly-follows graph over 1-8 activities, with any starts, ends
    and edges (self-loops and exitless cycles included), and a retained
    subset of its edges."""
    activities = "abcdefgh"[:draw(st.integers(1, 8))]
    pairs = [(a, b) for a in activities for b in activities]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    starts = draw(st.lists(st.sampled_from(activities), unique=True))
    ends = draw(st.lists(st.sampled_from(activities), unique=True))
    retained = draw(st.sets(st.sampled_from(edges))) if edges else set()
    dfg = DirectlyFollowsGraph(dict.fromkeys(activities, 1), dict.fromkeys(edges, 1),
                               dict.fromkeys(starts, 1), dict.fromkeys(ends, 1))
    return dfg, retained


@settings(max_examples=300, deadline=None)
@given(dfgs_with_retained_edges())
def test_coverage_matches_the_two_loop_reference(case):
    dfg, retained = case
    assert _coverage(dfg, retained) == reference_coverage(dfg, retained)


def brute_alpha_pairs(log):
    """Powerset enumeration of the maximal place candidates."""
    sequences = log.activity_sequences().values()
    activities = sorted({a for s in sequences for a in s})
    df = set()
    for s in sequences:
        df.update(zip(s, s[1:]))
    causal = {(a, b) for (a, b) in df if (b, a) not in df}

    def choice(a, b):
        return (a, b) not in df and (b, a) not in df

    subsets = [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(activities, r) for r in range(1, len(activities) + 1)
        )
    ]
    candidates = [
        (a_set, b_set)
        for a_set in subsets
        if all(choice(x, y) for x in a_set for y in a_set)
        for b_set in subsets
        if all(choice(x, y) for x in b_set for y in b_set)
        and all((a, b) in causal for a in a_set for b in b_set)
    ]
    return {
        (a_set, b_set)
        for a_set, b_set in candidates
        if not any(
            (a_set, b_set) != (other_a, other_b)
            and a_set <= other_a
            and b_set <= other_b
            for other_a, other_b in candidates
        )
    }


class TestMineAlpha:
    def test_two_step_log(self):
        net = mine_alpha(make_log(("a", "b")))
        assert {t.label for t in net.transitions if not t.silent} == {"a", "b"}
        assert align(net, ("a", "b")).total_cost == 0
        assert align(net, ("b", "a")).total_cost == 2

    def test_textbook_concurrency_log(self):
        log = make_log(("a", "b", "c", "d"), ("a", "c", "b", "d"), ("a", "e", "d"))
        pairs = {(frozenset(a), frozenset(b)) for a, b in alpha_pairs(log)}
        assert pairs == {
            (frozenset("a"), frozenset("be")),
            (frozenset("a"), frozenset("ce")),
            (frozenset("be"), frozenset("d")),
            (frozenset("ce"), frozenset("d")),
        }
        net = mine_alpha(log)
        for trace in (("a", "b", "c", "d"), ("a", "c", "b", "d"), ("a", "e", "d")):
            assert align(net, trace).total_cost == 0

    def test_transformed_example_footprint(self, example_log):
        footprint = build_footprint(example_log)
        assert footprint.relations[("Visit before CO", "HF")] == "->"
        assert footprint.relations[("HF", "Death_HF")] == "->"
        assert footprint.relations[("HF", "Visit before CO")] == "<-"
        assert footprint.relations[("Visit before CO", "Death_HF")] == "#"

    def test_footprint_matrix_is_consistent(self, example_log):
        footprint = build_footprint(example_log)
        flip = {"->": "<-", "<-": "->", "||": "||", "#": "#"}
        for a in footprint.activities:
            for b in footprint.activities:
                assert footprint.relations[(b, a)] == flip[footprint.relations[(a, b)]]

    def test_matches_brute_force_on_random_logs(self):
        rng = random.Random(7)
        for _ in range(60):
            traces = [
                tuple(rng.choice("abcdef") for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(1, 8))
            ]
            log = make_log(*traces)
            mined = {(frozenset(a), frozenset(b)) for a, b in alpha_pairs(log)}
            assert mined == brute_alpha_pairs(log)
