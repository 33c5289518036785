import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_log
from oracles import (
    ReferenceSemantics, brute_force_cost, random_trace, random_workflow_net, reference_align,
    reference_fitness, reference_generalization, reference_precision, reference_report,
    visible_model_projection,
)
import pathminer.conformance as conformance
from pathminer.conformance import (
    align,
    align_log,
    conformance_report,
    f1,
    model_path_cost,
    simplicity,
)
from pathminer.errors import InputError, ModelError, ResourceError
from pathminer.model import EventLog
from pathminer.petri import CompiledNet, PetriNet, Transition


def linear_net(*activities):
    places = [f"p{i}" for i in range(len(activities) + 1)]
    transitions = tuple(Transition(f"t_{a}", a) for a in activities)
    arcs = set()
    for i, a in enumerate(activities):
        arcs.add((places[i], f"t_{a}"))
        arcs.add((f"t_{a}", places[i + 1]))
    return PetriNet(
        frozenset(places), transitions, frozenset(arcs),
        {places[0]: 1}, {places[-1]: 1},
    )


def xor_net(*activities):
    transitions = tuple(Transition(f"t_{a}", a) for a in activities)
    arcs = set()
    for a in activities:
        arcs.add(("p0", f"t_{a}"))
        arcs.add((f"t_{a}", "p1"))
    return PetriNet(
        frozenset({"p0", "p1"}), transitions, frozenset(arcs),
        {"p0": 1}, {"p1": 1},
    )


def two_branch_net():
    transitions = (
        Transition("a", "a"), Transition("b", "b"),
        Transition("c", "c"), Transition("d", "d"),
    )
    arcs = {
        ("p0", "a"), ("a", "p1"), ("p0", "b"), ("b", "p2"),
        ("p1", "c"), ("c", "pf"), ("p2", "d"), ("d", "pf"),
    }
    return PetriNet(
        frozenset({"p0", "p1", "p2", "pf"}), transitions, frozenset(arcs),
        {"p0": 1}, {"pf": 1},
    )


def flower_net(*activities):
    transitions = (Transition("open"), Transition("close")) + tuple(
        Transition(f"t_{a}", a) for a in activities
    )
    arcs = {("i", "open"), ("open", "p"), ("p", "close"), ("close", "o")}
    for a in activities:
        arcs.add(("p", f"t_{a}"))
        arcs.add((f"t_{a}", "p"))
    return PetriNet(
        frozenset({"i", "p", "o"}), transitions, frozenset(arcs),
        {"i": 1}, {"o": 1},
    )


class TestAlign:
    def test_dejure_fitting_trace(self, dejure):
        assert align(dejure, ("Visit before CO", "HF", "Death_HF")).total_cost == 0

    def test_dejure_order_violation_costs(self, dejure):
        assert align(dejure, ("Death_HF", "HF")).total_cost > 0

    def test_log_move_on_unknown_activity(self):
        net = linear_net("a", "b")
        alignment = align(net, ("a", "c", "b"))
        assert alignment.total_cost == 1
        assert alignment.total_cost == brute_force_cost(net, ("a", "c", "b"))
        kinds = [m.kind for m in alignment.moves]
        assert kinds == ["synchronous", "log", "synchronous"]

    def test_projections(self):
        net = linear_net("a", "b")
        alignment = align(net, ("a", "c", "b"))
        assert alignment.log_projection() == ("a", "c", "b")
        assert visible_model_projection(alignment) == ("t_a", "t_b")

    def test_empty_trace_costs_model_path(self):
        net = linear_net("a", "b")
        assert align(net, ()).total_cost == 2
        assert model_path_cost(net) == 2

    def test_silent_transitions_are_free(self, dejure):
        assert align(dejure, ("Visit before CO",)).total_cost == 0

    def test_unreachable_final_is_model_error(self):
        net = PetriNet(
            frozenset({"p0", "p1"}),
            (Transition("t", "a"),),
            frozenset({("p0", "t"), ("t", "p0")}),
            {"p0": 1},
            {"p1": 1},
        )
        with pytest.raises(ModelError):
            align(net, ("a",))

    def test_state_cap_is_enforced(self, dejure):
        with pytest.raises(ResourceError) as err:
            align(dejure, ("Visit before CO", "HF", "Death_HF"), cap=2)
        assert err.value.cap == 2

    def test_negative_cap_is_an_input_error(self, dejure):
        with pytest.raises(InputError, match="state-space cap must be at least 0, got -1"):
            align(dejure, ("Visit before CO",), cap=-1)

    def test_align_log_cap_error_names_case_and_variant(self, dejure):
        log = make_log(("Visit before CO",), ("Visit before CO", "HF", "Death_HF"))
        with pytest.raises(ResourceError, match=r"case 'c000' \(a variant of 1 events\)") as err:
            align_log(dejure, log, cap=2)
        assert err.value.cap == 2
        assert str(err.value).startswith("state-space cap of 2 markings exceeded")

    def test_accepts_event_objects(self, dejure, example_log):
        trace = example_log.traces()["007"]
        assert align(dejure, trace).total_cost == 0


class TestAlignOptimalityOracle:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(20240811)
        for _ in range(120):
            net = random_workflow_net(rng)
            trace = random_trace(rng, net)
            expected = brute_force_cost(net, trace)
            assert align(net, trace).total_cost == expected

    def test_alignment_projections_are_valid(self):
        rng = random.Random(99)
        for _ in range(60):
            net = random_workflow_net(rng)
            trace = random_trace(rng, net)
            alignment = align(net, trace)
            assert alignment.log_projection() == tuple(trace)
            sem = ReferenceSemantics(net)
            marking = dict(net.initial_marking)
            for tid in alignment.model_projection():
                marking = sem.fire(marking, tid)
            assert marking == dict(net.final_marking)
            assert alignment.total_cost == sum(m.cost for m in alignment.moves)

    def test_compiled_net_gives_the_same_alignment(self):
        rng = random.Random(4242)
        for _ in range(60):
            net = random_workflow_net(rng)
            trace = random_trace(rng, net)
            assert align(CompiledNet(net), trace) == align(net, trace)


def with_sink_place(rng: random.Random, net: PetriNet) -> PetriNet:
    """``net`` plus a place that no transition consumes from, fed by one of
    its transitions, with 0 or 1 tokens in the initial and final markings."""
    feeder = rng.choice(net.transitions)
    return PetriNet(
        net.places | {"extra"},
        net.transitions,
        net.arcs | {(feeder.id, "extra")},
        {**dict(net.initial_marking), "extra": rng.randint(0, 1)},
        {**dict(net.final_marking), "extra": rng.randint(0, 1)},
    )


class TestDeadMarkingPrune:
    CAP = 3000

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_same_result_as_the_unpruned_search(self, rng, add_sink):
        net = random_workflow_net(rng)
        if add_sink:
            net = with_sink_place(rng, net)
        trace = random_trace(rng, net)
        try:
            expected = reference_align(net, trace, cap=self.CAP)
        except ModelError:
            with pytest.raises(ModelError):
                align(net, trace, cap=self.CAP)
            return
        except ResourceError:
            return  # the unpruned search gives no answer to compare with
        assert align(net, trace, cap=self.CAP) == expected

    def test_pumped_sink_ends_in_model_error(self):
        # a silent transition with an empty preset pumps tokens into a place
        # nothing consumes: unpruned, the search never runs out of markings
        net = PetriNet(
            frozenset({"p0", "p1", "sink"}),
            (Transition("t", "a"), Transition("pump")),
            frozenset({("p0", "t"), ("t", "p0"), ("pump", "sink")}),
            {"p0": 1},
            {"p1": 1},
        )
        with pytest.raises(ResourceError):
            reference_align(net, ("a",), cap=5000)
        with pytest.raises(ModelError, match="no run from its initial marking to its final"):
            align(net, ("a",), cap=5000)

    def test_dead_initial_marking_fails_at_once(self):
        net = linear_net("a")
        dead = PetriNet(
            net.places | {"sink"}, net.transitions, net.arcs,
            {"p0": 1, "sink": 1}, net.final_marking,
        )
        with pytest.raises(ModelError):
            align(dead, ("a",), cap=0)


class TestFitness:
    def test_simulated_log_fits_dejure(self, dejure):
        from pathminer.simulate import SimulationConfig, simulate
        from pathminer.transform import transform_log

        log = transform_log(simulate(SimulationConfig(patients=80, seed=21)))
        assert conformance_report(dejure, log).fitness == 1.0

    def test_hand_computed_value(self):
        net = linear_net("a", "b")
        log = make_log(("a", "b"), ("a", "c", "b"))
        # costs 0 and 1; worst case (2 + 2) + (3 + 2) = 9
        assert conformance_report(net, log).fitness == pytest.approx(1 - 1 / 9)

    def test_empty_log_is_perfectly_fit(self):
        assert conformance_report(linear_net("a"), EventLog()).fitness == 1.0

    def test_fitness_one_iff_all_costs_zero(self):
        net = linear_net("a", "b")
        fitting = make_log(("a", "b"))
        broken = make_log(("b", "a"))
        assert conformance_report(net, fitting).fitness == 1.0
        assert conformance_report(net, broken).fitness < 1.0


class TestPrecision:
    def test_linear_net_on_its_only_trace(self):
        net = linear_net("a", "b")
        assert conformance_report(net, make_log(("a", "b"))).precision == 1.0

    def test_flower_model_is_imprecise(self):
        net = flower_net("a", "b", "c")
        log = make_log(("a", "b"), ("b", "c"))
        assert conformance_report(net, log).precision < 1.0

    def test_two_branch_with_unused_branch(self):
        # prefix (): enabled {a, b}, observed {a} -> 1 escaping of 2
        # prefix (a): enabled {c}, observed {c}; terminal state: nothing
        net = two_branch_net()
        log = make_log(("a", "c"), ("a", "c"), ("a", "c"))
        assert conformance_report(net, log).precision == pytest.approx(2 / 3)

    def test_both_branches_used_is_precise(self):
        net = two_branch_net()
        log = make_log(("a", "c"), ("b", "d"))
        value = conformance_report(net, log).precision
        # end states allow nothing; both choices observed at the root
        assert value == 1.0


class TestGeneralization:
    def test_every_transition_fired_often(self):
        net = xor_net("a", "b")
        log = make_log(*((("a",),) * 100 + (("b",),) * 100))
        assert conformance_report(net, log).generalization == pytest.approx(0.9)

    def test_each_fired_exactly_once(self):
        net = xor_net("a", "b")
        assert conformance_report(net, make_log(("a",), ("b",))).generalization == pytest.approx(0.0)

    def test_mixed_counts(self):
        net = xor_net("a", "b")
        log = make_log(*((("a",),) * 4 + (("b",),)))
        assert conformance_report(net, log).generalization == pytest.approx(0.25)

    def test_never_fired_counts_like_once(self):
        net = xor_net("a", "b")
        log = make_log(*((("a",),) * 4))
        # b never fires: contributes 1; a contributes 1/2
        assert conformance_report(net, log).generalization == pytest.approx(0.25)


class TestSimplicityAndF1:
    def test_linear_net_is_maximally_simple(self):
        assert simplicity(linear_net("a", "b")) == 1.0

    def test_dejure_simplicity(self, dejure):
        assert simplicity(dejure) == pytest.approx(1 / (1 + 60 / 21 - 2))

    @pytest.mark.parametrize(
        "fit,prec,expected",
        [(0.97, 0.94, 0.95), (0.75, 1.00, 0.86), (0.39, 0.44, 0.41)],
    )
    def test_f1_reproduces_published_pairs(self, fit, prec, expected):
        assert round(f1(fit, prec), 2) == expected

    def test_f1_degenerate(self):
        assert f1(0.0, 0.0) == 0.0


class TestReport:
    def test_each_variant_is_aligned_once(self, dejure, monkeypatch):
        from pathminer.simulate import SimulationConfig, simulate
        from pathminer.transform import transform_log

        log = transform_log(simulate(SimulationConfig(patients=240, seed=7)))
        variants = len(set(log.activity_sequences().values()))
        calls = []
        original = conformance.align

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(conformance, "align", counting)
        report = conformance_report(dejure, log)
        assert len(calls) == variants + 1

    def test_all_metrics_within_unit_interval(self):
        rng = random.Random(5)
        for _ in range(12):
            net = random_workflow_net(rng, max_transitions=6)
            log = make_log(*(random_trace(rng, net, max_length=5) for _ in range(6)))
            log = EventLog(tuple(e for e in log))  # may contain empty traces
            report = conformance_report(net, log)
            for value in (
                report.fitness,
                report.precision,
                report.generalization,
                report.simplicity,
                report.f1,
            ):
                assert 0.0 <= value <= 1.0


def assert_same_as_reference(net, log):
    """The report and each metric, repr for repr (so bit for bit), against
    the three-walk code the one-walk report replaced."""
    report = conformance_report(net, log)
    assert repr(report) == repr(reference_report(net, log))
    assert repr(report.fitness) == repr(reference_fitness(net, log))
    assert repr(report.precision) == repr(reference_precision(net, log))
    assert repr(report.generalization) == repr(reference_generalization(net, log))
    return report


class TestReportAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 12))
    def test_random_workflow_nets(self, rng, cases):
        net = random_workflow_net(rng, max_transitions=7)
        assert_same_as_reference(
            net, make_log(*(random_trace(rng, net) for _ in range(cases)))
        )

    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 60),
        st.sampled_from([None, 0.5, 0.9, 1.0]),
        st.booleans(),
    )
    def test_simulated_cohorts(self, seed, patients, paths, deviant):
        from pathminer.discovery import mine_dfm
        from pathminer.petri import build_dejure
        from pathminer.simulate import SimulationConfig, simulate
        from pathminer.transform import transform_log

        places = {"p1": {"None": 40, "HF": 30, "CV": 20, "MI": 10}} if deviant else {}
        log = transform_log(simulate(SimulationConfig(patients, seed, place_probs=places)))
        net = build_dejure() if paths is None else mine_dfm(log, paths)
        assert_same_as_reference(net, log)

    def test_empty_log(self):
        report = assert_same_as_reference(linear_net("a", "b"), EventLog())
        assert (report.fitness, report.precision, report.generalization) == (1.0, 1.0, 0.0)

    def test_net_without_visible_transitions(self):
        net = PetriNet(
            frozenset({"i", "o"}), (Transition("tau"),), frozenset({("i", "tau"), ("tau", "o")}),
            {"i": 1}, {"o": 1},
        )
        report = assert_same_as_reference(net, make_log(("a",), ("a", "b")))
        assert report.generalization == 1.0
        assert (report.fitness, report.precision) == (0.0, 1.0)  # every event a log move

    def test_no_visible_transitions_and_no_run_now_raises(self):
        # The parent's generalization returned 1.0 here without aligning.
        net = PetriNet(
            frozenset({"i", "o"}), (Transition("tau"),), frozenset({("o", "tau"), ("tau", "i")}),
            {"i": 1}, {"o": 1},
        )
        assert reference_generalization(net, make_log(("a",))) == 1.0
        with pytest.raises(ModelError):
            conformance_report(net, make_log(("a",)))
        assert conformance_report(net, EventLog()).generalization == 1.0

    def test_precision_now_aligns_the_empty_trace_too(self):
        # Five two-step branches: the empty trace expands the root and all
        # five branch middles, the fitting trace (a1, a2) only two states.
        places = {"i", "o"} | {f"m{k}" for k in range(5)}
        transitions, arcs = [], set()
        for k in range(5):
            transitions += [Transition(f"a{k}", f"a{k}"), Transition(f"b{k}", f"b{k}")]
            arcs |= {("i", f"a{k}"), (f"a{k}", f"m{k}"), (f"m{k}", f"b{k}"), (f"b{k}", "o")}
        net = PetriNet(frozenset(places), tuple(transitions), frozenset(arcs),
                       {"i": 1}, {"o": 1})
        log = make_log(("a1", "b1"))
        expected = reference_precision(net, log, cap=3)
        with pytest.raises(ResourceError) as err:
            conformance_report(net, log, cap=3)
        assert str(err.value) == ("state-space cap of 3 markings exceeded aligning the empty "
                                  "trace (the model-only run)")
        assert conformance_report(net, log, cap=6).precision == expected == 1 - 4 / 6

    def test_one_variant(self):
        report = assert_same_as_reference(linear_net("a", "b"), make_log(*[("a", "b")] * 3))
        assert (report.fitness, report.precision) == (1.0, 1.0)
        assert report.generalization == 1.0 - (2 / 3 ** 0.5) / 2


def test_simplicity_of_a_net_with_no_places_and_no_transitions_is_one():
    assert simplicity(PetriNet(frozenset(), (), frozenset(), {}, {})) == 1.0
