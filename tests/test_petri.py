import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceSemantics, random_workflow_net
from pathminer.conformance import align
from pathminer.errors import InputError
from pathminer.petri import CompiledNet, Marking, PetriNet, Transition, decision_points


def linear_net():
    return PetriNet(
        places=frozenset({"p0", "p1", "p2"}),
        transitions=(Transition("a", "a"), Transition("b", "b")),
        arcs=frozenset({("p0", "a"), ("a", "p1"), ("p1", "b"), ("b", "p2")}),
        initial_marking=Marking(["p0"]),
        final_marking=Marking(["p2"]),
    )


def enabled_ids(compiled: CompiledNet, counts: tuple[int, ...]) -> list[str]:
    return [compiled.transitions[t].id for t in compiled.enabled(counts)]


class TestSemantics:
    def test_enabled_at_dejure_initial(self, dejure):
        compiled = CompiledNet(dejure)
        assert enabled_ids(compiled, compiled.initial) == ["visit_first", "skip_first_visit"]

    def test_sequence_fire(self):
        compiled = CompiledNet(linear_net())
        after_a = compiled.fire(compiled.initial, compiled.index["a"])
        assert enabled_ids(compiled, after_a) == ["b"]
        assert compiled.fire(after_a, compiled.index["b"]) == compiled.final

    def test_token_conservation_per_arc_structure(self, dejure):
        compiled = CompiledNet(dejure)
        counts = compiled.initial
        for tid in ("visit_first", "co_hf", "visit_after", "back_to_watch"):
            assert tid in enabled_ids(compiled, counts)
            before = sum(counts)
            counts = compiled.fire(counts, compiled.index[tid])
            pre = sum(1 for _, target in dejure.arcs if target == tid)
            post = sum(1 for source, _ in dejure.arcs if source == tid)
            assert sum(counts) == before - pre + post

    def test_marking_is_multiset(self):
        m = Marking(["p", "p", "q"])
        assert m["p"] == 2 and m["q"] == 1 and m["r"] == 0
        assert len(m) == 3
        assert m == Marking({"p": 2, "q": 1})
        with pytest.raises(InputError):
            Marking({"p": -1})


class TestStructure:
    def test_bipartite_arcs_enforced(self):
        with pytest.raises(InputError):
            PetriNet(
                places=frozenset({"p0", "p1"}),
                transitions=(Transition("t"),),
                arcs=frozenset({("p0", "p1")}),
                initial_marking=Marking(["p0"]),
                final_marking=Marking(["p1"]),
            )

    def test_marking_must_reference_places(self):
        with pytest.raises(InputError):
            PetriNet(
                places=frozenset({"p0"}),
                transitions=(Transition("t"),),
                arcs=frozenset({("p0", "t"), ("t", "p0")}),
                initial_marking=Marking(["nowhere"]),
                final_marking=Marking(["p0"]),
            )

    def test_duplicate_transition_ids_rejected(self):
        with pytest.raises(InputError):
            PetriNet(
                places=frozenset({"p0"}),
                transitions=(Transition("t"), Transition("t", "x")),
                arcs=frozenset({("p0", "t"), ("t", "p0")}),
                initial_marking=Marking(["p0"]),
                final_marking=Marking(["p0"]),
            )


class TestDecisionPoints:
    def test_dejure_has_the_two_interesting_places(self, dejure):
        points = {dp.place: dp for dp in decision_points(dejure)}
        assert {"p1", "p4"} <= set(points)
        assert len(points["p1"].transitions) == 6
        assert len(points["p4"].transitions) == 3

    def test_sequence_net_has_none(self):
        assert decision_points(linear_net()) == []

    def test_single_branching_place(self):
        net = PetriNet(
            places=frozenset({"p0", "p1"}),
            transitions=(Transition("a", "a"), Transition("b", "b")),
            arcs=frozenset({("p0", "a"), ("p0", "b"), ("a", "p1"), ("b", "p1")}),
            initial_marking=Marking(["p0"]),
            final_marking=Marking(["p1"]),
        )
        points = decision_points(net)
        assert len(points) == 1
        assert points[0].place == "p0"
        assert {t.id for t in points[0].transitions} == {"a", "b"}

    def test_complete_against_arc_counts(self, dejure):
        out_counts = {}
        for source, _ in dejure.arcs:
            if source in dejure.places:
                out_counts[source] = out_counts.get(source, 0) + 1
        expected = {p for p, n in out_counts.items() if n >= 2}
        assert {dp.place for dp in decision_points(dejure)} == expected


class TestDejureReplays:
    def test_paper_patient_with_death(self, dejure):
        assert align(dejure, ("Visit before CO", "HF", "Death_HF")).total_cost == 0

    def test_paper_patient_single_visit(self, dejure):
        alignment = align(dejure, ("Visit before CO",))
        assert alignment.total_cost == 0
        silent = [m.transition for m in alignment.moves if m.kind == "silent"]
        assert silent == ["end_record", "end_without_death"]

    def test_recurrent_outcomes_replay(self, dejure):
        trace = (
            "Visit before CO",
            "HF",
            "Visit after CO",
            "Visit after CO",
            "CV",
            "Death_AnyCause",
        )
        assert align(dejure, trace).total_cost == 0


class TestCompiledNet:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 2), max_size=40))
    def test_agrees_with_reference_semantics(self, seed, counts):
        net = random_workflow_net(random.Random(seed), max_transitions=12)
        reference = ReferenceSemantics(net)
        compiled = CompiledNet(net)
        places = sorted(net.places)
        marking = Marking(dict(zip(places, counts)))
        assert compiled.counts(marking) == tuple(marking[p] for p in places)
        ids = enabled_ids(compiled, compiled.counts(marking))
        assert ids == [t.id for t in reference.enabled(marking)]
        for tid in ids:
            fired = compiled.fire(compiled.counts(marking), compiled.index[tid])
            assert fired == compiled.counts(reference.fire(marking, tid))

    def test_agrees_along_random_walks(self):
        rng = random.Random(31)
        for _ in range(40):
            net = random_workflow_net(rng, max_transitions=12)
            reference = ReferenceSemantics(net)
            compiled = CompiledNet(net)
            marking, counts = net.initial_marking, compiled.initial
            for _ in range(30):
                expected = reference.enabled(marking)
                assert [net.transitions[t] for t in compiled.enabled(counts)] == expected
                if not expected:
                    break
                chosen = rng.choice(expected)
                marking = reference.fire(marking, chosen.id)
                counts = compiled.fire(counts, compiled.index[chosen.id])
                assert counts == compiled.counts(marking)

    def test_transition_without_inputs_is_always_enabled(self):
        # the alpha miner leaves such transitions for unpreceded self-loops
        net = PetriNet(
            places=frozenset({"p0", "p1"}),
            transitions=(Transition("a", "a"), Transition("gen", "g"), Transition("b", "b")),
            arcs=frozenset({("p0", "a"), ("a", "p1"), ("gen", "p1"), ("p1", "b"), ("b", "p0")}),
            initial_marking=Marking(["p0"]),
            final_marking=Marking(["p1"]),
        )
        reference = ReferenceSemantics(net)
        compiled = CompiledNet(net)
        for marking in (Marking(), Marking(["p0"]), Marking(["p1", "p1"])):
            ids = enabled_ids(compiled, compiled.counts(marking))
            assert ids == [t.id for t in reference.enabled(marking)]
            assert "gen" in ids
        fired = compiled.fire(compiled.counts(Marking()), compiled.index["gen"])
        assert fired == compiled.counts(Marking(["p1"]))

    def test_marking_with_unknown_place_is_rejected(self):
        with pytest.raises(InputError, match="unknown place"):
            CompiledNet(linear_net()).counts(Marking(["nowhere"]))


def test_nets_differing_only_in_transition_order_or_name_are_equal():
    net = linear_net()
    reordered = PetriNet(net.places, net.transitions[::-1], net.arcs, net.initial_marking,
                         net.final_marking, name="other")
    assert net == reordered and not net != reordered
    assert hash(net) == hash(reordered)
    assert net != PetriNet(net.places, net.transitions, net.arcs, net.initial_marking,
                           Marking(["p1"]))
    with pytest.raises(AttributeError):
        net.name = "renamed"


def test_a_transition_hashes_as_its_field_tuple():
    # as a frozen dataclass did, so sets of transitions keep their order
    assert hash(Transition("a", "b")) == hash(("a", "b"))
    assert repr(Transition("t")) == "Transition(id='t', label=None)"
