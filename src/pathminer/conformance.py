"""Alignment-based conformance checking.

Alignments pair a trace with a model execution under the standard cost
function: synchronous and silent moves are free, log moves and visible
model moves cost one each. The search is uniform-cost best-first over the
synchronous product of the trace and a :class:`~pathminer.petri.CompiledNet`
(count-tuple markings, indexed presets).

:func:`conformance_report` compiles the net once and aligns each variant of
the log once; fitness, precision and generalization all read those
alignments, walking each variant once with its number of cases as weight.

Metric conventions, fixed here so results are deterministic:

- fitness(net, log) = 1 - sum(optimal cost) / sum(|trace| + M) where M is
  the cost of the cheapest model-only path from the initial to the final
  marking (the alignment of the empty trace).
- precision is escaping-edges style over aligned visible prefixes: at each
  prefix state, the visible transitions enabled (after saturating silent
  moves) but never observed as the next visible step count as escaping.
- generalization = 1 - mean over visible transitions of 1/sqrt(executions),
  where transitions never executed contribute 1.
- simplicity = 1 / (1 + max(0, mean node degree - 2)).
- f1 = harmonic mean of fitness and precision.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

from .errors import InputError, ModelError, ResourceError
from .model import Event, EventLog
from .petri import CompiledNet, PetriNet

SYNC = "synchronous"
LOG = "log"
MODEL = "model"
SILENT = "silent"

DEFAULT_CAP = 1_000_000

_NO_RUN = "the net has no run from its initial marking to its final marking"


@dataclass(frozen=True)
class Move:
    kind: str
    activity: str | None = None
    transition: str | None = None

    @property
    def cost(self) -> int:
        return 0 if self.kind in (SYNC, SILENT) else 1


@dataclass(frozen=True)
class Alignment:
    moves: tuple[Move, ...]
    total_cost: int

    def log_projection(self) -> tuple[str, ...]:
        return tuple(
            m.activity for m in self.moves if m.kind in (SYNC, LOG)
        )

    def model_projection(self) -> tuple[str, ...]:
        """Ids of transitions fired in the model, silents included."""
        return tuple(
            m.transition for m in self.moves if m.kind in (SYNC, MODEL, SILENT)
        )

    def visible_model_projection(self) -> tuple[str, ...]:
        return tuple(
            m.transition for m in self.moves if m.kind in (SYNC, MODEL)
        )


def _as_labels(trace) -> tuple[str, ...]:
    return tuple(e.activity if isinstance(e, Event) else str(e) for e in trace)


def align(net: PetriNet | CompiledNet, trace, *, cap: int = DEFAULT_CAP) -> Alignment:
    """Compute a minimal-cost alignment of ``trace`` against ``net``.

    ``net`` may be a :class:`CompiledNet`, so that a caller aligning many
    traces compiles the net once. Log moves can always use up the trace, so
    the search fails only when the net has no run from its initial to its
    final marking: that raises :class:`ModelError`. More than ``cap``
    expanded search states raise :class:`ResourceError`; a negative ``cap``
    raises :class:`InputError`.
    """
    if cap < 0:
        raise InputError(f"state-space cap must be at least 0, got {cap}")
    compiled = CompiledNet.of(net)
    labels = _as_labels(trace)
    # A place that no transition consumes from never loses a token, so a
    # marking with more tokens there than the final marking is dead: it lies
    # on no path to the goal and is dropped as soon as it is generated.
    sinks = [(p, compiled.final[p]) for p, ts in enumerate(compiled.consumers) if not ts]

    def dead(marking: tuple) -> bool:
        return any(marking[p] > limit for p, limit in sinks)

    if dead(compiled.initial):
        raise ModelError(_NO_RUN)

    model_moves = []
    sync_moves = []
    for t in compiled.transitions:
        if t.silent:
            model_moves.append(Move(SILENT, transition=t.id))
            sync_moves.append(None)
        else:
            model_moves.append(Move(MODEL, activity=t.label, transition=t.id))
            sync_moves.append(Move(SYNC, activity=t.label, transition=t.id))
    log_moves = [Move(LOG, activity=label) for label in labels]
    transition_labels = [t.label for t in compiled.transitions]

    n = len(labels)
    start = (compiled.initial, 0)
    goal = (compiled.final, n)
    best: dict[tuple, int] = {start: 0}
    parent: dict[tuple, tuple[tuple, Move]] = {}
    tie = itertools.count()
    heap = [(0, next(tie), compiled.initial, 0)]
    # Successors of each marking, shared by the states at every trace position.
    successors: dict[tuple, tuple] = {}
    expanded = 0

    def push(state, g: int, next_marking: tuple, next_pos: int, move: Move):
        next_state = (next_marking, next_pos)
        if g < best.get(next_state, math.inf):
            best[next_state] = g
            parent[next_state] = (state, move)
            heapq.heappush(heap, (g, next(tie), next_marking, next_pos))

    while heap:
        g, _, marking, pos = heapq.heappop(heap)
        state = (marking, pos)
        if g > best[state]:
            continue
        if state == goal:
            moves: list[Move] = []
            cursor = state
            while cursor != start:
                cursor, move = parent[cursor]
                moves.append(move)
            moves.reverse()
            return Alignment(tuple(moves), g)
        expanded += 1
        if expanded > cap:
            raise ResourceError(cap)

        steps = successors.get(marking)
        if steps is None:
            steps = tuple(
                (t, fired) for t in compiled.enabled(marking)
                if not dead(fired := compiled.fire(marking, t))
            )
            successors[marking] = steps
        label = labels[pos] if pos < n else None
        for t, fired in steps:
            if transition_labels[t] is None:
                push(state, g, fired, pos, model_moves[t])
            else:
                if transition_labels[t] == label:
                    push(state, g, fired, pos + 1, sync_moves[t])
                push(state, g + 1, fired, pos, model_moves[t])
        if pos < n:
            push(state, g + 1, marking, pos + 1, log_moves[pos])

    raise ModelError(_NO_RUN)


def align_log(
    net: PetriNet | CompiledNet, log: EventLog, *, cap: int = DEFAULT_CAP
) -> dict[str, Alignment]:
    """Align every trace of ``log``, reusing results across equal variants.

    The net is compiled once for the whole log. A :class:`ResourceError`
    names the first case of the variant that exceeded ``cap``.
    """
    compiled = CompiledNet.of(net)
    cache: dict[tuple[str, ...], Alignment] = {}
    out: dict[str, Alignment] = {}
    for case, trace in log.traces().items():
        labels = _as_labels(trace)
        if labels not in cache:
            try:
                cache[labels] = align(compiled, labels, cap=cap)
            except ResourceError as err:
                raise ResourceError(
                    err.cap, f"{err} aligning case {case!r} (a variant of {len(labels)} events)"
                ) from None
        out[case] = cache[labels]
    return out


def model_path_cost(net: PetriNet | CompiledNet, *, cap: int = DEFAULT_CAP) -> int:
    """Cost of the cheapest model-only run (the empty-trace alignment)."""
    return align(net, (), cap=cap).total_cost


def _weighted(alignments: dict[str, Alignment]) -> list[tuple[Alignment, int]]:
    """Each distinct alignment object with the number of cases that share it.

    :func:`align_log` hands one object to every case of a variant, so the
    metrics below, which only add up integers over cases, walk each variant
    once.
    """
    by_id: dict[int, list] = {}
    for alignment in alignments.values():
        by_id.setdefault(id(alignment), [alignment, 0])[1] += 1
    return [(alignment, cases) for alignment, cases in by_id.values()]


def _fitness(weighted: list[tuple[Alignment, int]], worst_model: int) -> float:
    total_cost = sum(a.total_cost * cases for a, cases in weighted)
    total_worst = sum((len(a.log_projection()) + worst_model) * cases for a, cases in weighted)
    if total_worst == 0:
        return 1.0
    return 1.0 - total_cost / total_worst


def fitness(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    if not log.events:
        return 1.0
    compiled = CompiledNet(net)
    worst_model = model_path_cost(compiled, cap=cap)
    alignments = align_log(compiled, log, cap=cap)
    return _fitness(_weighted(alignments), worst_model)


def _silent_closure_enabled(compiled: CompiledNet, marking: tuple, cache: dict) -> frozenset[int]:
    """Visible transitions fireable from ``marking`` after any run of silents."""
    cached = cache.get(marking)
    if cached is not None:
        return cached
    seen = {marking}
    frontier = [marking]
    visible: set[int] = set()
    while frontier:
        current = frontier.pop()
        for t in compiled.enabled(current):
            if compiled.silent[t]:
                nxt = compiled.fire(current, t)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
            else:
                visible.add(t)
    result = frozenset(visible)
    cache[marking] = result
    return result


def _precision(compiled: CompiledNet, weighted: list[tuple[Alignment, int]]) -> float:
    weight: dict[tuple, int] = {}
    observed: dict[tuple, set[int]] = {}
    markings_at: dict[tuple, set[tuple]] = {}

    for alignment, cases in weighted:
        marking = compiled.initial
        prefix: tuple[int, ...] = ()
        weight[prefix] = weight.get(prefix, 0) + cases
        markings_at.setdefault(prefix, set()).add(marking)
        for tid in alignment.model_projection():
            t = compiled.index[tid]
            marking = compiled.fire(marking, t)
            if compiled.silent[t]:
                continue
            observed.setdefault(prefix, set()).add(t)
            prefix = prefix + (t,)
            weight[prefix] = weight.get(prefix, 0) + cases
            markings_at.setdefault(prefix, set()).add(marking)

    closure_cache: dict = {}
    escaping_mass = 0
    enabled_mass = 0
    for prefix, w in weight.items():
        enabled: set[int] = set()
        for marking in markings_at[prefix]:
            enabled |= _silent_closure_enabled(compiled, marking, closure_cache)
        seen = observed.get(prefix, set())
        enabled_mass += w * len(enabled)
        escaping_mass += w * len(enabled - seen)
    if enabled_mass == 0:
        return 1.0
    return 1.0 - escaping_mass / enabled_mass


def precision(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    compiled = CompiledNet(net)
    alignments = align_log(compiled, log, cap=cap)
    return _precision(compiled, _weighted(alignments))


def _generalization(net: PetriNet, weighted: list[tuple[Alignment, int]]) -> float:
    visible = net.visible_transitions()
    if not visible:
        return 1.0
    counts = {t.id: 0 for t in visible}
    for alignment, cases in weighted:
        for tid in alignment.visible_model_projection():
            counts[tid] += cases
    penalty = sum(
        1.0 if c == 0 else 1.0 / math.sqrt(c) for c in counts.values()
    )
    return 1.0 - penalty / len(visible)


def generalization(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    if not net.visible_transitions():
        return 1.0
    return _generalization(net, _weighted(align_log(net, log, cap=cap)))


def simplicity(net: PetriNet) -> float:
    degree: dict[str, int] = {p: 0 for p in net.places}
    degree.update({t.id: 0 for t in net.transitions})
    for source, target in net.arcs:
        degree[source] += 1
        degree[target] += 1
    if not degree:
        return 1.0
    mean_degree = sum(degree.values()) / len(degree)
    return 1.0 / (1.0 + max(0.0, mean_degree - 2.0))


def f1(fitness_value: float, precision_value: float) -> float:
    if fitness_value + precision_value == 0:
        return 0.0
    return 2 * fitness_value * precision_value / (fitness_value + precision_value)


@dataclass(frozen=True)
class ConformanceReport:
    fitness: float
    precision: float
    generalization: float
    simplicity: float
    f1: float


def conformance_report(
    net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP
) -> ConformanceReport:
    """Evaluate the full metric suite of a model against a log.

    The net is compiled once and each variant aligned once; the metrics
    share those alignments, and the empty trace is aligned once more for
    fitness's model-only cost.
    """
    compiled = CompiledNet(net)
    worst_model = model_path_cost(compiled, cap=cap) if log.events else 0
    weighted = _weighted(align_log(compiled, log, cap=cap))
    fit = _fitness(weighted, worst_model)
    prec = _precision(compiled, weighted)
    gen = _generalization(net, weighted)
    return ConformanceReport(fit, prec, gen, simplicity(net), f1(fit, prec))
