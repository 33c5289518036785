"""Alignment-based conformance checking.

Alignments pair a trace with a model execution under the standard cost
function: synchronous and silent moves are free, log moves and visible
model moves cost one each. The search is uniform-cost best-first over the
synchronous product of the trace and a :class:`~pathminer.petri.CompiledNet`
(count-tuple markings, indexed presets).

:func:`conformance_report` is the one metric path. It compiles the net once,
aligns each variant of the log once, and walks each variant's model run once
with its number of cases as weight. :func:`fitness`, :func:`precision` and
:func:`generalization` each read one field of that report.

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
from collections import Counter
from typing import NamedTuple

from .errors import DEFAULT_CAP, InputError, ModelError, ResourceError
from .model import Event, EventLog
from .petri import CompiledNet, PetriNet

SYNC = "synchronous"
LOG = "log"
MODEL = "model"
SILENT = "silent"

_NO_RUN = "the net has no run from its initial marking to its final marking"


class Move(NamedTuple):
    kind: str
    activity: str | None = None
    transition: str | None = None

    @property
    def cost(self) -> int:
        return 0 if self.kind in (SYNC, SILENT) else 1


class Alignment(NamedTuple):
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


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise InputError(f"state-space cap must be at least 0, got {cap}")


def align(net: PetriNet | CompiledNet, trace, *, cap: int = DEFAULT_CAP) -> Alignment:
    """Compute a minimal-cost alignment of ``trace`` against ``net``.

    ``net`` may be a :class:`CompiledNet`, so that a caller aligning many
    traces compiles the net once. Log moves can always use up the trace, so
    the search fails only when the net has no run from its initial to its
    final marking: that raises :class:`ModelError`. More than ``cap``
    expanded search states raise :class:`ResourceError`; a negative ``cap``
    raises :class:`InputError`.
    """
    _check_cap(cap)
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
    try:
        return align(net, (), cap=cap).total_cost
    except ResourceError as err:
        raise ResourceError(err.cap, f"{err} aligning the empty trace (the model-only run)") from None


def _silent_closure_enabled(compiled: CompiledNet, marking: tuple, cache: dict,
                            cap: int = DEFAULT_CAP) -> frozenset[int]:
    """Visible transitions fireable from ``marking`` after any run of silents.

    Silent runs can reach unboundedly many markings, so more than ``cap`` of
    them raise :class:`ResourceError`.
    """
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
                    if len(seen) > cap:
                        raise ResourceError(cap, f"state-space cap of {cap} markings exceeded "
                                                 "by the silent runs after a prefix (precision)")
            else:
                visible.add(t)
    result = frozenset(visible)
    cache[marking] = result
    return result


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


class ConformanceReport(NamedTuple):
    fitness: float
    precision: float
    generalization: float
    simplicity: float
    f1: float


def conformance_report(
    net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP
) -> ConformanceReport:
    """Evaluate the full metric suite of a model against a log.

    The net is compiled once and each variant aligned once, and the empty
    trace once more for fitness's model-only cost. One walk over each
    variant's model run, weighted by its number of cases, gathers what
    fitness, precision and generalization need.
    """
    _check_cap(cap)
    compiled = CompiledNet(net)
    worst_model = model_path_cost(compiled, cap=cap) if log.events else 0
    total_cost = total_worst = 0
    # Per visible prefix (a tuple of transition indices): the cases through
    # it, the visible steps taken after it and the markings it reaches.
    weight: dict[tuple[int, ...], int] = {}
    observed: dict[tuple[int, ...], set[int]] = {}
    markings_at: dict[tuple[int, ...], set[tuple]] = {}
    executions = [0] * len(compiled.transitions)
    # The cases of a variant share one Alignment, and two variants' alignments
    # differ in their log projection: equal alignments are one variant.
    for alignment, cases in Counter(align_log(compiled, log, cap=cap).values()).items():
        total_cost += alignment.total_cost * cases
        total_worst += (len(alignment.log_projection()) + worst_model) * cases
        marking = compiled.initial
        prefix: tuple[int, ...] = ()
        weight[prefix] = weight.get(prefix, 0) + cases
        markings_at.setdefault(prefix, set()).add(marking)
        for tid in alignment.model_projection():
            t = compiled.index[tid]
            marking = compiled.fire(marking, t)
            if compiled.silent[t]:
                continue
            executions[t] += cases
            observed.setdefault(prefix, set()).add(t)
            prefix += (t,)
            weight[prefix] = weight.get(prefix, 0) + cases
            markings_at.setdefault(prefix, set()).add(marking)

    fit = 1.0 - total_cost / total_worst if total_worst else 1.0

    closure_cache: dict = {}
    escaping_mass = enabled_mass = 0
    for prefix, w in weight.items():
        enabled: set[int] = set()
        for marking in markings_at[prefix]:
            enabled |= _silent_closure_enabled(compiled, marking, closure_cache, cap)
        enabled_mass += w * len(enabled)
        escaping_mass += w * len(enabled - observed.get(prefix, set()))
    prec = 1.0 - escaping_mass / enabled_mass if enabled_mass else 1.0

    visible = [t for t, silent in enumerate(compiled.silent) if not silent]
    penalty = sum(
        1.0 if executions[t] == 0 else 1.0 / math.sqrt(executions[t]) for t in visible
    )
    gen = 1.0 - penalty / len(visible) if visible else 1.0
    return ConformanceReport(fit, prec, gen, simplicity(net), f1(fit, prec))


def fitness(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    return conformance_report(net, log, cap=cap).fitness


def precision(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    return conformance_report(net, log, cap=cap).precision


def generalization(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    return conformance_report(net, log, cap=cap).generalization
