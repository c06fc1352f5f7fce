"""Improving-response dynamics with cycle detection.

Whether these dynamics converge is an open question in this model, so a
trace is data, not a guarantee: an Equilibrium outcome is certified by the
concept checker, a revisited network is reported as a cycle, and running
out of steps (or of checker budget) is reported as such, never silently.

Each step is one checker search (``stability._run_checker``), whatever
the policy, and no move is priced twice. A best-response search for bne
or bse prices only the moves that could beat the best found so far.

Cycle detection compares canonical sorted edge lists exactly; no lossy
hashing, so collisions are impossible.
"""

from dataclasses import dataclass

from .engine import CostEngine
from .errors import InconclusiveSearch, LabInputError
from .model import Instance, Network
from .scalars import parse_int
from .stability import _run_checker, apply_move, require_concept

FIRST_FOUND = "first-found"
BEST_RESPONSE = "best-response"
POLICIES = (FIRST_FOUND, BEST_RESPONSE)

EQUILIBRIUM = "equilibrium"
CYCLE = "cycle"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class Trace:
    initial: Network
    final: Network
    steps: tuple  # ((move, social cost after the move), ...)
    outcome: str
    cycle_start: int = None
    cycle_period: int = None
    note: str = None


def find_improving_move(
    inst: Instance,
    net: Network,
    concept: str,
    policy: str = FIRST_FOUND,
    budget=None,
):
    """One improving move per the policy, or None when the checker proves
    stability. Raises InconclusiveSearch when the budget runs out first.

    Both policies read the checker's verdict (``stability._run_checker``):
    first-found takes its witness, the first improving move in canonical
    order; best-response the first of the moves with the largest total
    strict improvement of the coalition, as priced by the search itself.
    """
    require_concept(concept)
    if policy not in POLICIES:
        raise LabInputError(f"unknown policy {policy!r}; know {POLICIES}")
    verdict = _run_checker(
        inst, net, concept, budget, CostEngine(inst), largest_gain=policy == BEST_RESPONSE
    )
    if verdict.inconclusive:
        raise InconclusiveSearch(verdict.frontier)
    return verdict.witness


def run_dynamics(
    inst: Instance,
    start: Network,
    concept: str,
    policy: str = FIRST_FOUND,
    max_steps: int = 100,
    budget=None,
) -> Trace:
    """Iterate improving moves until equilibrium, a revisit, or exhaustion.

    Each step takes the move ``find_improving_move`` finds. Moves found by
    the built-in policies strictly improve their coalitions by
    construction, so every recorded step replays as a valid improving
    move. Each step's search builds its own engine.
    """
    parse_int(max_steps, "max_steps", least=0)
    engine = CostEngine(inst)
    seen = {start.edges: 0}
    net = start
    steps = []
    outcome = note = cycle_start = None
    while outcome is None:
        try:
            move = find_improving_move(inst, net, concept, policy, budget=budget)
        except InconclusiveSearch as stop:
            outcome, note = BUDGET_EXHAUSTED, f"checker budget: {stop.frontier}"
            continue
        if move is None:
            outcome = EQUILIBRIUM
        elif len(steps) == max_steps:
            outcome = BUDGET_EXHAUSTED
            note = f"{max_steps} steps exhausted with moves remaining"
        else:
            net = apply_move(net, move)
            steps.append((move, engine.to_cost(engine.social_cost(net.edges))))
            if net.edges in seen:
                outcome, cycle_start = CYCLE, seen[net.edges]
            seen[net.edges] = len(steps)
    return Trace(
        initial=start,
        final=net,
        steps=tuple(steps),
        outcome=outcome,
        cycle_start=cycle_start,
        cycle_period=None if cycle_start is None else len(steps) - cycle_start,
        note=note,
    )
