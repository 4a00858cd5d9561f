"""Monte-Carlo Tree Search over syndrome-measurement schedules (Section 4).

The search constructs the schedule of one stabilizer *partition* (see
:mod:`repro.scheduling.partition`) incrementally.  A state is a partial
assignment of the partition's Pauli checks to ticks; a move appends one
unassigned check at its earliest non-conflicting tick (Section 4.3); a
terminal state is a complete partition schedule, which is scored by the
decoder-in-the-loop evaluator (Section 4.4) after being composed with the
schedules chosen for the other partitions.

The four MCTS phases (selection with UCT, expansion, random rollout,
backpropagation) follow Section 2.3, and the *continuous search* of Section
4.5 is implemented by re-rooting the tree at the chosen child and only
topping its visit count up to the per-step iteration budget.  Nodes keep no
parent pointer: backpropagation walks the path selection took, so a tree
is acyclic and the branches a re-root leaves behind are freed at once.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field

from repro.core.evaluator import ScheduleEvaluator
from repro.scheduling.schedule import PauliCheck, Schedule

__all__ = ["MCTSConfig", "MCTSNode", "PartitionMCTS"]

#: UCT's exploration constant ``c`` (Section 2.3).
EXPLORATION = math.sqrt(2.0)


@dataclass
class MCTSConfig:
    """Search hyper-parameters.

    ``iterations_per_step`` is the paper's ``#iters_per_step`` (4000-8000 at
    paper scale; laptop defaults are much smaller): after a re-root, a step
    runs ``max(iterations_per_step - root.visits, 1)`` rollouts (Section
    4.5); UCT's ``c`` is the module constant :data:`EXPLORATION`.
    ``rollout_batch`` collects that many leaves per round (diversified by a
    virtual-visit count on the selection path) and scores them in one
    :meth:`~repro.core.evaluator.ScheduleEvaluator.score_many` call, so a
    pool-backed evaluator spreads rollout scoring across cores;  ``1``
    reproduces the classic serial iteration exactly.  Anything but an
    integer >= 1 raises a one-line ``ValueError``.
    """

    iterations_per_step: int = 32
    seed: int = 0
    max_total_evaluations: int | None = None
    rollout_batch: int = 1

    def __post_init__(self) -> None:
        batch = self.rollout_batch
        if not isinstance(batch, numbers.Integral) or isinstance(batch, bool) or batch < 1:
            raise ValueError(f"rollout_batch must be an integer >= 1, got {batch!r}")


class MCTSNode:
    """One node of the search tree: a partial schedule of the partition."""

    __slots__ = ("schedule", "remaining", "children", "visits", "total_score", "move")

    def __init__(
        self,
        schedule: Schedule,
        remaining: tuple[PauliCheck, ...],
        move: PauliCheck | None = None,
    ) -> None:
        self.schedule = schedule
        self.remaining = remaining
        self.children: list[MCTSNode] = []
        self.visits = 0
        self.total_score = 0.0
        self.move = move

    # ------------------------------------------------------------------
    @property
    def is_terminal(self) -> bool:
        return not self.remaining

    @property
    def is_fully_expanded(self) -> bool:
        return len(self.children) == len(self.remaining)

    @property
    def expectation(self) -> float:
        return self.total_score / self.visits if self.visits else 0.0

    def uct(self, parent_visits: int) -> float:
        if self.visits == 0:
            return math.inf
        return self.expectation + EXPLORATION * math.sqrt(
            math.log(max(parent_visits, 1)) / self.visits
        )

    def child_for_move(self, move: PauliCheck) -> "MCTSNode":
        schedule = self.schedule.copy()
        schedule.assign(move, schedule.earliest_valid_tick(move))
        remaining = tuple(check for check in self.remaining if check != move)
        return MCTSNode(schedule, remaining, move=move)


@dataclass
class PartitionMCTS:
    """MCTS scheduler for one partition.

    ``compose`` maps a complete partition schedule to the full-code schedule
    that the evaluator can score (i.e. it splices in the schedules used for
    the other partitions); it is supplied by
    :class:`~repro.core.alphasyndrome.AlphaSyndrome`.
    """

    evaluator: ScheduleEvaluator
    checks: tuple[PauliCheck, ...]
    compose: "callable"
    config: MCTSConfig = field(default_factory=MCTSConfig)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.config.seed)
        self._evaluations = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def search(self) -> tuple[Schedule, list[PauliCheck]]:
        """Run the continuous search; returns (partition schedule, move sequence)."""
        root = MCTSNode(Schedule(self.evaluator.code), tuple(self.checks))
        moves: list[PauliCheck] = []
        while not root.is_terminal:
            remaining = max(self.config.iterations_per_step - root.visits, 1)
            while remaining > 0:
                requested = min(self.config.rollout_batch, remaining)
                completed = self._iterate_batch(root, requested)
                if completed == 0:
                    break
                remaining -= completed
                if completed < requested:
                    break
            best = self._best_child(root)
            moves.append(best.move)
            root = best
        return root.schedule, moves

    @property
    def evaluations_used(self) -> int:
        return self._evaluations

    # ------------------------------------------------------------------
    # The four MCTS phases (selection/expansion/rollout collected per batch,
    # evaluation dispatched through the evaluator's batch API, then one
    # backpropagation pass per leaf)
    # ------------------------------------------------------------------
    def _iterate_batch(self, root: MCTSNode, count: int) -> int:
        """Collect up to ``count`` leaves, score them as one batch, backpropagate.

        Visits are incremented along each selection path as soon as the leaf
        is collected (a virtual-visit count), so later selections within the
        same batch are steered away from already-pending leaves; scores are
        added after the whole batch is evaluated.  With ``count == 1`` the
        visit/score updates collapse to the classic single-iteration MCTS,
        consuming the RNG in exactly the same order.

        Returns how many rollouts actually ran (less than ``count`` when
        ``max_total_evaluations`` cut the batch short).
        """
        pending: list[tuple[list[MCTSNode], Schedule]] = []
        for _ in range(count):
            if self._budget_exhausted(len(pending)):
                break
            path = self._select(root)
            expanded = self._expand(path[-1])
            if expanded is not path[-1]:
                path.append(expanded)
            candidate = self._rollout(expanded)
            for node in path:
                node.visits += 1
            pending.append((path, candidate))
        if not pending:
            return 0
        scores = self.evaluator.score_many([candidate for _, candidate in pending])
        self._evaluations += len(pending)
        for (path, _), score in zip(pending, scores):
            for node in path:
                node.total_score += score
        return len(pending)

    def _select(self, root: MCTSNode) -> "list[MCTSNode]":
        """The UCT path from ``root`` down to the node to expand."""
        path = [root]
        current = root
        while not current.is_terminal and current.is_fully_expanded and current.children:
            parent_visits = current.visits
            current = max(
                current.children, key=lambda child: child.uct(parent_visits)
            )
            path.append(current)
        return path

    def _expand(self, node: MCTSNode) -> MCTSNode:
        if node.is_terminal:
            return node
        tried = {child.move for child in node.children}
        untried = [check for check in node.remaining if check not in tried]
        move = self._rng.choice(untried)
        child = node.child_for_move(move)
        node.children.append(child)
        return child

    def _rollout(self, node: MCTSNode) -> Schedule:
        """Randomly complete ``node``'s partial schedule and compose it for scoring."""
        schedule = node.schedule.copy()
        remaining = list(node.remaining)
        self._rng.shuffle(remaining)
        for check in remaining:
            schedule.assign(check, schedule.earliest_valid_tick(check))
        return self.compose(schedule)

    # ------------------------------------------------------------------
    def _best_child(self, node: MCTSNode) -> MCTSNode:
        if not node.children:
            # Budget exhausted before expansion: fall back to a random move.
            move = self._rng.choice(list(node.remaining))
            child = node.child_for_move(move)
            node.children.append(child)
            return child
        return max(node.children, key=lambda child: child.expectation)

    def _budget_exhausted(self, pending: int = 0) -> bool:
        limit = self.config.max_total_evaluations
        return limit is not None and self._evaluations + pending >= limit
