"""AlphaSyndrome core: schedule evaluation and MCTS-based synthesis."""

from repro.core.alphasyndrome import AlphaSyndrome, SynthesisResult
from repro.core.evaluator import ScheduleEvaluator
from repro.core.mcts import MCTSConfig, MCTSNode, PartitionMCTS

__all__ = [
    "AlphaSyndrome",
    "SynthesisResult",
    "ScheduleEvaluator",
    "MCTSConfig",
    "MCTSNode",
    "PartitionMCTS",
]
