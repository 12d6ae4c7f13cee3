"""Query optimizer: settings, the rule-based planner and the cost model behind EXPLAIN."""

from repro.engine.optimizer.planner import Planner
from repro.engine.optimizer.settings import Settings

__all__ = ["Planner", "Settings"]
