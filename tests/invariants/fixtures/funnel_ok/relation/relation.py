"""R1 clean fixture: protected writes, but inside the funnel of relation.py."""


class TemporalRelation:
    def __init__(self):
        self._tuples = []
        self._rowids = []

    def apply_effects(self, removals, inserts):
        self._apply_run(removals, [inserts])

    def _apply_run(self, positions, batches):
        self._tuples[positions[0]:] = batches
        self._after_mutation()

    def _after_mutation(self):
        self._derived_cache = {}
