"""R1 bad fixture: a second method of relation.py writes the rows."""


class TemporalRelation:
    def _apply_run(self, positions, batches):
        self._tuples[positions[0]:] = batches  # the one writer
        self._after_mutation()

    def apply_effects(self, removals, inserts):
        self._tuples = [t for t in self._tuples if t not in removals]  # a second writer
        self._after_mutation()

    def _after_mutation(self):
        self._derived_cache = {}
