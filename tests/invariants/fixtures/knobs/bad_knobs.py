"""R7 bad fixture: reads a knob the Settings declaration never declared."""


def plan(self, settings):
    if settings.enable_fixture and settings.fixture_min_rowz > 10:  # flagged typo
        return "parallel"
    return settings.copy()  # declared method: fine


def threshold(settings):
    return settings.fixture_min_rows  # declared field, read: not a dead knob
