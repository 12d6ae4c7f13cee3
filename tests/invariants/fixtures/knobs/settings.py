"""R7 fixture Settings declaration (stands in for the optimizer's)."""

from dataclasses import dataclass


@dataclass
class Settings:
    enable_fixture: bool = True
    fixture_min_rows: int = 100
    fixture_unread: bool = False  # flagged: no module reads it

    def copy(self):
        return Settings(self.enable_fixture, self.fixture_min_rows)
