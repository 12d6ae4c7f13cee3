"""Time domain and interval support for the temporal alignment reproduction.

The paper (Sec. 3.1) assumes a linearly ordered, discrete time domain and
represents a time interval as a half-open pair ``[Ts, Te)`` where ``Ts`` is
the inclusive start point and ``Te`` the exclusive end point.  This package
provides:

* :class:`~repro.temporal.interval.Interval` — immutable half-open interval
  over integer time points with the operations the primitives need
  (intersection, coverage, duration, adjacency, splitting).
* :mod:`~repro.temporal.timeline` — helpers mapping calendar-like labels
  (``"2012/3"`` or ISO dates) onto the discrete integer domain, so examples
  can be written in the paper's notation.
"""

from repro.temporal.interval import EMPTY_INTERVAL, Interval, coalesce, duration, overlaps
from repro.temporal.timeline import (
    DayTimeline,
    MonthTimeline,
    Timeline,
    month_interval,
    parse_month,
)

__all__ = [
    "Interval",
    "EMPTY_INTERVAL",
    "overlaps",
    "duration",
    "coalesce",
    "Timeline",
    "MonthTimeline",
    "DayTimeline",
    "month_interval",
    "parse_month",
]
