"""Deterministic chaos engineering for the Gesall reproduction.

The frozen plan vocabulary: :class:`FaultPlan` plus every event class
in :data:`repro.chaos.plan.EVENT_TYPES` — the exports are computed from
that table, so a new event is exported by declaring it.  The layers
that apply the events (driver, engine, pool, ``repro.io``, job server)
import :mod:`repro.chaos.plan` themselves; the end-to-end drill is the
``repro-genomics chaos`` subcommand.
"""

from repro.chaos.plan import EVENT_TYPES, FaultPlan

globals().update({cls.__name__: cls for cls in EVENT_TYPES})

__all__ = ["FaultPlan", *sorted(cls.__name__ for cls in EVENT_TYPES)]
