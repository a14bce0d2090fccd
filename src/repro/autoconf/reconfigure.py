"""Testing-stage reconfiguration driver (Section 5.5).

Wraps the engine's two reconfiguration protocols — the partial restart and
the online update — and times each, which is the data behind Figure 5.19.
"""

from dataclasses import dataclass


@dataclass
class ReconfigurationOutcome:
    """When one reconfiguration started and finished."""

    started_at: float
    finished_at: float

    @property
    def duration(self):
        return self.finished_at - self.started_at


class ReconfigurationDriver:
    """Switches a live engine between configurations and times the switch."""

    def __init__(self, engine):
        self.engine = engine

    def switch(self, new_configuration, protocol="online", force_abort_after=None):
        """Coroutine: apply ``new_configuration`` using the chosen protocol."""
        env = self.engine.env
        started = env.now
        if protocol == "partial-restart":
            yield from self.engine.reconfigure_partial_restart(
                new_configuration, force_abort_after=force_abort_after
            )
        elif protocol == "online":
            yield from self.engine.reconfigure_online(new_configuration)
        else:
            raise ValueError(f"unknown reconfiguration protocol {protocol!r}")
        return ReconfigurationOutcome(started_at=started, finished_at=env.now)
