"""Synchronisation primitives built on the simulation kernel."""

from repro.sim.events import Event


class Condition:
    """Broadcast condition variable: wait until the next notification."""

    __slots__ = ("env", "name", "_event")

    def __init__(self, env, name=""):
        self.env = env
        self.name = name
        self._event = Event(env, name=f"cond:{name}")

    def wait(self):
        """Wait for the next :meth:`notify_all` call."""
        event = self._event
        yield event
        return event.value

    def notify_all(self, value=None):
        """Wake every process currently waiting and reset the condition."""
        event, self._event = self._event, Event(self.env, name=f"cond:{self.name}")
        if not event.triggered:
            event.succeed(value)
