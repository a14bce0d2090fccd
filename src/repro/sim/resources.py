"""Synchronisation primitives built on the simulation kernel."""

from collections import deque

from repro.sim.events import Event


class WaitQueue:
    """A FIFO queue of waiting processes, woken explicitly.

    This is the building block used for lock wait-lists and pipeline-step
    hand-offs: a coroutine calls ``yield from queue.wait()`` and is resumed
    when another coroutine calls :meth:`notify_all` (or :meth:`notify_one`).
    """

    __slots__ = ("env", "name", "_waiters")

    def __init__(self, env, name=""):
        self.env = env
        self.name = name
        self._waiters = deque()

    def __len__(self):
        return len(self._waiters)

    def wait(self):
        """Suspend the calling coroutine until notified."""
        event = Event(self.env, name=f"wait:{self.name}")
        self._waiters.append(event)
        value = yield event
        return value

    def notify_one(self, value=None):
        """Wake the oldest waiter, if any."""
        while self._waiters:
            event = self._waiters.popleft()
            if not event.triggered:
                event.succeed(value)
                return True
        return False

    def notify_all(self, value=None):
        """Wake every waiter."""
        count = 0
        while self.notify_one(value):
            count += 1
        return count

    def fail_all(self, exception):
        """Wake every waiter with an exception (used on force-abort)."""
        while self._waiters:
            event = self._waiters.popleft()
            if not event.triggered:
                event.fail(exception)


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

    def wait_for(self, predicate):
        """Wait (re-checking after each notification) until ``predicate()``."""
        while not predicate():
            yield from self.wait()

    def notify_all(self, value=None):
        """Wake every process currently waiting and reset the condition."""
        event, self._event = self._event, Event(self.env, name=f"cond:{self.name}")
        if not event.triggered:
            event.succeed(value)
