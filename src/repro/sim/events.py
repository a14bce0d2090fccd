"""Events for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronisation object.  Processes yield an
event to suspend until the event is triggered; the value (or exception)
passed when triggering is delivered to every waiting process.

A process's timed sleep is a bare run-queue entry, not an event; every other
wait (a finish, a wake, a deadline) allocates one, so the class is
deliberately lean: ``__slots__``, no precomputed display names, and the hot
state (``_value``/``_is_error``/``_processed``) is read directly by the
scheduler instead of through properties.

:class:`Condition`, the one synchronisation primitive the engine and the CC
mechanisms build on events, lives here too.
"""

from heapq import heappush

from repro.errors import SimulationError

_PENDING = object()


class Event:
    """A one-shot event that processes can wait on.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail` triggers
    the event exactly once; afterwards the environment resumes every process
    that yielded it.  Triggering twice is an error.
    """

    __slots__ = ("env", "name", "callbacks", "_value", "_is_error", "_processed")

    def __init__(self, env, name=""):
        self.env = env
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._is_error = False
        self._processed = False

    @property
    def triggered(self):
        """True once succeed() or fail() has been called."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event was triggered with a value (not an exception)."""
        return self.triggered and not self._is_error

    @property
    def value(self):
        if self._value is _PENDING:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    def succeed(self, value=None):
        """Trigger the event with ``value``; wakes all waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._value = value
        self._is_error = False
        self.env._schedule_event(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception that is raised in waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception")
        self._value = exception
        self._is_error = True
        self.env._schedule_event(self)
        return self

    def __repr__(self):
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ and scheduling — one per deadline a wait
        # arms (a plain delay is a yielded float, not a Timeout).
        self.env = env
        self.name = "timeout"
        self.callbacks = []
        self._value = value
        self._is_error = False
        self._processed = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, next(env._seq), self))

    @property
    def triggered(self):
        # A timeout is conceptually triggered from creation; the environment
        # controls when callbacks run.
        return True

    def cancel(self):
        """Withdraw a timeout that has not fired: it never will.

        For the owner of a deadline that lost its race; never inferred from
        an empty callback list (wait loops reuse one deadline).  The run
        loop skips the entry without advancing the clock.  A no-op once
        fired or cancelled.  Subscribers are dropped and never resume, and
        waiting on a cancelled timeout is unsupported.
        """
        if not self._processed and self.callbacks is not None:
            self.callbacks = None
            self.env._note_cancelled()

    def __repr__(self):
        state = "processed" if self._processed else "scheduled"
        return f"<Timeout({self.delay}) {state}>"


class AnyOf(Event):
    """Event that triggers when the first of its source events triggers.

    Succeeds with ``(index, value)`` of the first event to fire, or fails
    with its exception.  The combined event registers *itself* as the
    callback on every source (no closures), and detaches from the remaining
    unfired events once resolved — so repeatedly waiting on a long-lived
    event (a transaction ``finish_event``, a ``Condition``'s current event)
    does not accumulate dead callbacks.
    """

    __slots__ = ("events",)

    def __init__(self, env, events, name="any_of"):
        # Inlined Event.__init__ (hot path: one AnyOf per blocking wait).
        self.env = env
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._is_error = False
        self._processed = False
        self.events = events
        for index, event in enumerate(events):
            if event._processed:
                # Already fired and dispatched: resolve immediately.
                if event._is_error:
                    self.fail(event._value)
                else:
                    self.succeed((index, event._value))
                break
            event.callbacks.append(self)
        if self._value is not _PENDING:
            self._detach()

    def _detach(self):
        for event in self.events:
            try:
                event.callbacks.remove(self)
            except (ValueError, AttributeError):  # fired, or cancelled
                pass

    def __call__(self, event):
        if self._value is not _PENDING:
            return
        if event._is_error:
            self.fail(event._value)
        else:
            self.succeed((self.events.index(event), event._value))
        self._detach()


def any_of(env, events, name="any_of"):
    """Return an event that triggers when the first of ``events`` triggers.

    See :class:`AnyOf`; used for lock waits with deadlock timeouts.
    """
    return AnyOf(env, events, name=name)


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
        """Wake every process currently waiting, if any, and reset the condition."""
        event = self._event
        if event.callbacks:
            self._event = Event(self.env, name=f"cond:{self.name}")
            event.succeed(value)
