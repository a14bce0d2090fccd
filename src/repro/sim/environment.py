"""The discrete-event simulation environment and process machinery."""

from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from itertools import count
from weakref import proxy

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event, Timeout


class Process(Event):
    """A running process: wraps a generator and is itself an Event.

    The generator yields an :class:`Event` to wait for it, or a bare
    non-negative ``float`` to sleep that many virtual seconds: a sleep puts
    the process's own resume on the run queue, with no event, callbacks list
    or subscription.  The process event triggers when the generator returns
    (with the return value) or raises (with the exception), so processes can
    wait for each other with ``yield other_process``.

    The process holds its environment weakly (the run queue holds every
    sleeper, so a strong edge back would make each one a cycle); a resume
    is handed the environment by whoever calls it.
    """

    __slots__ = ("generator", "_target")

    def __init__(self, env, generator, name=""):
        super().__init__(proxy(env), name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._target = None
        # Kick off the process at the current simulation time.
        env._schedule_callback(self._resume)

    def _subscribe(self, event):
        self._target = event
        if event._processed:
            # The event already fired; resume on the next scheduler step.
            self.env._schedule_callback(lambda env: self(event))
        else:
            # The process object is its own callback (no closure per resume).
            event.callbacks.append(self)

    def __call__(self, event):
        # The process object is the callback registered on its target event.
        if self._value is not _PENDING or event is not self._target:
            # Stale wake-up from an event we are no longer waiting on.
            return
        self._target = None
        self._resume(event.env, event._value, event._is_error)

    def _resume(self, env, value=None, is_error=False):
        """Run the generator to its next yield.  The run loop calls it with
        itself for the first step and at the end of a sleep."""
        try:
            if is_error:
                yielded = self.generator.throw(value)
            else:
                yielded = self.generator.send(value)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._finish(exception=exc)
            return
        if isinstance(yielded, float):
            if yielded >= 0.0:
                # The (time, seq) key a Timeout built at the yield would
                # take; the bound method is made afresh, never kept.
                _heappush(env._queue, (env._now + yielded, next(env._seq), self._resume))
            else:
                # Raised at the yield, where a negative Timeout raises.
                self._resume(env, SimulationError(f"negative sleep: {yielded}"), True)
        elif isinstance(yielded, Event):
            self._subscribe(yielded)
        else:
            self._finish(
                exception=SimulationError(
                    f"process {self.name!r} yielded {yielded!r}, not an Event or a float"
                )
            )

    def _finish(self, value=None, exception=None):
        self.generator.close()
        if exception is not None:
            if not self.callbacks:
                # Nobody is waiting for this process: re-raise so bugs in the
                # engine do not pass silently.
                raise exception
            self.fail(exception)
        else:
            self.succeed(value)


class Environment:
    """Priority-queue based discrete-event simulation environment.

    The run queue holds :class:`Event` objects, whose callbacks run when
    dispatched, and bare callables, called with the environment: a
    process's first step, its timed wake (it yielded a ``float``) and its
    resume on an event that had fired before it was yielded.  None of the
    three allocates an Event.
    """

    __slots__ = ("_now", "_queue", "_seq", "_cancelled", "__weakref__")

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._queue = []
        self._seq = count()
        self._cancelled = 0

    @property
    def now(self):
        """Current virtual time, in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def _schedule_event(self, event, delay=0.0):
        _heappush(self._queue, (self._now + delay, next(self._seq), event))

    def _schedule_callback(self, callback, delay=0.0):
        _heappush(self._queue, (self._now + delay, next(self._seq), callback))

    def _note_cancelled(self):
        """A queued :class:`Timeout` was cancelled: :meth:`run` will skip the
        dead entry (``callbacks is None``); once they outnumber the live
        ones the queue is rebuilt without them."""
        self._cancelled += 1
        queue = self._queue
        if self._cancelled * 2 > len(queue):
            # In place (run() holds the list); (time, seq) keys are kept,
            # so dispatch order is untouched.
            queue[:] = [e for e in queue if getattr(e[2], "callbacks", ()) is not None]
            _heapify(queue)
            self._cancelled = 0

    # -- public API ------------------------------------------------------

    def process(self, generator, name=""):
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def event(self, name=""):
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Return an event that triggers ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value=value)

    def run(self, until=None):
        """Run the simulation.

        ``until`` may be a number (virtual-time horizon), an
        :class:`~repro.sim.events.Event` (run until it triggers), or ``None``
        (run until the event queue drains).
        """
        stop_event = until if isinstance(until, Event) else None
        horizon = until if isinstance(until, (int, float)) else None
        queue = self._queue
        while queue:
            entry = queue[0]
            if horizon is not None and entry[0] > horizon:
                self._now = float(horizon)
                return None
            _heappop(queue)
            item = entry[2]
            if isinstance(item, Event):
                callbacks = item.callbacks
                if callbacks is None:  # cancelled: no dispatch, no clock
                    self._cancelled -= 1
                    continue
                self._now = entry[0]
                item._processed = True
                item.callbacks = []
                for callback in callbacks:
                    callback(item)
            else:
                self._now = entry[0]
                item(self)
            if stop_event is not None and stop_event.triggered:
                if stop_event._is_error:
                    raise stop_event.value
                return stop_event.value
        if horizon is not None:
            self._now = float(horizon)
        if stop_event is not None and not stop_event.triggered:
            raise SimulationError("run(until=event): queue drained before event fired")
        return None
