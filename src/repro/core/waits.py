"""Blocking and aborting: one wait loop, one reported abort, one wait-for graph.

The blocking-time profiler (Section 5.3.2) and the federation argument both
need every CC mechanism to say "who waited for whom" and "who aborted
because of whom" the same way.  Here that is two calls: every mechanism
blocks through :meth:`Waits.wait` and aborts through :meth:`Waits.abort`.
The wait-for graph is the ``txn.current_wait`` edge the loop publishes, and
:meth:`Waits.would_deadlock` is the walk over it.

What differs between callers is data they pass — the blockers, the events
to subscribe to, the reason strings, the timeout, which blockers go to the
deadlock check — never a branch in here.  PERFORMANCE.md (*Waiting and
aborting*) lists every caller with its data, i.e. which edges the graph
does and does not contain.
"""

from repro.errors import TransactionAborted
from repro.sim.events import Event, Timeout, any_of

#: ``check=``: the slice of a pass's blockers handed to the deadlock check.
ALL = slice(None)
FIRST = slice(1)
NONE = slice(0)


def _finish_event(blocker):
    """The default ``events=``: only the blocker's commit or abort ends the wait."""
    return [blocker.finish_event]


class MovedEvents(dict):
    """``txn_id`` -> one-shot event fired at that transaction's next *move*
    (what a node's waits wait for a blocker to do).  The first waiter on a
    blocker creates it, :meth:`fire` pops and succeeds it.  One per node: a
    move at one node wakes nobody waiting at another."""

    __slots__ = ("env",)

    def __init__(self, env):
        self.env = env

    def events(self, blocker):
        """``events=`` of a wait on the head's next move."""
        event = self.get(blocker.txn_id)
        if event is None:
            event = self[blocker.txn_id] = Event(self.env, name="moved")
        return [event]

    def fire(self, txn):
        """``txn`` moved: wake whoever waits on it."""
        event = self.pop(txn.txn_id, None)
        if event is not None:
            event.succeed()


class Waits:
    """The engine's collaborator for blocking and aborting transactions.

    ``active`` is the engine's id -> transaction map (the wait-for walk only
    follows active transactions), ``timeout`` the default deadline of a wait.
    A bare ``Waits(env)`` reports to nobody and sees no graph.
    """

    __slots__ = ("env", "active", "profiler", "timeout")

    def __init__(self, env, active=None, profiler=None, timeout=1.0):
        self.env = env
        self.active = {} if active is None else active
        self.profiler = profiler
        self.timeout = timeout

    def abort(self, txn, reason, other=None):
        """Abort ``txn``; ``other`` is the transaction it lost to, if any."""
        if self.profiler is not None:
            self.profiler.record_abort(txn, reason, other)
        raise TransactionAborted(txn.txn_id, reason)

    def would_deadlock(self, txn, blocker_id):
        """True if blocking on ``blocker_id`` closes a wait-for cycle.

        Follows the ``current_wait`` edges published by :meth:`wait`, so a
        cycle is found the moment its last edge is about to be added and is
        broken at once (the requester aborts) instead of stalling until a
        timeout fires.
        """
        active = self.active
        txn_id = txn.txn_id
        seen = set()
        current = blocker_id
        while current is not None and current not in seen:
            if current == txn_id:
                return True
            seen.add(current)
            other = active.get(current)
            if other is None or other.current_wait is None:
                return False
            current = other.current_wait[1]
        return False

    def wait(self, txn, blockers, reason, events=_finish_event, check=FIRST,
             timeout=None, kind=None, timeout_reason=None, deadlock_reason=None):
        """Coroutine: block ``txn`` until ``blockers()`` returns nothing.

        Each pass attributes the time to the first blocker: it publishes the
        edge to it, subscribes to ``events(blocker)`` plus the wait's one
        deadline (armed on the first pass; owned and cancelled here however
        the wait ends) and reports the interval to the profiler as ``kind``.
        ``txn`` aborts with ``deadlock_reason`` if one of
        ``blockers()[check]`` already waits for it, and with
        ``timeout_reason`` once the deadline has fired.  Defaults: the
        reasons are ``reason`` plus ``-deadlock`` / ``-timeout``, ``kind`` is
        ``reason`` and ``timeout`` the collaborator's.
        """
        env = self.env
        deadline = None
        try:
            while True:
                pending = blockers()
                if not pending:
                    return
                blocker = pending[0]
                wait_start = env._now
                if deadline is not None and deadline._processed:
                    self.abort(txn, timeout_reason or f"{reason}-timeout", blocker)
                for other in pending[check]:
                    if self.would_deadlock(txn, other.txn_id):
                        self.abort(txn, deadlock_reason or f"{reason}-deadlock", other)
                if deadline is None:
                    deadline = Timeout(env, self.timeout if timeout is None else timeout)
                txn.current_wait = (reason, blocker.txn_id)
                yield any_of(env, events(blocker) + [deadline])
                txn.current_wait = None
                if self.profiler is not None:
                    self.profiler.record_wait(
                        txn, blocker, wait_start, env._now, kind=kind or reason
                    )
        finally:
            if deadline is not None:
                deadline.cancel()
