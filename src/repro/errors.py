"""Exception hierarchy shared across the Tebaldi reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this package."""


class TransactionAborted(ReproError):
    """Raised inside a transaction coroutine when the engine aborts it.

    The client harness catches this exception, optionally backs off and
    retries the transaction.  ``reason`` is a short machine-readable tag used
    by the statistics module (e.g. ``"ww-conflict"``, ``"deadlock-timeout"``,
    ``"pivot"``).
    """

    def __init__(self, txn_id, reason=""):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason

    def __reduce__(self):
        # ``args`` holds only the message; a worker process sends the fields.
        return type(self), (self.txn_id, self.reason)


class ConfigurationError(ReproError):
    """Raised when a CC-tree configuration is malformed or unsupported."""


class SimulationError(ReproError):
    """Raised on misuse of the discrete-event simulation kernel."""


class AnalysisError(ReproError):
    """Raised when a static-analysis precondition is violated."""


class IsolationViolation(ReproError):
    """Raised by the isolation checker when a committed history is invalid."""
