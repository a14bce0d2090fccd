"""High-level facade: a single-process Tebaldi database you can call directly.

The benchmark harness drives the engine with closed-loop simulated clients;
this facade instead lets applications (the examples, the tests, interactive
exploration) execute individual transactions synchronously: each call runs
the simulation until that transaction finishes and returns its result.
"""

from repro.core.engine import EngineOptions, TebaldiEngine
from repro.errors import TransactionAborted
from repro.isolation import HistoryRecorder, check_engine
from repro.sim.environment import Environment
from repro.storage.mvstore import MultiVersionStore


class Database:
    """A Tebaldi instance bound to a workload and a CC-tree configuration."""

    def __init__(self, workload, configuration, options=None, profiler=None):
        self.workload = workload
        self.configuration = configuration
        self.env = Environment()
        self.store = MultiVersionStore()
        self.workload.populate(self.store)
        self.options = options or EngineOptions()
        self.engine = TebaldiEngine(
            self.env,
            configuration,
            self.workload.transaction_types(),
            store=self.store,
            options=self.options,
            profiler=profiler,
        )
        # What check_serializability() checks; the engine keeps no history.
        self.engine.history_recorder = HistoryRecorder(level="serializable")

    # -- synchronous single-transaction API ----------------------------------------

    def execute(self, txn_type, retries=3, **args):
        """Run one transaction to completion; returns the procedure's result.

        Aborted transactions are retried up to ``retries`` times; the final
        :class:`~repro.errors.TransactionAborted` is re-raised if they all fail.
        """
        last_error = None
        for _attempt in range(retries + 1):
            process = self.env.process(
                self.engine.execute_transaction(txn_type, args),
                name=f"execute-{txn_type}",
            )
            try:
                txn = self.env.run(until=process)
            except TransactionAborted as aborted:
                last_error = aborted
                continue
            return getattr(txn, "result", None)
        raise last_error

    # -- introspection -----------------------------------------------------------------

    @property
    def stats(self):
        return self.engine.stats

    def describe_configuration(self):
        return self.configuration.describe()

    def check_serializability(self):
        """The Adya isolation oracle's verdict on the committed history."""
        return check_engine(self.engine)
