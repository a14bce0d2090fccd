"""Workload interface used by the harness, the examples and the benchmarks.

A workload bundles a table catalog (initial database population), a set of
registered transaction types (stored procedures plus static profiles) and a
transaction mix from which closed-loop clients draw work.
"""

import random

from repro.errors import ConfigurationError


class Workload:
    """Base class for benchmark workloads."""

    name = "workload"

    def build_catalog(self):
        """Return the :class:`~repro.storage.tables.Catalog` to load."""
        raise NotImplementedError

    def build_transaction_types(self):
        """Return ``{name: TransactionType}`` for every stored procedure."""
        raise NotImplementedError

    def mix(self):
        """Return ``{transaction type: weight}`` for the default mix."""
        return {name: ttype.weight for name, ttype in self.transaction_types().items()}

    # -- cached accessor and population -------------------------------------

    def transaction_types(self):
        if not hasattr(self, "_transaction_types"):
            self._transaction_types = self.build_transaction_types()
        return self._transaction_types

    def populate(self, store):
        """Build the initial database and hand it to ``store``; nothing caches it.

        The build is pure, so every store populated from one workload is equal.
        """
        return self.build_catalog().load_into(store)

    # -- argument generation ---------------------------------------------------

    def generate_args(self, rng, txn_type):
        """Generate input arguments for one instance of ``txn_type``."""
        raise NotImplementedError

    def next_transaction(self, rng, mix=None):
        """Draw ``(txn_type, args)`` from the mix."""
        mix = mix or self.mix()
        names = list(mix)
        weights = [mix[name] for name in names]
        txn_type = rng.choices(names, weights=weights, k=1)[0]
        return txn_type, self.generate_args(rng, txn_type)

    def make_rng(self, seed=0):
        return random.Random(seed)

    def validate_mix(self, mix):
        unknown = set(mix) - set(self.transaction_types())
        if unknown:
            raise ConfigurationError(f"mix references unknown transactions: {unknown}")
        return mix
