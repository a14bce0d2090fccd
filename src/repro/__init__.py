"""Tebaldi: hierarchical Modular Concurrency Control — reproduction library.

Public entry points:

* :class:`repro.database.Database` — run individual transactions against a
  workload under any CC-tree configuration.
* :class:`repro.harness.BenchmarkRunner` — closed-loop benchmark runs over the
  simulated cluster (the paper's evaluation methodology).
* :mod:`repro.core.config` — the CC-tree vocabulary (``leaf``, ``node``) and
  the shapes the paper keeps using: ``monolithic``, ``two_layer``,
  ``three_layer`` and Figure 5.2's ``initial_configuration``.
* :mod:`repro.harness.configs` — one grouping row per workload, the registry
  of named trees derived from it, and the paper trees that are no instance
  of a shape (Callas-1/2, Table 3.1, the four-layer ``hot_item`` tree).
* :class:`repro.autoconf.AutoConfigurator` — the automatic configuration
  algorithm of Chapter 5.
"""

from repro.core.config import CCSpec, Configuration, leaf, monolithic, node
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.database import Database
from repro.errors import (
    ConfigurationError,
    IsolationViolation,
    ReproError,
    TransactionAborted,
)

__version__ = "1.0.0"

__all__ = [
    "CCSpec",
    "Configuration",
    "leaf",
    "node",
    "monolithic",
    "EngineOptions",
    "TebaldiEngine",
    "Database",
    "ReproError",
    "TransactionAborted",
    "ConfigurationError",
    "IsolationViolation",
    "__version__",
]
