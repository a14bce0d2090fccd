"""CC-specific preprocessing (Section 5.4.2): local configuration refinement.

A CC node may rewrite its own subtree before a candidate configuration is
measured.  One refinement is left, *partition-by-instance* for TSO groups,
which splits one TSO group into per-instance groups keyed by an argument of
the transactions (e.g. the SEATS flight id).  The paper's other kind, static
analysis for a mechanism, needs no step here: each mechanism derives it from
the group's profiles where it is built (runtime pipelining its steps, TSO its
promises).
"""

from repro.errors import AnalysisError


def partition_by_instance(spec, instance_key, label_suffix="per-instance"):
    """Refine a leaf spec into per-instance CC instances (Section 5.4.2)."""
    if not spec.is_leaf:
        raise AnalysisError("partition-by-instance applies to leaf groups only")
    spec.instance_key = instance_key
    if spec.label:
        spec.label = f"{spec.label} [{label_suffix}]"
    return spec


def apply_preprocessing(configuration, instance_keys=None):
    """Refine a candidate configuration in place.

    ``instance_keys`` optionally maps a transaction type to an
    ``args -> partition value`` callable; a TSO leaf whose transactions all
    have the same callable is partitioned by instance.
    """
    instance_keys = instance_keys or {}
    for spec in configuration.root.iter_nodes():
        if spec.cc == "tso" and spec.is_leaf and spec.instance_key is None:
            keys = [instance_keys.get(name) for name in spec.transactions]
            if keys and all(key is not None for key in keys):
                partition_by_instance(spec, keys[0])
