"""Static analysis utilities: transaction profiles and the
runtime-pipelining step analysis."""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.analysis.rp_analysis import RPAnalysis, analyze_pipeline

__all__ = [
    "TransactionProfile",
    "TransactionType",
    "RPAnalysis",
    "analyze_pipeline",
]
