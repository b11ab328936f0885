"""Spin-chain laboratory for fluctuation classification, cluster-property
diagnostics, decoherence-rate scaling under correlated noise, and
stability against local measurements."""

__version__ = "0.1.0"
