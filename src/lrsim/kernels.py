"""Run metadata read by perfbench/probe.py; the module goes once the probe
stops reading it."""

__all__ = ["ACTIVE_BACKEND"]

ACTIVE_BACKEND = "numpy"
