"""Make the checkout's foilwind importable for the benchmark's own tests."""

from workloads import load_foilwind

load_foilwind()
