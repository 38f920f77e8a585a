"""Benchmark of the scythe package: seeded inputs, checks, timed workloads."""
