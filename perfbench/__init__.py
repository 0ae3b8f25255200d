"""Benchmark harness for the SmartSAGE simulator (see README.md)."""
