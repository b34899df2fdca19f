"""Benchmark of the holeymagic library and CLI; see README.md."""
