"""End-to-end benchmark of the GDP reproduction (see perf/README.md).

Self-contained: everything the benchmark needs lives under ``perf/``;
it drives the system only through the public API of ``repro``.
"""
