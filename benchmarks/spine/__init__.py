"""spine — the one front-door benchmark for non-delay overhead.

Drives four seeded workloads through a real ``DelayServer`` child
process over TCP on a ``VirtualClock`` (so wall time is pure overhead),
reports end-to-end metrics from an untraced run and a per-layer
breakdown from a separate traced run, and checks outputs against an
in-process oracle. See ``README.md`` in this directory.
"""
