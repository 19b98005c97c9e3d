"""One machine -> dump -> keys benchmark whose per-layer trace adds up.

Run it with ``python -m benchmarks.pipeline`` (see ``__main__``); the
workloads, metrics and how to read the spans are in ``README.md``.
"""
