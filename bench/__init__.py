"""End-to-end benchmark of the reproduction's user-facing products.

Run it with ``python bench/run.py`` from the repository root; see
``bench/README.md`` for the workloads, metrics and the traced run.
"""
