"""Re-export of :func:`repro.parallel.executor.available_cpus`, nothing else.

The benchmark's ``provenance()`` in ``bench/run.py`` imports
``available_cpus`` from this module, and ``bench/`` changes only together
with the benchmark. The next change to ``bench/`` imports it from
:mod:`repro.parallel.executor` and deletes this module.
"""

from repro.parallel.executor import available_cpus

__all__ = ["available_cpus"]
