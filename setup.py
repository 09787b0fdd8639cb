"""Legacy setup shim; all metadata lives in pyproject.toml.

It does not make an offline editable install work: `pip install -e .`
builds a PEP 660 editable wheel, which needs the `wheel` package, and,
with build isolation, a package index to fetch setuptools from. Where
those are missing, run the tree uninstalled with `PYTHONPATH=src`, e.g.
`PYTHONPATH=src python -m pytest` or `PYTHONPATH=src python -m repro.cli`.
"""

from setuptools import setup

setup()
