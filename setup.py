"""Thin setup.py shim.

All metadata lives in pyproject.toml — including the ``numpy`` and
``scipy`` runtime dependencies and the optional ``dev`` extra.  This file
exists so that ``python setup.py develop`` works on
environments whose setuptools lacks the ``wheel`` package required for
PEP 660 editable installs (e.g. offline machines).
``pip install -e . --no-build-isolation`` uses it the same way.
"""

from setuptools import setup

setup()
