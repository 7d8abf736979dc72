"""Setup shim: metadata lives in pyproject.toml.

This file exists so that `pip install -e .` keeps working in offline
environments whose setuptools lacks PEP 660 editable-wheel support (no
`wheel` package).
"""

from setuptools import setup

setup()
