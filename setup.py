"""Packaging for the ``repro`` package and its ``repro-sdpolicy`` command.

There is no ``pyproject.toml``: ``pip install -e .`` runs this file.  pip
needs the ``wheel`` package for that (setuptools >= 70.1 bundles it); add
``--no-build-isolation`` to use the installed setuptools when offline.
Without ``wheel``, ``python setup.py develop`` installs the same editable
package and console script.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.M,
).group(1)

setup(
    name="repro-sdpolicy",
    version=VERSION,
    description="Reproduction of SD-Policy, slowdown-driven scheduling of malleable jobs",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-sdpolicy = repro.cli:main"]},
)
