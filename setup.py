"""Packaging for the ``repro`` library (``src/`` layout).

Kept as a plain ``setup.py`` so legacy ``pip install -e .`` works in offline
environments whose setuptools cannot build PEP 660 editable wheels.  The
non-Python files, ``repro/core/_grng.c`` and ``_conv.c``, ship as package
data: the compiled backends are built from them on first use
(``repro.core.native``), so an installed copy must carry the sources.
"""

from setuptools import find_packages, setup

setup(
    name="repro-shift-bnn",
    version="0.21.0",
    description="Shift-BNN reproduction: reversible-LFSR Bayesian NN training",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.core": ["_grng.c", "_conv.c", "_gc.c"]},
    install_requires=["numpy>=1.26"],
)
