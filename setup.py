"""Setuptools entry point.

The build metadata lives here (rather than in a ``[build-system]`` /
``[project]`` table) so that ``pip install -e .`` works in fully offline
environments that ship setuptools but not the ``wheel`` package: pip then
falls back to the legacy ``setup.py develop`` code path, which has no
build-isolation or wheel requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SECRETA reproduction: a framework for evaluating and comparing "
        "relational and transaction anonymization algorithms"
    ),
    author="SECRETA reproduction authors",
    license="MIT",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
