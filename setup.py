"""Legacy setup shim.

The execution environment has no network and no ``wheel`` package, so
PEP-660 editable installs cannot build; this file lets
``pip install -e .`` fall back to ``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Focus: parallel NGS assembly on distributed overlap "
        "graphs enriched with biological knowledge (IPDPSW 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
