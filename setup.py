"""Packaging metadata for the ``repro`` package (sources under ``src/``).

Kept as a plain ``setup.py``: the offline environment lacks the
``wheel`` package, so PEP-517 editable installs are unavailable.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
