"""Packaging for the Deep Note reproduction.

Classic setuptools packaging (no pyproject.toml) on purpose: the target
environments are air-gapped, and pip's PEP 517 build isolation tries to
download setuptools/wheel whenever a pyproject.toml is present.  With
this layout, ``pip install -e .`` works fully offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Deep Note reproduction: acoustic interference against HDD storage "
        "in underwater data centers (HotStorage '23)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"dev": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["deepnote = repro.cli:main"]},
)
