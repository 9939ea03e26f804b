"""Package metadata and the ``repro`` console entry point."""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.dirname(os.path.abspath(__file__))


def _long_description() -> str:
    path = os.path.join(_HERE, "README.md")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    return ""


def _version() -> str:
    """Single source of truth: __version__ in src/repro/__init__.py."""
    with open(os.path.join(_HERE, "src", "repro", "__init__.py"), encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if not match:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-efficient-tdp",
    version=_version(),
    description=(
        "Reproduction of 'Timing-Driven Global Placement by Efficient Critical "
        "Path Extraction' (DATE 2025): composable placement flows, vectorized "
        "corner-stacked STA, and a concurrent multi-design runner"
    ),
    long_description=_long_description(),
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "test": ["pytest>=7.0", "pytest-benchmark>=4.0"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.flow.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
