"""Packaging for the Algorand role-based-reward reproduction.

``pip install -e .`` is the normal path.  On offline environments without
the ``wheel`` package (where pip cannot build the editable wheel PEP 517
requires), the classic command still works with nothing but setuptools::

    python setup.py develop

Either way the experiment runner is then available both as
``python -m repro.analysis.runner`` and as the ``repro-runner`` console
script (see README.md and docs/reproducing.md).
"""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).parent
_README = _HERE / "README.md"
# numpy is the whole runtime; scipy and networkx are the test suite's oracles.
_TEST = ["pytest", "hypothesis", "scipy>=1.8", "networkx>=2.6"]

setup(
    name="algorand-role-rewards-repro",
    version="0.2.0",
    description=(
        "Reproduction of 'On Incentive Compatible Role-Based Reward "
        "Distribution in Algorand' (DSN 2020): simulator, mechanism "
        "analysis, and a parallel experiment orchestrator"
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.10 floor: the event engine uses @dataclass(slots=True) on its hot
    # Event type (a measurable win at millions of events per run).
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": _TEST,
        "dev": _TEST + ["pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro-runner = repro.analysis.runner:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
