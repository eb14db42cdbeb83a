"""Packaging for the Barada/Sait/Baig (IPPS 2001) reproduction."""

from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).parent
README = ROOT / "README.md"

setup(
    name="repro-mshc",
    version="1.1.0",
    description=(
        "Simulated Evolution for task matching and scheduling in "
        "heterogeneous computing systems — a reproduction of Barada, "
        "Sait & Baig (IPPS 2001) with a parallel experiment runner"
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    author="repro-mshc contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the compiled walker's C source, built on first use (no build step
    # at install time; see repro.schedule.walker)
    package_data={"repro.schedule": ["_walk.c"]},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "dev": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "pytest-cov>=4",
            "hypothesis>=6",
            "ruff>=0.4",
            # tests/model/test_graph.py exercises the networkx interop
            "networkx>=2.6",
        ],
        # TaskGraph.from_networkx / to_networkx interop — optional:
        # `import repro` never needs it
        "graph": [
            "networkx>=2.6",
        ],
        # the compiled kernel tier (repro.schedule.jit) — optional:
        # without it the NumPy tier is auto-selected, bit-identically
        "jit": [
            "numba>=0.59",
        ],
    },
    entry_points={
        "console_scripts": [
            # `repro` is the canonical name; `repro-mshc` is kept for
            # compatibility with earlier docs and scripts.
            "repro=repro.cli:main",
            "repro-mshc=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
    keywords=(
        "scheduling task-matching heterogeneous-computing "
        "simulated-evolution genetic-algorithm makespan DAG"
    ),
)
