"""Install metadata for the reproduction package.

Kept as a plain ``setup.py`` so legacy editable installs
(``pip install -e . --no-use-pep517``) keep working on offline machines
whose setuptools cannot build PEP 660 wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro-topk-spmv",
    version="0.7.0",
    description=(
        "Reproduction of 'Scaling up HBM Efficiency of Top-K SpMV for "
        "Approximate Embedding Similarity on FPGAs' (DAC 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "dev": ["pytest", "hypothesis", "pytest-cov"],
    },
)
