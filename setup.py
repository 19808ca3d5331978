"""Package metadata for the M3 reproduction (``repro``, command ``m3``).

This file is the project's only packaging metadata; there is no
``pyproject.toml``.  It needs nothing beyond setuptools, so it also serves
environments without the ``wheel`` package, where PEP 660 editable installs
cannot build: ``pip install -e . --no-build-isolation --no-use-pep517`` (or
``python setup.py develop``) falls back to the legacy editable install.
Check it with ``python setup.py --name --version``.

One system library is optional: ``libdeflate`` (``libdeflate.so.0``; Debian
and Ubuntu package ``libdeflate0``).  Where it loads, zlib blocks inflate
through it straight into their destination buffer; without it they decode
through the stdlib :mod:`zlib`, to the same values, several times slower.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent


def read_version() -> str:
    """``__version__`` of ``src/repro/__init__.py``, read without importing it."""
    source = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__\s*=\s*["\']([^"\']+)["\']', source, re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="M3: scaling up machine learning via memory mapping (reproduction)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["m3 = repro.cli:main"]},
)
