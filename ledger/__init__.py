"""The performance ledger: this repository's benchmark (see ``ledger/README.md``).

Everything the benchmark needs lives in this directory; it drives ``repro``
only through its public surface (``python -m repro serve`` as a subprocess,
``QsRuntime`` and the layers' public functions in-process).
"""

import os

#: the checkout root and the package source the benchmark measures
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "ledger", "out")
