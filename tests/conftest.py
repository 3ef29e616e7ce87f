"""Put ``src`` on PYTHONPATH for the CLI subprocesses the tests start.

The ``pythonpath`` setting in pyproject.toml covers the test process only;
a child interpreter needs the environment variable to import invpos from a
checkout that is not installed.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
