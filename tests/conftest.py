"""Suite-wide set-up.

`pythonpath` in pyproject.toml puts `src` on this process's import path;
the environment carries it to the processes the tests start (criterion 10
restarts `python -m hmqm.cli serve`), so a checkout that is not installed
tests itself end to end.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
