"""Make the benchmark modules and ``src`` importable for these tests."""

from __future__ import annotations

import os
import sys

_E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_E2E, os.path.join(os.path.dirname(os.path.dirname(_E2E)),
                                 "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
