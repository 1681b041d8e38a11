"""Make ``perf`` and ``repro`` importable however pytest is launched
(``python -m pytest perf/tests`` from the repository root)."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)
