"""``python -m benchmarks.e2e`` from the repository root."""

import os
import sys

# The system under test is built from this checkout's source tree.
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
