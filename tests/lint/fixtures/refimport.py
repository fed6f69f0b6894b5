"""Seeded L307 violations; linted as a production refresh module."""

import repro.core.per_row  # line 3: L307
from repro.core.per_row import serve_rows  # line 4: L307
from repro.core import per_row  # line 5: L307
from . import per_row as reference  # line 6: L307
from .per_row import RowPass  # line 7: L307

# Neighbours of the reference are not it: not flagged.
from repro.core import cursor, scanpass
from repro.core.scanpass import _ScanPass
from .differential import run_refresh_scan
import repro.core.per_rows_elsewhere
