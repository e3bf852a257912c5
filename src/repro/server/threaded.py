"""Holds no server: :class:`repro.server.OptImatchServer` (the asyncio
front in :mod:`repro.server.aserver`) is the only HTTP front.

This module exists only because the benchmark harness
(``perfbench/spans.py``) imports it to patch by-name references to
:func:`~repro.server.common.dispatch`; the next change to the benchmark
deletes it.
"""

from repro.server.common import dispatch  # noqa: F401
