"""Imports litfield before pytest loads any test module, so numpy loads
OpenBLAS under litfield's one-thread policy (see litfield/__init__.py):
the timed acceptance criteria run as `litfield serve` does."""

import litfield  # noqa: F401
