"""Shared test settings.

Hypothesis runs without timing deadlines, which a loaded machine can miss on
correct code, and with examples derived from each test itself, so a failure
repeats on every run and every machine.
"""

from hypothesis import settings

settings.register_profile("kooplab", deadline=None, derandomize=True)
settings.load_profile("kooplab")
