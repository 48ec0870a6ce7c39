"""Shared pytest set-up.

``--hypothesis-profile=ci`` derandomizes the property tests, so a
failure seen in CI reproduces from the same examples anywhere, and
prints the blob that replays a failing example.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
