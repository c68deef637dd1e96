"""Hypothesis profiles.

Every property that sets no ``max_examples`` of its own takes it from the
loaded profile: ``tier1`` by default keeps the run to a few seconds, and
``HYPOTHESIS_PROFILE=ci`` searches many more examples.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", max_examples=40)
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
