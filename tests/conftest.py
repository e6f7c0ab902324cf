"""Hypothesis profiles shared by the property suites.

``--hypothesis-profile ci`` is what the workflow's merge-law step runs:
more examples than tier-1's default profile, which stays untouched so
``python -m pytest -x -q`` keeps its budget.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=800, deadline=None)
