import os, sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests are skipped without hypothesis
    pass
else:
    # CI sweeps the probabilistic properties deeper: HYPOTHESIS_PROFILE=ci
    settings.register_profile("ci", max_examples=500, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
