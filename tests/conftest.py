from hypothesis import settings

# The same examples on every run, and no deadline: a property test passes or
# fails on its inputs alone, never on the seed or on the machine's load.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
