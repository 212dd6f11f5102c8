from hypothesis import settings

# Reproducible examples, and no per-example deadline: example times vary
# with host load, and a deadline would turn that into spurious failures.
settings.register_profile("dasdoa", derandomize=True, deadline=None)
settings.load_profile("dasdoa")
