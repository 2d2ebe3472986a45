from hypothesis import settings

# Property tests run the same examples on every run and keep no example
# database, so a test run is reproducible. (Hypothesis still caches source
# constants under .hypothesis/, which is gitignored.) No deadline: timings
# on a loaded host vary several-fold.
settings.register_profile("softgp", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("softgp")
