import gzip
import multiprocessing

import pytest
from hypothesis import settings

import softgp.evolve as evolve_mod
import softgp.tree as tree_mod

# Property tests run the same examples on every run and keep no example
# database, so a test run is reproducible. (Hypothesis still caches source
# constants under .hypothesis/, which is gitignored.) No deadline: timings
# on a loaded host vary several-fold.
settings.register_profile("softgp", derandomize=True, deadline=None, max_examples=60,
                          database=None)
settings.load_profile("softgp")


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """Fail the test after which a child process (an island worker, say) is
    still running, and end it so that the next test starts clean."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join()
    if leaked:
        pytest.fail(f"processes left running: {leaked}")


@pytest.fixture(autouse=True)
def island_workers_exit_cleanly(monkeypatch):
    """Fail the test in which an island worker exited with a non-zero code,
    as one that died with a traceback does: the fit's caller never sees it."""
    exits = []
    real = evolve_mod._Owners.close

    def close(self):
        real(self)
        exits.extend((proc.name, proc.exitcode) for proc in self.procs)

    monkeypatch.setattr(evolve_mod._Owners, "close", close)
    yield
    failed = [(name, code) for name, code in exits if code != 0]
    if failed:
        pytest.fail(f"island workers exited with non-zero codes: {failed}")


@pytest.fixture(autouse=True)
def stored_activations_are_read_only(monkeypatch):
    """Store every activation read-only, so that an evaluation writing into
    an array a node holds raises at the write."""
    real = tree_mod._set_acts

    def set_acts(node, acts):
        if acts is not None:
            acts[1].flags.writeable = False
        real(node, acts)

    monkeypatch.setattr(tree_mod, "_set_acts", set_acts)


@pytest.fixture(scope="session")
def corrupt_gzip():
    """A gzip file's bytes whose header is intact but whose deflate stream
    is not: reading it raises zlib.error, not an OSError."""
    rows = "".join(f"{i * 0.5},{i % 7},{i % 2}\n" for i in range(3000))
    data = bytearray(gzip.compress(("x0,x1,target\n" + rows).encode(), mtime=0))
    for i in range(40, 80):
        data[i] ^= 0x5A
    return bytes(data)
