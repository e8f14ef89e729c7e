"""Session setup: hypothesis keeps its files in a temporary directory, not in the checkout.

Even with ``database=None``, hypothesis caches the constants it reads from the
source of loaded modules under its home directory, ``.hypothesis`` in the
working directory by default, and its pytest plugin does so while tests are
collected.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_home, ignore_errors=True)
