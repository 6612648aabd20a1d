"""Green fixture: the registry is the one module that reads the environment."""

import os


def read_alpha():
    return os.environ.get("REPRO_ALPHA")
