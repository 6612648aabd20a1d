"""Red fixture: reads env knobs directly, outside the registry."""

import os

ALPHA_ENV = "REPRO_ALPHA"


def load():
    alpha = os.environ.get(ALPHA_ENV)
    return alpha, os.getenv("REPRO_UNDECLARED")
