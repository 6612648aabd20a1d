"""Green fixture: reads env knobs only through the registry."""

import envknobs


def load():
    return envknobs.read_alpha()
