"""DET001 must stay quiet: simulated time comes from the environment."""


def stamp(env) -> float:
    return env.now
