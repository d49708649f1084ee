"""A wall-clock read on the network layer."""

import datetime


def stamp_frame(frame):
    frame["sent"] = datetime.datetime.now()
    return frame
