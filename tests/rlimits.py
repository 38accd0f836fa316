"""Resource limits a child process sets on itself."""

import resource


def clamp(*limits):
    """For each (resource, cap) pair, set the soft limit to cap, or to the
    hard limit where that is lower."""
    for which, cap in limits:
        hard = resource.getrlimit(which)[1]
        soft = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
        resource.setrlimit(which, (soft, hard))
