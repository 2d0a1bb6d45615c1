"""The closed loop shared by the in-process worker and the CLI driver."""

from __future__ import annotations

from itertools import chain, cycle
from time import perf_counter


def closed_loop(rounds, seconds, step):
    """One client: send each request after the previous one returns.

    Works in whole rounds so that every run sees the same request mix: a new
    round starts only while the deadline can still be met at the mean round
    time so far (the first round always runs).  Rounds are cycled if the
    list runs out.  ``step(request)`` runs one op.
    """
    done = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if done and elapsed + elapsed / done > seconds:
            return
        for req in rounds[done % len(rounds)]:
            step(req)
        done += 1


def requests(rounds):
    """The requests in the order closed_loop sends them."""
    return chain.from_iterable(cycle(rounds))
