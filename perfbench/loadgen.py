"""Open-loop request generator for the serve workload.

Independent users send on a schedule whatever the server is doing, so a
stall makes every later request wait. Each request is therefore timed
from when it was *due*, not from when the engine admitted it (the
``repro.serve.loadgen`` harness times from admission and so drops the
wait a stall imposes). One thread, the caller's, sends everything; each
outcome records how late it was sent, and a refused request is kept as
an outcome with its error, so it counts as a miss.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Sequence
from concurrent.futures import Future, wait

import numpy as np

from repro.runtime.errors import OverloadedError

#: How long the generator waits for the last responses of a phase.
RESOLVE_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """One request as the generator saw it (``perf_counter`` seconds)."""

    request: int  # index into the request stream
    due: float
    sent: float
    done: float | None = None
    result: object = None  # the ServeResult
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        """Seconds from due to resolved (refused: due to refusal)."""
        return self.done - self.due

    @property
    def refused(self) -> bool:
        return isinstance(self.error, OverloadedError)


def arrivals(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival offsets in ``[0, seconds)`` at ``rate`` per second."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 64)
    offsets = np.cumsum(gaps)
    while offsets[-1] < seconds:
        more = rng.exponential(1.0 / rate, size=offsets.size)
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(more)])
    return offsets[offsets < seconds]


def _stamp(outcome: Outcome, future: Future) -> None:
    outcome.done = time.perf_counter()


def run_phase(
    engine, stream: Sequence[tuple], offsets: np.ndarray, first: int
) -> list[Outcome]:
    """Send ``stream[(first + i) % len(stream)]`` at ``offsets[i]`` seconds
    from now, then wait until every admitted request has resolved."""
    start = time.perf_counter() + 0.005
    outcomes: list[Outcome] = []
    admitted: list[tuple[Outcome, Future]] = []
    for position, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        index = (first + position) % len(stream)
        kind, texts = stream[index][0], stream[index][1]
        outcome = Outcome(request=index, due=due, sent=time.perf_counter())
        try:
            future = engine.submit(kind=kind, texts=texts)
        except OverloadedError as error:
            outcome.done, outcome.error = outcome.sent, error
        else:
            future.add_done_callback(functools.partial(_stamp, outcome))
            admitted.append((outcome, future))
        outcomes.append(outcome)
    __, pending = wait(
        [future for __, future in admitted], timeout=RESOLVE_TIMEOUT_S
    )
    if pending:
        raise RuntimeError(
            f"{len(pending)} requests unresolved {RESOLVE_TIMEOUT_S} s "
            "after the phase ended"
        )
    for outcome, future in admitted:
        # A future wakes its waiters before it runs its callbacks.
        while outcome.done is None:
            time.sleep(0.0001)
        outcome.error = future.exception()
        if outcome.error is None:
            outcome.result = future.result()
    return outcomes
