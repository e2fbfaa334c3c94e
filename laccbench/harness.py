"""Timing, deadlines, the correctness gate and summary statistics."""

from __future__ import annotations

import contextlib
import resource
import signal
import time
from dataclasses import dataclass, field
from statistics import median, quantiles
from typing import Callable, Iterable, Iterator, List, Tuple

import numpy as np

from repro.baselines import union_find
from repro.graphs.validate import canonical_labels

#: ``solve_tail_s`` is this percentile of the calls; a fixed rank, so that a
#: faster program, which fits more calls into a run, is judged at the same one
TAIL_PCT = 75
#: nominal duration of the reference kernel: scaled times are seconds on a
#: machine running at the speed where :class:`Reference` takes this long
REF_S = 0.1


class Reference:
    """A fixed kernel timed before and after every measured call, so each
    time can be scaled by the machine's speed at that moment.

    A shared host drifts by tens of percent over seconds to minutes; the
    drift hits this kernel and the drivers alike, and scaling each call by
    the mean of its two neighbouring reference times cancels most of it.
    The kernel is timed in this thread's CPU time, so time the thread spends
    waiting for a core, behind the proc backend's workers say, does not
    count, while the speed of the core it runs on does.  The kernel rewrites and then reads every entry of a dict with *size*
    random keys, in random order: interpreted work whose table (~20 MiB at
    the default size) misses the caches, as the SPMD driver's per-edge dicts
    and the serial driver's gathers over large arrays do.  On the test VM
    it tracked the drivers' drift better than NumPy sorts and scatters on
    cache-sized arrays or smaller dicts.  It allocates nothing after
    construction, so its peak memory is its resident size.
    """

    def __init__(self, size: int = 400_000):
        self.keys = np.random.default_rng(0).integers(0, 1 << 40, size).tolist()
        self.lut = dict.fromkeys(self.keys, 0)
        self.times: List[float] = []
        self.time()

    def time(self) -> float:
        """Run the kernel once; its time is kept in :attr:`times`."""
        lut = self.lut
        t0 = time.thread_time()
        for i, k in enumerate(self.keys):
            lut[k] = i
        sum(map(lut.__getitem__, self.keys))
        self.times.append(time.thread_time() - t0)
        return self.times[-1]

    def scale(self, elapsed: float) -> float:
        """*elapsed*, measured just now, at nominal speed: scaled by REF_S
        over the mean of the last reference time and a fresh one."""
        before = self.times[-1]
        return elapsed * REF_S * 2.0 / (before + self.time())


class CallDeadline(BaseException):
    """A driver call ran past its deadline.

    A ``BaseException`` so that no ``except Exception`` inside the program
    can swallow it and keep a hung call going.
    """


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`CallDeadline` in the body after *seconds* (main thread,
    POSIX interval timer); blocking lock and pipe waits are interrupted."""

    def expire(signum, frame):
        raise CallDeadline(f"call exceeded its {seconds:.1f} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def oracle_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Union-find component labels, canonicalised."""
    return canonical_labels(union_find.connected_components(n, u, v))


def matches_oracle(parents: np.ndarray, oracle: np.ndarray) -> bool:
    """True when *parents* induce exactly the oracle's partition."""
    parents = np.asarray(parents)
    if parents.shape != oracle.shape:
        return False
    return bool(np.array_equal(canonical_labels(parents), oracle))


@dataclass
class Calls:
    """Outcome of a series of timed driver calls."""

    seconds: List[float] = field(default_factory=list)  # passing calls only
    scaled: List[float] = field(default_factory=list)  # the same, at REF_S speed
    attempted: int = 0
    failed: int = 0  # raised, hit the deadline, or failed the check
    wrong: int = 0  # returned an answer that failed the check
    last: object = None  # result of the last passing call

    def absorb(self, other: "Calls") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def run_calls(
    call: Callable[[], object],
    check: Callable[[object], bool],
    seconds: float,
    limit_s: float,
    on_failure: Callable[[], None] = lambda: None,
    scale: Callable[[float], float] = lambda s: s,
) -> Calls:
    """Call *call* back to back until *seconds* have passed (at least once),
    each under a *limit_s* deadline.

    Only the call is timed; *scale* (see :meth:`Reference.scale`) and
    *check* run after the clock stops.
    """
    out = Calls()
    stop = time.perf_counter() + seconds
    while out.attempted == 0 or time.perf_counter() < stop:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with deadline(limit_s):
                result = call()
            elapsed = time.perf_counter() - t0
        except (Exception, CallDeadline):
            out.failed += 1
            on_failure()
            continue
        scaled = scale(elapsed)
        if check(result):
            out.seconds.append(elapsed)
            out.scaled.append(scaled)
            out.last = result
        else:
            out.failed += 1
            out.wrong += 1
    return out


def tail(samples: Iterable[float]) -> Tuple[float, int]:
    """``(value, beyond)``: the :data:`TAIL_PCT` percentile of *samples*
    (linear interpolation between order statistics) and how many samples
    lie above it.  With 38 or more distinct samples at least 10 do."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    value = xs[0] if len(xs) == 1 else quantiles(xs, n=100, method="inclusive")[TAIL_PCT - 1]
    return value, sum(x > value for x in xs)


def _hwm_kib(pid: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for {pid}")


def reset_peak_rss(child_pids: Iterable[int] = ()) -> bool:
    """Lower the high-water mark of this process and the given children to
    their current resident size, so that a later :func:`peak_rss_mib` sees
    only what ran after this call.  False where ``/proc`` cannot do it."""
    try:
        for pid in ("self", *map(str, child_pids)):
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib(child_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live children.

    Reads each process's high-water mark from ``/proc``; without ``/proc``
    falls back to ``getrusage`` (self, plus the largest reaped child).  A
    forked child's resident set includes the pages it shares with this
    process, so those count once per child.
    """
    try:
        kib = _hwm_kib("self") + sum(_hwm_kib(str(p)) for p in child_pids)
    except (OSError, ValueError):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def median_time(fn: Callable[[], object], reps: int) -> Tuple[float, object]:
    """Median wall time of *reps* calls of *fn*, and the last result."""
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result
