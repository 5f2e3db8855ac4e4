"""Reference results computed without the package under test.

Everything here is written from the documented model and conventions, not by
calling ``amdahl``, so a change that is fast but wrong makes the benchmark's
checks fail instead of passing against itself.
"""

from __future__ import annotations

import heapq
import math


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# --- scheduling -------------------------------------------------------------


def schedule(processors: int, phases: list[tuple]) -> dict:
    """Greedy list scheduling with the lowest-index tie-break (Graham 1969).

    ``phases`` holds ``("seq", duration)`` and
    ``("par", chunks, dispatch, collect)`` tuples. A heap keyed on
    ``(free_time, index)`` picks the same processor as a linear scan for the
    earliest-free processor that prefers the lowest index.
    """
    busy = [0.0] * processors
    clock = 0.0
    seq_total = 0.0
    chunk_total = 0.0
    segments = 0
    for phase in phases:
        if phase[0] == "seq":
            duration = phase[1]
            busy[0] += duration
            seq_total += duration
            clock += duration
            segments += 1
            continue
        _, chunks, dispatch, collect = phase
        if dispatch > 0.0:
            busy[0] += dispatch
            clock += dispatch
            segments += 1
        heap = [(clock, p) for p in range(processors)]
        end = clock
        for chunk in chunks:
            free, p = heapq.heappop(heap)
            busy[p] += chunk
            chunk_total += chunk
            free += chunk
            end = max(end, free)
            heapq.heappush(heap, (free, p))
            segments += 1
        clock = end
        if collect > 0.0:
            busy[0] += collect
            clock += collect
            segments += 1
    serial = seq_total + chunk_total
    return {
        "serial_time": serial,
        "parallel_time": clock,
        "busy": busy,
        "segments": segments,
        "one_minus_alpha": fraction_from_speedup(serial / clock, processors),
    }


def fraction_from_speedup(speedup: float, processors: int) -> float | None:
    """1 - alpha_eff of a simulated run, None where there is no speedup to invert."""
    if processors < 2 or speedup < 1.0:
        return None
    x = (processors - speedup) / ((processors - 1) * speedup)
    return min(max(x, 0.0), 1.0)


def sweep_point(processors: int, phases: list[tuple], overhead: float, sequential: float):
    """One grid point of the documented sweep rescaling, simulated by :func:`schedule`."""
    par = next(p for p in phases if p[0] == "par")
    _, chunks, dispatch, collect = par
    base_total = dispatch + collect
    share = dispatch / base_total if base_total > 0.0 else 0.5
    total = overhead * max(chunks)
    scaled: list[tuple] = []
    for phase in phases:
        if phase[0] == "seq":
            if sequential > 0.0:
                scaled.append(("seq", phase[1] * sequential))
        else:
            scaled.append(("par", chunks, total * share, total * (1.0 - share)))
    return schedule(processors, scaled)["one_minus_alpha"]


# --- records ----------------------------------------------------------------


def serial_fraction(rmax: float, rpeak: float, cores: int) -> float:
    """1 - alpha_eff of one record: (rpeak/rmax - 1) / (cores - 1)."""
    return (rpeak / rmax - 1.0) / (cores - 1)


def champion(rows: list[tuple], best_rmax: bool) -> tuple:
    """Brute-force champion of one year's rows by the documented tie-break.

    Rows are ``(rank, name, rmax, rpeak, cores)``. The best row has the highest
    rmax (or lowest serial fraction); ties go to the lower rank, then the
    lexicographically smaller name.
    """
    best = None
    best_score = None
    for row in rows:
        rank, name, rmax, rpeak, cores = row
        score = -rmax if best_rmax else serial_fraction(rmax, rpeak, cores)
        if (
            best is None
            or score < best_score
            or (score == best_score and (rank, name) < (best[0], best[1]))
        ):
            best, best_score = row, score
    return best


def mean_and_pstdev(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


def semilog_fit(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Least squares of log10(y) on x: (slope, intercept, r_squared)."""
    xs = [x for x, _ in points]
    ys = [math.log10(y) for _, y in points]
    n = len(xs)
    xm = math.fsum(xs) / n
    ym = math.fsum(ys) / n
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    syy = math.fsum((y - ym) ** 2 for y in ys)
    slope = sxy / sxx
    intercept = ym - slope * xm
    if syy == 0.0:
        return slope, intercept, 1.0
    ss_res = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, min(1.0, max(0.0, 1.0 - ss_res / syy))


# --- projection -------------------------------------------------------------


def efficiency(one_minus_alpha: float, cores: int) -> float:
    """Forward model: E = 1 / (1 + (k - 1)(1 - alpha))."""
    return 1.0 / (1.0 + (cores - 1) * one_minus_alpha)


def projected_cores(base_cores: int, base_rpeak: float, rpeak: float) -> int:
    return max(1, round(base_cores * rpeak / base_rpeak))


def geometric(start: float, stop: float, points: int) -> list[float]:
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points - 1)] + [stop]
