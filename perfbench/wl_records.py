"""records-pipeline: one TOP500-style analysis session per operation.

Each input is a generated CSV text. The size ladder is fixed (hundreds of rows
up to 12.5k), and so is each size's shape: its year count, HPL/HPCG mix,
cohort size and whether it has an extra column vary along the ladder, not
with the seed, so an operation's cost does not depend on the seed. The seed
varies the content: systems, numbers, ties, quoting and comment lines. Two
further files carry one malformed or superlinear row each and must be
rejected with the right line number. See ``size_ladder`` for where the
median and the 90th percentile fall.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random

import oracle
from amdahl import (
    ChampionCriterion,
    ContributionBudget,
    MalformedRowError,
    ScalingScenario,
    alpha_eff_from_speedup,
    alpha_from_two_efficiencies,
    alpha_from_two_timings,
    bounds,
    derive,
    efficiency_from_alpha,
    fit_semilog,
    geometric_grid,
    max_speedup,
    parse_records,
    project_curve,
    required_one_minus_alpha,
    saturation_rmax,
    select_champions,
    whatif,
    write_records,
    yearly_mean_efficiency,
)
from base import BaseWorkload

HEADER = ["year", "rank", "name", "arch", "cores", "rmax_gflops", "rpeak_gflops", "benchmark"]
ARCHS = ("MPP", "Cluster", "Other", "Constellations", "cluster", "SMP")
WORDS = ("Sunway", "Tianhe", "Titan", "Sequoia", "Cori", "Mira", "Trinity", "Piz Daint",
         "Hazel Hen", "Shaheen", "Pangea", "Cray, Inc. XC40", "Lenovo, SD530", "Summit")
BAD_KINDS = ("superlinear", "cores", "fields", "benchmark", "rank")
SPEED_OF_LIGHT_M_PER_S = 2.998e8


def size_ladder(tiny: bool) -> tuple[list[int], list[int]]:
    """Good file sizes and the sizes of the two bad files.

    The good sizes are 15 geometric steps from 200 to 12.5k rows, with the
    middle step (1177 rows) taken nine times. A session of that size lasts
    tens of milliseconds, short enough that one operation's time swings by
    about 20% with the host, so the median rests on nine files a round
    rather than on one. With 25 files a round the median falls in the middle
    of that cluster and the 90th percentile in the middle of the 6924-row
    step.
    """
    if tiny:
        return [30, 60, 120], [40]
    steps = [round(200 * 62.5 ** (i / 14)) for i in range(15)]
    return steps[:6] + [steps[6]] * 9 + steps[7:], [300, 1000]


def shape(index: int) -> dict:
    """The cost-relevant parameters of the index-th file of a ladder."""
    return {
        "years": (2, 5, 10, 20, 30)[index % 5],
        "hpcg_share": (0.0, 0.1, 0.3, 0.5)[index % 4],
        "extra_column": index % 3 == 1,
        "top_n": (10, 25, 100, 500)[index % 4],
    }


def generate(rng: random.Random, n_rows: int, bad: bool, index: int) -> dict:
    form = shape(index)
    years = min(form["years"], n_rows // 2)
    first_year = rng.randint(1993, 2005)
    hpcg_share = form["hpcg_share"]
    extra_column = form["extra_column"]
    bad_row = rng.randrange(n_rows) if bad else None

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    line = 0
    for _ in range(rng.randint(1, 3)):
        buf.write("# synthetic TOP500-style list\n")
        line += 1
    writer.writerow(HEADER + (["site"] if extra_column else []))
    line += 1
    bad_line = None
    year = rank = best_rmax = best_alpha = None
    for i in range(n_rows):
        if year != first_year + i * years // n_rows:
            year, rank, best_rmax, best_alpha = first_year + i * years // n_rows, 0, None, None
        rank += 1
        row_rank = rank
        cores = int(10 ** rng.uniform(3, 7))
        rpeak = round(cores * rng.uniform(5.0, 60.0), 1)
        hpcg = rng.random() < hpcg_share
        eff = rng.uniform(0.004, 0.06) if hpcg else rng.uniform(0.45, 0.95)
        rmax = round(rpeak * eff, 2)
        if best_rmax and rng.random() < 0.05:
            # An exact copy of the year's best row by one criterion, sometimes
            # down to its rank, so the rank-then-name tie-break decides.
            tied_rank, cores, rmax, rpeak, _ = rng.choice((best_rmax, best_alpha))
            if rng.random() < 0.5:
                row_rank = tied_rank
        this = (row_rank, cores, rmax, rpeak, oracle.serial_fraction(rmax, rpeak, cores))
        if best_rmax is None or rmax > best_rmax[2]:
            best_rmax = this
        if best_alpha is None or this[4] < best_alpha[4]:
            best_alpha = this
        row = [year, row_rank, f"{rng.choice(WORDS)} {rng.randrange(10000)}", rng.choice(ARCHS),
               cores, repr(rmax), repr(rpeak), "HPCG" if hpcg else rng.choice(("HPL", "hpl"))]
        if extra_column:
            row.append("site-" + str(rng.randrange(100)))
        if i == bad_row:
            row = corrupt(rng, row)
            bad_line = line + 1
        if rng.random() < 0.002:
            buf.write("# page break\n")
            line += 1
        writer.writerow(row)
        line += 1
    return {
        "text": buf.getvalue(),
        "bad_line": bad_line,
        "units": bad_row + 1 if bad else n_rows,
        "top_n": form["top_n"],
        "points": max(20, n_rows // 4),
        "alpha_scale": rng.uniform(0.5, 2.0),
        "growth": rng.uniform(2.0, 100.0),
        "target_eff": rng.uniform(0.3, 0.9),
        "budget": {
            "clock_hz": rng.uniform(1e9, 4e9),
            "total_time_s": rng.uniform(60.0, 86400.0),
            "hardware_cycles": rng.uniform(1e3, 1e6),
            "os_cycles": rng.uniform(1e4, 1e7),
            "software_cycles": rng.uniform(1e5, 1e8),
            "physical_size_m": rng.uniform(10.0, 200.0),
        },
        "digest": None,
    }


def corrupt(rng: random.Random, row: list) -> list:
    kind = rng.choice(BAD_KINDS)
    row = list(row)
    if kind == "superlinear":
        row[5] = repr(float(row[6]) * 1.5)
    elif kind == "cores":
        row[4] = f"{row[4]}k"
    elif kind == "fields":
        row = row[:6]
    elif kind == "benchmark":
        row[7] = "LINPACK"
    else:
        row[1] = 0
    return row


def attempt(fn, *args):
    """An inversion's 1 - alpha, or the name of the model error it raised."""
    try:
        return fn(*args).one_minus_alpha
    except ValueError as exc:
        return type(exc).__name__


class Workload(BaseWorkload):
    work_unit = "input rows"

    def prepare(self, rng: random.Random, tracer) -> None:
        good, bad = size_ladder(self.tiny)
        self.items = [generate(rng, n, False, i) for i, n in enumerate(good)]
        self.items += [generate(rng, n, True, i) for i, n in enumerate(bad)]

    def units(self, item: dict) -> int:
        return item["units"]

    def run(self, tr, item: dict) -> dict:
        with tr.span("dataset.parse_records"):
            try:
                records = parse_records(io.StringIO(item["text"]))
            except MalformedRowError as exc:
                tr.count("dataset.rejected_files")
                tr.count("dataset.parse_records.rows", item["units"])
                return {"error": exc}
        tr.count("dataset.parse_records.rows", len(records))
        with tr.span("dataset.derive"):
            derived = [derive(r) for r in records]
        with tr.span("dataset.select_champions"):
            best_rmax = select_champions(records, ChampionCriterion.BEST_RMAX)
        with tr.span("dataset.select_champions"):
            best_alpha = select_champions(records, ChampionCriterion.BEST_ALPHA)
        with tr.span("dataset.yearly_mean_efficiency"):
            yearly = yearly_mean_efficiency(records, item["top_n"])
        base = best_rmax[-1]
        with tr.span("dataset.derive"):
            champion_oma = [derive(c).one_minus_alpha_eff for c in best_alpha]
            base_oma = derive(base).one_minus_alpha_eff
        tr.count("dataset.derive.calls", len(records) + len(best_alpha) + 1)
        with tr.span("dataset.fit_semilog"):
            fit = fit_semilog([(float(c.year), x) for c, x in zip(best_alpha, champion_oma)])

        inversions = []
        with tr.span("core.inversions"):
            for a, b in zip(best_alpha, best_alpha[1:]):
                ea, eb = a.rmax / a.rpeak, b.rmax / b.rpeak
                inversions.append(attempt(alpha_eff_from_speedup, ea * a.cores, a.cores))
                inversions.append(attempt(alpha_from_two_efficiencies, ea, a.cores, eb, b.cores))
                inversions.append(attempt(
                    alpha_from_two_timings, 1.0 / (ea * a.cores), a.cores, 1.0 / (eb * b.cores), b.cores
                ))
            for c, x in zip(best_alpha, champion_oma):
                doubled = efficiency_from_alpha(x, 2 * c.cores)
                inversions.append(
                    attempt(alpha_from_two_efficiencies, c.rmax / c.rpeak, c.cores, doubled, 2 * c.cores)
                )
                inversions.append(max_speedup(x))
        tr.count("core.inversions.calls", 3 * (len(best_alpha) - 1) + 3 * len(best_alpha))

        with tr.span("projection.geometric_grid"):
            grid = geometric_grid(base.rpeak, base.rpeak * 1e3, item["points"])
        with tr.span("projection.project_curve"):
            curve = project_curve(base.cores, base.rpeak, base_oma, grid)
        tr.count("projection.project_curve.points", len(curve))
        per_core = base.rpeak / base.cores
        with tr.span("projection.scenarios"):
            scenario = whatif(ScalingScenario(
                base_one_minus_alpha=base_oma, base_cores=base.cores,
                alpha_scale_factor=item["alpha_scale"], base_rpeak=base.rpeak,
                target_rpeak=base.rpeak * item["growth"],
            ))
            required = required_one_minus_alpha(item["target_eff"], 10 * base.cores)
            saturation = saturation_rmax(per_core, base_oma)
            limits = bounds(ContributionBudget(per_processor_flops=per_core * 1e9, **item["budget"]))

        with tr.span("dataset.write_records"):
            out = io.StringIO()
            write_records(records, out, comment="records-pipeline", derived=True)
            written = out.getvalue()
        tr.count("dataset.write_records.rows", len(records))
        return {
            "records": records, "derived": derived, "best_rmax": best_rmax,
            "best_alpha": best_alpha, "champion_oma": champion_oma, "base_oma": base_oma,
            "yearly": yearly, "fit": fit, "inversions": inversions, "grid": grid, "curve": curve,
            "scenario": scenario, "required": required, "saturation": saturation,
            "bounds": limits, "written": written,
        }

    def check(self, item: dict, result: dict) -> str | None:
        if item["bad_line"] is not None:
            error = result.get("error")
            if not isinstance(error, MalformedRowError):
                return f"bad row at line {item['bad_line']} was not rejected"
            if error.line_num != item["bad_line"]:
                return f"rejected at line {error.line_num}, bad row is at {item['bad_line']}"
            return None
        if "error" in result:
            return f"good file rejected: {result['error']}"
        digest = self.digest(result)
        if digest == item["digest"]:
            return None
        problem = verify(item, result)
        if problem is None and item["digest"] is None:
            item["digest"] = digest
        return problem

    @staticmethod
    def digest(result: dict) -> str:
        """Fingerprint of a session's outputs, to compare later runs with a verified one."""
        h = hashlib.sha256(result["written"].encode())
        h.update(repr([d.one_minus_alpha_eff for d in result["derived"]]).encode())
        h.update(repr([
            [(r.year, r.rank, r.name) for r in result["best_rmax"]],
            [(r.year, r.rank, r.name) for r in result["best_alpha"]],
            result["yearly"], result["fit"], result["inversions"], result["grid"], result["curve"],
            result["scenario"], result["required"], result["saturation"], result["bounds"],
        ]).encode())
        return h.hexdigest()

    def layer_metrics(self, tracer) -> dict[str, float]:
        busy = tracer.self_times()
        counts = tracer.counts
        names = ("parse_records", "derive", "select_champions", "yearly_mean_efficiency",
                 "fit_semilog", "write_records")
        metrics = {f"dataset.{n}.busy_s": busy.get(f"dataset.{n}", 0.0) for n in names}
        metrics.update({
            "dataset.parse_records.rows_per_s":
                counts["dataset.parse_records.rows"] / metrics["dataset.parse_records.busy_s"],
            "dataset.write_records.rows_per_s":
                counts["dataset.write_records.rows"] / metrics["dataset.write_records.busy_s"],
            "dataset.derive.calls": counts["dataset.derive.calls"],
            "dataset.rejected_files": counts["dataset.rejected_files"],
            "core.inversions.calls": counts["core.inversions.calls"],
            "core.inversions.busy_s": busy.get("core.inversions", 0.0),
            "projection.project_curve.busy_s": busy.get("projection.project_curve", 0.0),
            "projection.geometric_grid.busy_s": busy.get("projection.geometric_grid", 0.0),
            "projection.scenarios.busy_s": busy.get("projection.scenarios", 0.0),
        })
        metrics["projection.project_curve.points_per_s"] = (
            counts["projection.project_curve.points"] / metrics["projection.project_curve.busy_s"]
        )
        return metrics


def reference_rows(text: str) -> list[tuple]:
    """Records as the documented format defines them, read with the csv module alone."""
    rows = []
    header_seen = False
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        year, rank, name, arch, cores, rmax, rpeak, bench = (c.strip() for c in row[:8])
        arch = {"mpp": "MPP", "cluster": "Cluster"}.get(arch.lower(), "Other")
        rows.append((int(year), int(rank), name, arch, int(cores), float(rmax), float(rpeak),
                     bench.upper()))
    return rows


def verify(item: dict, result: dict) -> str | None:
    """Check one session's outputs against references that do not use the package."""
    rows = reference_rows(item["text"])
    records = result["records"]
    got = [(r.year, r.rank, r.name, r.arch.value, r.cores, r.rmax, r.rpeak, r.benchmark.value)
           for r in records]
    if got != rows:
        return "parse_records output differs from the file"

    for d, (_, _, _, _, cores, rmax, rpeak, _) in zip(result["derived"], rows):
        if not oracle.close(d.efficiency.value, rmax / rpeak, 1e-12):
            return f"derive efficiency {d.efficiency.value!r} != {rmax / rpeak!r}"
        expected = oracle.serial_fraction(rmax, rpeak, cores)
        if not oracle.close(d.one_minus_alpha_eff, expected):
            return f"derive one_minus_alpha {d.one_minus_alpha_eff!r} != {expected!r}"

    by_year: dict[int, list[tuple]] = {}
    for year, rank, name, _, cores, rmax, rpeak, _ in rows:
        by_year.setdefault(year, []).append((rank, name, rmax, rpeak, cores))
    years = sorted(by_year)
    for key, best_rmax in (("best_rmax", True), ("best_alpha", False)):
        expected = [(y,) + oracle.champion(by_year[y], best_rmax)[:2] for y in years]
        if [(r.year, r.rank, r.name) for r in result[key]] != expected:
            return f"{key} champions differ from brute force"

    for row, year in zip(result["yearly"], years):
        cohort = sorted(by_year[year], key=lambda t: t[:2])[: item["top_n"]]
        mean, sd = oracle.mean_and_pstdev([rmax / rpeak for _, _, rmax, rpeak, _ in cohort])
        if row.year != year or not oracle.close(row.mean_efficiency, mean) \
                or not oracle.close(row.sd_efficiency, sd):
            return f"yearly mean efficiency for {year} differs"
    if len(result["yearly"]) != len(years):
        return "yearly mean efficiency misses years"

    champions = result["best_alpha"]
    reference_oma = [oracle.serial_fraction(c.rmax, c.rpeak, c.cores) for c in champions]
    slope, intercept, r2 = oracle.semilog_fit([(float(c.year), x) for c, x in zip(champions, reference_oma)])
    fit = result["fit"]
    mid = sum(c.year for c in champions) / len(champions)
    if fit.n != len(champions) or not oracle.close(fit.slope, slope, 1e-6) \
            or not oracle.close(fit.intercept + fit.slope * mid, intercept + slope * mid, 1e-6) \
            or not oracle.close(fit.r_squared, r2, 1e-6, 1e-9):
        return "fit_semilog differs from least squares"

    problem = check_inversions(champions, result["champion_oma"], result["inversions"])
    if problem:
        return problem
    return check_projection(item, result) or check_round_trip(rows, result["written"])


def check_inversions(champions, champion_oma, got: list) -> str | None:
    expected = []
    for a, b in zip(champions, champions[1:]):
        ea, eb = a.rmax / a.rpeak, b.rmax / b.rpeak
        sa = ea * a.cores
        expected.append((a.cores - sa) / ((a.cores - 1) * sa))
        expected.append(two_point(ea, a.cores, eb, b.cores))
        expected.append(two_timings(1.0 / sa, a.cores, 1.0 / (eb * b.cores), b.cores))
    for c, x in zip(champions, champion_oma):
        expected.append(two_point(c.rmax / c.rpeak, c.cores, oracle.efficiency(x, 2 * c.cores), 2 * c.cores))
        expected.append(1.0 / x)
    if len(got) != len(expected):
        return f"{len(got)} inversion results, expected {len(expected)}"
    for g, e in zip(got, expected):
        if isinstance(e, tuple):  # near a domain edge: the value or the error is right
            if not (g == e[1] or (isinstance(g, float) and oracle.close(g, e[0], 1e-6))):
                return f"inversion gave {g!r}, expected {e!r}"
        elif isinstance(e, str) or isinstance(g, str):
            if g != e:
                return f"inversion gave {g!r}, expected {e!r}"
        elif not oracle.close(g, e, 1e-6):
            return f"inversion gave {g!r}, expected {e!r}"
    return None


def _in_unit(x: float, error: str):
    """Expected outcome for a fraction that must lie in [0, 1]."""
    edge = 1e-9
    if -edge < x < edge or 1.0 - edge < x < 1.0 + edge:
        return (x, error)
    return x if 0.0 <= x <= 1.0 else error


def two_point(e1: float, k1: int, e2: float, k2: int):
    if k1 == k2:
        return "ValueError"
    slope = ((1.0 / e2 - 1.0) - (1.0 / e1 - 1.0)) / (k2 - k1)
    outcome = _in_unit(slope, "InconsistentMeasurementsError")
    # A slope of exactly 1 is rejected too.
    return "InconsistentMeasurementsError" if outcome == 1.0 else outcome


def two_timings(t1: float, k1: int, t2: float, k2: int):
    ratio = t1 / t2
    denom = (1.0 - 1.0 / k1) - ratio * (1.0 - 1.0 / k2)
    if denom == 0.0:
        return "InconsistentMeasurementsError"
    return _in_unit((ratio / k2 - 1.0 / k1) / denom, "InconsistentMeasurementsError")


def check_projection(item: dict, result: dict) -> str | None:
    base = result["best_rmax"][-1]
    x = result["base_oma"]
    grid = result["grid"]
    expected_grid = oracle.geometric(base.rpeak, base.rpeak * 1e3, item["points"])
    if len(grid) != len(expected_grid) or any(
        not oracle.close(g, e, 1e-12) for g, e in zip(grid, expected_grid)
    ):
        return "geometric_grid differs from the closed form"
    for point, rp in zip(result["curve"], grid):
        cores = oracle.projected_cores(base.cores, base.rpeak, rp)
        eff = oracle.efficiency(x, cores)
        if point.cores != cores or not oracle.close(point.efficiency, eff, 1e-12) \
                or not oracle.close(point.rmax, eff * rp, 1e-12) or point.rpeak != rp:
            return f"project_curve point at {rp!r} differs from the closed form"
    if len(result["curve"]) != len(grid):
        return "project_curve dropped points"

    scaled = x * item["alpha_scale"]
    target = base.rpeak * item["growth"]
    eff = oracle.efficiency(scaled, oracle.projected_cores(base.cores, base.rpeak, target))
    s = result["scenario"]
    if not (oracle.close(s.one_minus_alpha, scaled) and oracle.close(s.efficiency.value, eff)
            and oracle.close(s.rmax, eff * target)):
        return "whatif differs from the closed form"
    if not oracle.close(result["required"], (1.0 / item["target_eff"] - 1.0) / (10 * base.cores - 1)):
        return "required_one_minus_alpha differs from the closed form"
    per_core = base.rpeak / base.cores
    if not oracle.close(result["saturation"], per_core / x):
        return "saturation_rmax differs from the closed form"

    b = item["budget"]
    total = b["clock_hz"] * b["total_time_s"]
    propagation = 2.0 * b["physical_size_m"] / SPEED_OF_LIGHT_M_PER_S * b["clock_hz"]
    parts = [b["hardware_cycles"], b["os_cycles"], b["software_cycles"], propagation]
    fraction = math.fsum(parts) / total
    got = result["bounds"]
    if not (oracle.close(got.min_one_minus_alpha, fraction) and oracle.close(got.max_speedup, 1.0 / fraction)
            and oracle.close(got.saturation_flops, per_core * 1e9 / fraction)
            and oracle.close(got.breakdown["propagation"], propagation / math.fsum(parts))):
        return "bounds differ from the closed form"
    return None


def check_round_trip(rows: list[tuple], written: str) -> str | None:
    """write_records output must parse back to the same records plus correct derived columns."""
    back = parse_records(io.StringIO(written))
    if [(r.year, r.rank, r.name, r.arch.value, r.cores, r.rmax, r.rpeak, r.benchmark.value)
            for r in back] != rows:
        return "write_records output does not parse back to the input records"
    lines = [ln for ln in written.splitlines() if ln and not ln.startswith("#")][1:]
    for cells, (_, _, _, _, cores, rmax, rpeak, _) in zip(csv.reader(lines), rows):
        if not (oracle.close(float(cells[8]), rmax / rpeak, 1e-12)
                and oracle.close(float(cells[9]), oracle.serial_fraction(rmax, rpeak, cores))):
            return "write_records derived columns differ from the closed form"
    return None
