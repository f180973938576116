#!/usr/bin/env python3
"""Gate the bench bins' artifacts: deterministic checks, same-run timing
ratios, and the two wall-clock baselines perfbench does not cover.

Wall-clock throughput of the fleet and service runners is measured by
perfbench (``BENCHMARK.json``) and gated pair-wise against the base
commit by ``scripts/perf_pairs.py``; nothing here compares a fleet or
service rate with a committed number.

Gates on ``--fleet`` (``fleet_bench`` + ``service_bench`` output):

- fleet: per-home results identical across worker counts; every morning
  row has a positive rate; on a machine with more than one core the best
  multi-worker rate beats the single-worker rate of the same run.
- steal_vs_static: the neighborhood fleet at 2 and 4 workers reproduces
  the sequential reference per home, outages hit some homes, and the
  modeled stealing speedup over static round-robin is >=
  ``--min-steal-speedup`` (default 1.2). The model's per-home costs are
  event counts, so the ratio is a pure function of the fleet.
- journal: journaled per-home digests equal the unjournaled ones, and
  the journaled rate is >= ``--min-journal-ratio`` (default 0.5) of the
  same run's unjournaled single-worker rate.
- lint: the lint-gated fleet reproduces the ungated one, bundled homes
  carry no Error-severity diagnostic, and lints/sec is >=
  ``--min-lint-ratio`` (default 0.25) of the committed baseline.
- service: per-home results identical across worker counts and to the
  batch fleet driver; >= 2 load points, each with finite latency
  percentiles, a non-empty histogram and offered >= committed + aborted;
  each load point's p99 (simulated milliseconds, machine-independent) is
  <= ``--max-service-p99-ratio`` (default 1.25) of the baseline.
- service.steal: steal on/off and the sequential reference agree per
  home, idle workers stole slices, and the modeled stealing speedup on
  the skewed fleet (event-count costs) is >= ``--min-steal-makespan-ratio``
  (default 1.2).
- service.eviction: the budget-evicted run equals the never-evicted one,
  evictions and recoveries both happened, peak residency sits below the
  unbounded run's, and an evicted home holds fewer bytes than a resident
  one.

Gates on ``--placement`` (``placement_bench`` output): each Fig. 15d
point's median is <= ``--max-slowdown`` (default 2.5) of the baseline.

Per-home digest sidecars (``BENCH_fleet.digests.tsv``) must be identical
to the committed one unless the fresh fleet JSON carries
``expect_digest_change: true`` (``fleet_bench --expect-digest-change``)
or ``--expect-digest-change`` is passed. Digests are
machine-independent, so in CI a diff always means the committed sidecar
is stale.

Updating the baselines after an intentional change::

    cargo run -p safehome-bench --release --bin placement_bench BENCH_placement.json
    cargo run -p safehome-bench --release --bin fleet_bench BENCH_fleet.json
    cargo run -p safehome-bench --release --bin service_bench BENCH_fleet.json

Exit status: 0 when every gate passes, 1 otherwise (all failures are
listed, not just the first).
"""

import argparse
import json
import math
import sys

failures = []


def check(cond, msg):
    if cond:
        print(f"ok: {msg}")
    else:
        failures.append(msg)
        print(f"FAIL: {msg}", file=sys.stderr)


def load(path):
    with open(path) as f:
        return json.load(f)


def check_placement(new, base, max_slowdown):
    by_commands = {r["commands"]: r for r in base["results"]}
    for row in new["results"]:
        b = by_commands.get(row["commands"])
        if b is None:
            continue
        check(
            row["median_us"] <= b["median_us"] * max_slowdown,
            f"fig15d @ {row['commands']} commands: {row['median_us']}us "
            f"<= {max_slowdown}x baseline ({b['median_us']}us)",
        )


def check_fleet(new, min_steal_speedup):
    check(
        new["deterministic_across_workers"] is True,
        "fleet: per-home results identical across worker counts",
    )
    rates = [r["homes_per_sec"] for r in new["results"]]
    check(all(r > 0 for r in rates), f"fleet: every row has a positive rate {rates}")
    if new["available_parallelism"] > 1:
        check(
            new["speedup_best_multi_over_single"] > 1.0,
            f"fleet: best multi-worker rate {new['speedup_best_multi_over_single']}x "
            f"the single-worker rate of the same run > 1 "
            f"({new['available_parallelism']} cores)",
        )
    svs = new["steal_vs_static"]
    check(
        svs["deterministic_across_workers"] is True,
        "neighborhood: stealing at 2 and 4 workers reproduces the sequential reference",
    )
    check(svs["affected_homes"] > 0, f"neighborhood: {svs['affected_homes']} homes hit by outages")
    ratio = svs["modeled_makespan"]["stealing_speedup_over_static"]
    check(
        ratio >= min_steal_speedup,
        f"neighborhood: stealing {ratio}x static (modeled on event counts) "
        f">= {min_steal_speedup}x",
    )


def check_journal(new, min_journal_ratio):
    section = new["journal"]
    check(
        section["digest_neutral"] is True,
        "journal: journaled per-home digests identical to unjournaled runs",
    )
    ratio = section["overhead_ratio_vs_unjournaled"]
    check(
        ratio >= min_journal_ratio,
        f"journal: {section['homes_per_sec_single']} homes/sec journaled = {ratio}x "
        f"the same run's unjournaled single-worker rate "
        f"({section['unjournaled_homes_per_sec_single']}) >= {min_journal_ratio}x",
    )


def check_lint(new, base, min_lint_ratio):
    section = new["lint"]
    check(
        section["gate_digest_neutral"] is True,
        "lint: gated fleet reproduces ungated per-home results byte for byte",
    )
    check(section["errors"] == 0, "lint: bundled template homes carry no Error-severity diagnostics")
    floor = base["lint"]["lints_per_sec"] * min_lint_ratio
    check(
        section["lints_per_sec"] >= floor,
        f"lint: {section['lints_per_sec']} lints/sec "
        f">= {min_lint_ratio}x baseline ({base['lint']['lints_per_sec']})",
    )


def check_service(new, base, max_service_p99_ratio, min_steal_makespan_ratio):
    section = new["service"]
    check(
        section["deterministic_across_workers"] is True,
        "service: per-home results identical across worker counts",
    )
    check(
        section["matches_batch_fleet"] is True,
        "service: resident time-sliced results identical to the batch fleet driver",
    )
    points = section["load_points"]
    check(len(points) >= 2, f"service: >= 2 load points recorded (got {len(points)})")
    base_points = {p["rate_per_home_hour"]: p for p in base["service"]["load_points"]}
    for point in points:
        rate = point["rate_per_home_hour"]
        lat = point["latency_ms"]
        for q in ("p50", "p95", "p99", "p999"):
            v = lat.get(q)
            check(
                isinstance(v, (int, float)) and math.isfinite(v) and v >= 0,
                f"service @ {rate}/h: latency {q} present and finite ({v})",
            )
        check(lat["count"] > 0, f"service @ {rate}/h: {lat['count']} latency samples")
        check(
            point["offered"] >= point["committed"] + point["aborted"],
            f"service @ {rate}/h: offered {point['offered']} >= committed "
            f"{point['committed']} + aborted {point['aborted']}",
        )
        b = base_points.get(rate)
        if b is not None:
            ceiling = b["latency_ms"]["p99"] * max_service_p99_ratio
            check(
                lat["p99"] <= ceiling,
                f"service @ {rate}/h: p99 {lat['p99']}ms (simulated) "
                f"<= {max_service_p99_ratio}x baseline ({b['latency_ms']['p99']}ms)",
            )

    steal = section["steal"]
    check(
        steal["schedules_agree"] is True,
        "service: steal on/off reproduce the sequential reference per home",
    )
    check(steal["steals"] > 0, f"service: idle workers stole slices ({steal['steals']} steals)")
    ratio = steal["modeled_makespan"]["stealing_speedup_over_static"]
    check(
        ratio >= min_steal_makespan_ratio,
        f"service: stealing {ratio}x static (modeled on event counts, skewed fleet) "
        f">= {min_steal_makespan_ratio}x",
    )

    ev = section["eviction"]
    check(ev["digest_neutral"] is True, "service: budget-evicted run identical to the never-evicted run")
    check(
        ev["evictions"] > 0 and ev["recoveries"] > 0,
        f"service: eviction fired ({ev['evictions']} evictions, {ev['recoveries']} recoveries)",
    )
    check(
        ev["peak_resident_homes"] < ev["peak_resident_homes_unbounded"],
        f"service: resident budget binds (peak {ev['peak_resident_homes']} < unbounded "
        f"peak {ev['peak_resident_homes_unbounded']})",
    )
    check(
        ev["approx_evicted_home_bytes"] < ev["approx_resident_home_bytes"],
        f"service: evicted home ~{ev['approx_evicted_home_bytes']} bytes < resident "
        f"~{ev['approx_resident_home_bytes']} bytes",
    )


def diff_digest_sidecars(new_path, base_path, expect_digest_change):
    def parse(path):
        rows = {}
        with open(path) as fh:
            for line in fh:
                if line.startswith("#") or not line.strip():
                    continue
                section, home, seed, digest = line.split("\t")
                rows[(section, int(home))] = (seed, digest.strip())
        return rows

    new_rows, base_rows = parse(new_path), parse(base_path)
    changed = [k for k in sorted(base_rows) if k in new_rows and new_rows[k] != base_rows[k]]
    missing = sorted(set(base_rows) - set(new_rows))
    added = sorted(set(new_rows) - set(base_rows))
    if not (changed or missing or added):
        print(f"ok: per-home digests identical ({len(base_rows)} baseline homes)")
        return
    summary = ", ".join(f"{s}:{h}" for s, h in changed[:10])
    details = (
        f"{len(changed)} home(s) changed digest vs baseline"
        + (f" (first: {summary})" if changed else "")
        + (f", {len(missing)} missing, {len(added)} added" if (missing or added) else "")
    )
    if expect_digest_change:
        print(f"note: {details} — expected (expect_digest_change marker present)")
    else:
        check(
            False,
            f"per-home digest sidecar: {details}; rerun fleet_bench with "
            "--expect-digest-change and re-commit the sidecar if the change is intentional",
        )


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--fleet", required=True, help="fresh fleet_bench + service_bench JSON")
    ap.add_argument("--placement", required=True, help="fresh placement_bench JSON")
    ap.add_argument("--baseline-fleet", default="BENCH_fleet.json")
    ap.add_argument("--baseline-placement", default="BENCH_placement.json")
    ap.add_argument("--digests", required=True, help="fresh BENCH_fleet.digests.tsv sidecar")
    ap.add_argument("--baseline-digests", default="BENCH_fleet.digests.tsv")
    ap.add_argument("--expect-digest-change", action="store_true")
    ap.add_argument("--max-slowdown", type=float, default=2.5)
    ap.add_argument("--min-journal-ratio", type=float, default=0.5)
    ap.add_argument("--min-lint-ratio", type=float, default=0.25)
    ap.add_argument("--min-steal-speedup", type=float, default=1.2)
    ap.add_argument("--max-service-p99-ratio", type=float, default=1.25)
    ap.add_argument("--min-steal-makespan-ratio", type=float, default=1.2)
    args = ap.parse_args()

    check_placement(load(args.placement), load(args.baseline_placement), args.max_slowdown)
    new_fleet, base_fleet = load(args.fleet), load(args.baseline_fleet)
    check_fleet(new_fleet, args.min_steal_speedup)
    check_journal(new_fleet, args.min_journal_ratio)
    check_lint(new_fleet, base_fleet, args.min_lint_ratio)
    check_service(
        new_fleet, base_fleet, args.max_service_p99_ratio, args.min_steal_makespan_ratio
    )
    diff_digest_sidecars(
        args.digests,
        args.baseline_digests,
        args.expect_digest_change or new_fleet.get("expect_digest_change") is True,
    )

    if failures:
        print(f"\n{len(failures)} bench gate(s) failed", file=sys.stderr)
        return 1
    print("\nall bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
