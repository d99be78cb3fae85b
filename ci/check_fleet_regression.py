#!/usr/bin/env python3
"""Guard against fleet-round throughput (and memory) regressions.

Usage: check_fleet_regression.py <baseline BENCH_fleet.json> <fresh BENCH_fleet.json>

Guarded series, compared at every point both files measured:

* **loopback**, keyed by device count, at 20% tolerance. Loopback is
  the pure verifier-side cost — no socket scheduling noise — so a
  regression there means the round pipeline itself got slower.
* **runtime**, keyed by (devices, connections, reactors), at 35%
  tolerance. Socket rounds ride the host scheduler, so the gate is
  looser; it exists to catch the runtime's reactor loop getting
  structurally slower (an extra copy per frame, a busy-wait), not
  single-digit jitter.
* **lifecycle**, keyed by (devices, cohort): epoch throughput at 35%
  tolerance, plus enrollment RSS at 1.5x — the memory-diet bound the
  100k–1M series exists to pin. Rows without `rss_bytes` (non-Linux
  hosts) skip the memory check.
* **sustained**, keyed by (devices, connections, reactors):
  steady-state sessions/sec over ≥30 consecutive rounds through one
  persistent `FleetRuntime`, at 35% tolerance, plus the post-soak RSS
  ceiling at 1.5x — a per-round leak in the persistent reactors shows
  up here multiplied by the round count. Rows without `rss_bytes`
  skip the memory check.

The gate passes as long as at least one series had a common point; a
lifecycle-only smoke file checked against a full baseline is fine.
"""

import json
import sys

LOOPBACK_TOLERANCE = 0.8  # fresh must reach this fraction of baseline
RUNTIME_TOLERANCE = 0.65
LIFECYCLE_TOLERANCE = 0.65
RSS_TOLERANCE = 1.5  # fresh RSS must stay under this multiple of baseline


def load(path):
    with open(path) as f:
        return json.load(f)


def loopback_rows(doc):
    return {
        row["devices"]: row["sessions_per_sec"]
        for row in doc["rounds"]
        if row["transport"] == "loopback"
    }


def runtime_rows(doc):
    return {
        (row["devices"], row["connections"], row["reactors"]): row["sessions_per_sec"]
        for row in doc["rounds"]
        if row["transport"] == "runtime"
    }


def lifecycle_rows(doc):
    return {
        (row["devices"], row.get("cohort", 0)): row
        for row in doc["rounds"]
        if row["transport"] == "lifecycle"
    }


def sustained_rows(doc):
    return {
        (row["devices"], row.get("connections", 1), row.get("reactors", 1)): row
        for row in doc["rounds"]
        if row["transport"] == "sustained"
    }


def check_series(name, baseline, fresh, tolerance, label):
    common = sorted(set(baseline) & set(fresh))
    failed = []
    for key in common:
        ratio = fresh[key] / baseline[key]
        print(
            f"{name} @ {label(key)}: baseline {baseline[key]:.0f}/s, "
            f"fresh {fresh[key]:.0f}/s ({ratio:.2f}x)"
        )
        if ratio < tolerance:
            failed.append(key)
    if failed:
        sys.exit(
            f"{name} sessions_per_sec regressed more than "
            f"{round((1 - tolerance) * 100)}% at {failed} vs the checked-in "
            "BENCH_fleet.json"
        )
    return bool(common)


def check_lifecycle(baseline, fresh):
    common = sorted(set(baseline) & set(fresh))
    failed = []
    for key in common:
        devices, cohort = key
        b, f = baseline[key], fresh[key]
        ratio = f["sessions_per_sec"] / b["sessions_per_sec"]
        note = ""
        if "rss_bytes" in b and "rss_bytes" in f:
            rss_ratio = f["rss_bytes"] / b["rss_bytes"]
            note = (
                f", rss {b['rss_bytes'] / 2**20:.1f} -> "
                f"{f['rss_bytes'] / 2**20:.1f} MiB ({rss_ratio:.2f}x)"
            )
            if rss_ratio > RSS_TOLERANCE:
                failed.append((key, "rss_bytes"))
        print(
            f"lifecycle @ {devices} devices / {cohort} cohort: "
            f"baseline {b['sessions_per_sec']:.0f}/s, "
            f"fresh {f['sessions_per_sec']:.0f}/s ({ratio:.2f}x){note}"
        )
        if ratio < LIFECYCLE_TOLERANCE:
            failed.append((key, "sessions_per_sec"))
    if failed:
        sys.exit(
            f"lifecycle regressed at {failed} vs the checked-in "
            f"BENCH_fleet.json (throughput floor "
            f"{LIFECYCLE_TOLERANCE}x, RSS ceiling {RSS_TOLERANCE}x)"
        )
    return bool(common)


def check_sustained(baseline, fresh):
    common = sorted(set(baseline) & set(fresh))
    failed = []
    for key in common:
        devices, connections, reactors = key
        b, f = baseline[key], fresh[key]
        ratio = f["sessions_per_sec"] / b["sessions_per_sec"]
        note = ""
        if "rss_bytes" in b and "rss_bytes" in f:
            rss_ratio = f["rss_bytes"] / b["rss_bytes"]
            note = (
                f", rss {b['rss_bytes'] / 2**20:.1f} -> "
                f"{f['rss_bytes'] / 2**20:.1f} MiB ({rss_ratio:.2f}x)"
            )
            if rss_ratio > RSS_TOLERANCE:
                failed.append((key, "rss_bytes"))
        print(
            f"sustained @ {devices}d/{connections}c/{reactors}r: "
            f"baseline {b['sessions_per_sec']:.0f}/s, "
            f"fresh {f['sessions_per_sec']:.0f}/s ({ratio:.2f}x){note}"
        )
        if ratio < RUNTIME_TOLERANCE:
            failed.append((key, "sessions_per_sec"))
    if failed:
        sys.exit(
            f"sustained regressed at {failed} vs the checked-in "
            f"BENCH_fleet.json (throughput floor "
            f"{RUNTIME_TOLERANCE}x, RSS ceiling {RSS_TOLERANCE}x)"
        )
    return bool(common)


def main():
    baseline = load(sys.argv[1])
    fresh = load(sys.argv[2])

    compared = check_series(
        "loopback",
        loopback_rows(baseline),
        loopback_rows(fresh),
        LOOPBACK_TOLERANCE,
        lambda devices: f"{devices} devices",
    )
    # Each further series is optional (the smoke modes measure
    # different subsets), but when both files measured a point it is
    # guarded.
    compared |= check_series(
        "runtime",
        runtime_rows(baseline),
        runtime_rows(fresh),
        RUNTIME_TOLERANCE,
        lambda key: f"{key[0]}d/{key[1]}c/{key[2]}r",
    )
    compared |= check_lifecycle(lifecycle_rows(baseline), lifecycle_rows(fresh))
    compared |= check_sustained(sustained_rows(baseline), sustained_rows(fresh))
    if not compared:
        sys.exit(
            "no series had a common point: "
            f"baseline measured {sorted({r['transport'] for r in baseline['rounds']})}, "
            f"fresh measured {sorted({r['transport'] for r in fresh['rounds']})}"
        )


if __name__ == "__main__":
    main()
