#!/usr/bin/env python3
"""Compare two benchjson documents (schema grift-bench-v1).

Usage: bench_compare.py BASELINE.json [CURRENT.json] [--tolerance 0.5]
                        [--slo NAME:FIELD<=VALUE ...]

Exit status is non-zero when

  * a benchmark's median_ns regressed by more than the tolerance
    (default 50% — generous because CI machines are noisy; the point is
    to catch the order-of-magnitude regressions that dropping an inline
    cache or un-threading the dispatch loop would cause),
  * a deterministic counter changed at all — counters do not depend on
    machine speed, so any drift means the cast semantics or the
    allocation behaviour changed and the baseline must be regenerated
    deliberately. The counters checked are the ones a document lists
    under "exact" (benchjson writes the Exact entries of the counter
    table, src/support/Counters.def; griftload and storebench list
    none); in two-file mode at least one document must carry the list,
  * the CURRENT file violates a paper shape invariant (see below), or
  * an --slo gate fails (see below).

Every other field both rows carry (GC pause times, peak heap, the
griftload and storebench service-level fields) is run-dependent or
informational: a change is reported alongside the medians but never
fails a baseline comparison. Counters absent from one side (older
baselines) are skipped rather than treated as drift.

SLO gates (--slo, repeatable) enforce absolute bounds on the CURRENT
rows instead of relative drift. The spec is NAME:FIELD OP VALUE where
OP is <= or >= and NAME is a substring match against the row name:

    bench_compare.py --tolerance 0.5 base.json cur.json \
        --slo 'load/soak:p999_ns<=2000000000' \
        --slo 'load/soak:shed_rate_pct<=25' \
        --slo 'load/soak:ok>=100'

A gate may also bound a field *relative to the baseline's value for the
same row*: NAME:FIELD<=K*BASELINE multiplies the baseline row's FIELD
by K to get the bound. This is how CI phrases "the generational
collector's worst pause must stay within 10x of the old baseline's"
without hard-coding machine-dependent nanosecond values:

    bench_compare.py base.json cur.json \
        --slo 'gc/ray/gen:gc_pause_max_ns<=10*BASELINE'

Relative gates need a baseline row carrying the field, so they are
rejected in single-file mode.

When only SLOs matter (a load run with no perf baseline), CURRENT may
be omitted and the gates are applied to BASELINE's rows directly:

    bench_compare.py soak.json --slo 'load/soak:lost<=0'

A gate whose NAME matches no row is an error — a silently-skipped SLO
is worse than no SLO.

Shape invariants checked on CURRENT (paper Section 4.2 / Figure 4):

  * fig4/evenodd coercions: longest proxy chain stays at 1 — space
    efficiency means composition keeps chains flat.
  * fig4/evenodd/20000 type-based: longest chain is Theta(n) (>= 1000)
    — the baseline semantics really does build the bad chains.
  * fig4/evenodd coercions: inline-cache hit rate >= 90% — the per-site
    caches are doing their job on the monomorphic hot path.

Speedups and peak-heap changes are reported but never fail the run.
"""

import argparse
import json
import math
import re
import sys

# Row fields that are neither counters nor reported figures.
NOT_REPORTED = ("name", "mode", "median_ns")

SLO_RE = re.compile(r"^(?P<name>[^:]+):(?P<field>[A-Za-z0-9_]+)"
                    r"(?P<op><=|>=)(?P<value>-?[0-9.]+)"
                    r"(?P<rel>\*BASELINE)?$")


def load(path):
    """Rows keyed by (name, mode), and the document's exact counters."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "grift-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return ({(r["name"], r["mode"]): r for r in doc["results"]},
            doc.get("exact"))


def parse_slo(spec):
    m = SLO_RE.match(spec)
    if not m:
        sys.exit(f"bad --slo spec {spec!r}; expected NAME:FIELD<=VALUE, "
                 "NAME:FIELD>=VALUE, or NAME:FIELD<=K*BASELINE")
    return (m["name"], m["field"], m["op"], float(m["value"]),
            m["rel"] is not None)


def check_slos(current, slos, baseline=None):
    """Bounds on CURRENT rows; substring match on the name. Relative
    gates (K*BASELINE) scale the baseline row's value of the same field
    to get the bound."""
    errors = []
    for name_pat, field, op, factor, relative in slos:
        matched = False
        for (name, mode), row in sorted(current.items()):
            if name_pat not in name:
                continue
            matched = True
            if field not in row:
                errors.append(f"{name} [{mode}]: SLO field {field!r} "
                              "missing from the row")
                continue
            val = row[field]
            if relative:
                ref = (baseline or {}).get((name, mode), {}).get(field)
                if (not isinstance(ref, (int, float))
                        or isinstance(ref, bool) or math.isnan(ref)):
                    errors.append(
                        f"{name} [{mode}]: relative SLO on {field!r} "
                        f"needs a finite baseline value (got {ref!r})")
                    continue
                bound = factor * ref
            else:
                bound = factor
            # A gate over a null/NaN/non-numeric field must fail, not
            # silently pass: `None <= bound` raising (or NaN comparing
            # false both ways) means the harness stopped producing the
            # number the SLO exists to watch. bool is excluded — JSON
            # true/false in a gated field is a schema bug, not a metric.
            if (not isinstance(val, (int, float)) or isinstance(val, bool)
                    or math.isnan(val)):
                errors.append(f"{name} [{mode}]: SLO field {field!r} is "
                              f"not a finite number (got {val!r})")
                continue
            ok = val <= bound if op == "<=" else val >= bound
            verdict = "ok" if ok else "VIOLATED"
            print(f"SLO {name} [{mode}]: {field}={val} {op} {bound:g}  "
                  f"{verdict}")
            if not ok:
                errors.append(f"{name} [{mode}]: SLO {field}={val} "
                              f"violates {field}{op}{bound:g}")
        if not matched:
            errors.append(f"--slo {name_pat!r}: no row name contains "
                          f"{name_pat!r} (gate never applied)")
    return errors


def check_shapes(current):
    """Paper shape invariants on the CURRENT results."""
    errors = []
    for (name, mode), row in sorted(current.items()):
        if name.startswith("fig4/evenodd") and mode == "coercions":
            if row["longest_chain"] != 1:
                errors.append(
                    f"{name} [{mode}]: longest_chain = {row['longest_chain']}"
                    ", expected 1 (coercions must keep proxy chains flat)")
            probes = row["cache_hits"] + row["cache_misses"]
            if probes:
                rate = row["cache_hits"] / probes
                if rate < 0.9:
                    errors.append(
                        f"{name} [{mode}]: inline-cache hit rate "
                        f"{rate:.2%} < 90%")
    tb = current.get(("fig4/evenodd/20000", "type-based"))
    if tb is not None and tb["longest_chain"] < 1000:
        errors.append(
            f"fig4/evenodd/20000 [type-based]: longest_chain = "
            f"{tb['longest_chain']}, expected Theta(n) chain (>= 1000)")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?",
                    help="omit to apply --slo gates to BASELINE alone")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional median_ns regression "
                         "(default 0.5 = 50%%)")
    ap.add_argument("--slo", action="append", default=[],
                    metavar="NAME:FIELD<=VALUE",
                    help="absolute bound on a CURRENT row field; "
                         "NAME is a substring of the row name; "
                         "repeatable")
    args = ap.parse_args()

    slos = [parse_slo(s) for s in args.slo]

    errors = []
    base = None
    if args.current is None:
        # SLO-only mode: one file, no baseline diff.
        if not slos:
            ap.error("single-file mode requires at least one --slo")
        if any(s[4] for s in slos):
            ap.error("relative (K*BASELINE) SLOs need a baseline and a "
                     "current file")
        cur, _ = load(args.baseline)
    else:
        base, base_exact = load(args.baseline)
        cur, cur_exact = load(args.current)
        if base_exact is None and cur_exact is None:
            sys.exit("neither document lists its exact counters; "
                     "regenerate one with its current harness")
        counters = set((base_exact or []) + (cur_exact or []))
        for key in sorted(base):
            name, mode = key
            tag = f"{name} [{mode}]"
            if key not in cur:
                errors.append(f"{tag}: missing from {args.current}")
                continue
            b, c = base[key], cur[key]
            for counter in counters:
                if counter not in b or counter not in c:
                    continue  # older schema on one side: not drift
                if b[counter] != c[counter]:
                    errors.append(f"{tag}: {counter} changed "
                                  f"{b[counter]} -> {c[counter]} "
                                  "(deterministic counter; regenerate the "
                                  "baseline if this is intentional)")
            for field, val in b.items():
                if (field not in counters and field not in NOT_REPORTED
                        and field in c and c[field] != val):
                    print(f"{tag}: {field} {val} -> {c[field]} "
                          "(run-dependent; informational only)")
            ratio = c["median_ns"] / b["median_ns"] if b["median_ns"] else 1.0
            note = ""
            if ratio > 1.0 + args.tolerance:
                errors.append(
                    f"{tag}: median {b['median_ns']/1e6:.3f} ms -> "
                    f"{c['median_ns']/1e6:.3f} ms "
                    f"({ratio:.2f}x, tolerance {1 + args.tolerance:.2f}x)")
                note = "  REGRESSION"
            print(f"{tag:46s} {b['median_ns']/1e6:9.3f} -> "
                  f"{c['median_ns']/1e6:9.3f} ms  ({ratio:5.2f}x){note}")
        for key in sorted(cur):
            if key not in base:
                print(f"{key[0]} [{key[1]}]: new benchmark (no baseline)")
        errors += check_shapes(cur)

    errors += check_slos(cur, slos, base)

    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for e in errors:
            print(f"  * {e}", file=sys.stderr)
        return 1
    print("\nOK: within tolerance, counters stable, gates hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
