#!/usr/bin/env python3
"""Driver for the semantic static-analysis suite (tools/analyze/).

Runs the four analyzers — layering, lock-order, atomics, guarded-by —
over src/, applies `lint:allow` waivers, reports stale waivers, and
prints findings as `path:line: [rule] message` (or a JSON document with
--json; .github/problem-matcher.json turns either tool's text output
into PR line annotations).

--self-test runs every seeded mutation fixture under
tools/analyze/fixtures/ and asserts that the expected rule fires on a
fixture file and the exit status is failing — the analyzers are
themselves tested code, same prove-the-checker-catches-it discipline
as the verify layer's mutation tests (tests/test_verify.cpp).

Exit codes: 0 clean, 1 findings, 2 harness error.

Usage: tools/analyze/run.py [--root DIR] [--json] [--self-test]
"""

import argparse
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from analyze import annotations, atomics, layering, lock_order
    from analyze.findings import (ANALYZE_RULES, apply_waivers,
                                  print_findings, stale_waiver_findings)
    from analyze.repo import Repo
else:
    from . import annotations, atomics, layering, lock_order
    from .findings import (ANALYZE_RULES, apply_waivers, print_findings,
                           stale_waiver_findings)
    from .repo import Repo

ANALYZERS = (layering, lock_order, atomics, annotations)

# fixture directory -> (rule its seeded mutation must trigger, the exact
# number of findings on the fixture's files, or None for "at least one").
FIXTURES = {
    "lock_inversion": ("lock-order", None),
    "upward_include": ("layering", None),
    "stripped_annotation": ("guarded-by", None),
    "unjustified_atomic": ("atomic-order", None),
    "shared_field_name": ("atomic-pairing", 1),
}


def analyze(root):
    """Returns (findings, files_scanned)."""
    repo = Repo(root)
    findings = []
    for analyzer in ANALYZERS:
        findings.extend(analyzer.run(repo))
    findings = apply_waivers(findings, repo.waivers)
    findings.extend(stale_waiver_findings(repo.waivers))
    return sorted(findings), len(repo.files)


def self_test(fixtures_dir):
    """Every fixture must fail with its expected rule (and, where one is
    given, exactly its expected number of findings); exit 0 iff so."""
    failures = []
    for name, (rule, count) in sorted(FIXTURES.items()):
        root = os.path.join(fixtures_dir, name)
        if not os.path.isdir(root):
            failures.append(f"{name}: fixture directory missing")
            continue
        # Only findings on the fixture's own files count: a fixture
        # declares a few modules, so the DAG's other modules are reported
        # as stale against tools/analyze/layering.py, which is no evidence
        # that the seeded mutation was caught.
        findings = [f for f in analyze(root)[0]
                    if os.path.isfile(os.path.join(root, f.path))]
        fired = sorted({f.rule for f in findings})
        if not findings:
            failures.append(f"{name}: analyzer found nothing "
                            f"(expected [{rule}])")
        elif rule not in fired:
            failures.append(f"{name}: expected [{rule}], fired {fired}")
        elif count is not None and len(findings) != count:
            failures.append(f"{name}: expected {count} finding(s), got "
                            f"{len(findings)}: "
                            + "; ".join(str(f) for f in findings))
        else:
            print(f"self-test {name}: OK — [{rule}] fired "
                  f"({len(findings)} finding(s))")
    for msg in failures:
        print(f"self-test FAILED: {msg}", file=sys.stderr)
    return 2 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="semantic static analysis over src/")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded mutation fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test(os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "fixtures"))

    findings, scanned = analyze(args.root)
    print_findings(findings, scanned, args.json)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
