#!/usr/bin/env python3
"""Validate a rendered campaign-dashboard tree against its stores.

`wwtcmp_campaign serve <store>... --out <tree>` renders each store
into <tree>/<name>/{index.html, report.json, analysis.json,
analysis.txt} plus a root index. This checker re-derives the ground
truth from the store's results.jsonl (the same fold the C++ readers
use: the last record per scenario id wins) and asserts the rendered
tree agrees:

  - report.json carries the campaign-report/1 schema, and its summary
    block (scenarios / executed / cached) matches the folded store;
  - every folded scenario id appears in the campaign's index.html,
    and cached rows name their provenance source;
  - analysis.json carries the analysis/1 schema;
  - with --expect-executed N, the summary's executed count must be
    exactly N (CI uses 0 to prove a warm re-run adopted everything
    from the cache and executed nothing).

Exit code 0 on success; 1 with a diagnostic on the first mismatch.
"""

import argparse
import json
import os
import sys


def fail(msg: str) -> None:
    print(f"check_dashboard: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def fold_store(store: str) -> dict[str, dict]:
    """Latest record per scenario id in the store's results.jsonl."""
    latest: dict[str, dict] = {}
    with open(os.path.join(store, "results.jsonl"), encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                # Trailing interrupted append; the C++ readers
                # tolerate it too.
                continue
            latest[rec["scenario"]] = rec
    return latest


def check_store(tree: str, name: str, store: str,
                expect_executed: int | None) -> None:
    page_dir = os.path.join(tree, name)
    truth = fold_store(store)
    if not truth:
        fail(f"store {store} folded to zero records")

    rep_path = os.path.join(page_dir, "report.json")
    with open(rep_path, encoding="utf-8") as f:
        rep = json.load(f)
    if rep.get("schema") != "wwtcmp.campaign-report/1":
        fail(f"{rep_path}: bad schema {rep.get('schema')!r}")
    summary = rep.get("summary", {})
    cached = sum(1 for r in truth.values() if r.get("cached"))
    want = {"scenarios": len(truth),
            "executed": len(truth) - cached,
            "cached": cached}
    for key, value in want.items():
        if summary.get(key) != value:
            fail(f"{rep_path}: summary.{key} = {summary.get(key)}, "
                 f"store says {value}")
    if expect_executed is not None and summary["executed"] != expect_executed:
        fail(f"{rep_path}: executed = {summary['executed']}, "
             f"expected exactly {expect_executed}")
    ids_in_report = {s["id"] for s in rep.get("scenarios", [])}
    if ids_in_report != set(truth):
        fail(f"{rep_path}: scenario ids {sorted(ids_in_report)} != "
             f"store {sorted(truth)}")

    html_path = os.path.join(page_dir, "index.html")
    with open(html_path, encoding="utf-8") as f:
        html = f.read()
    for sid, rec in truth.items():
        if sid not in html:
            fail(f"{html_path}: scenario {sid!r} not rendered")
        if rec.get("cached") and rec.get("cache_source", "") not in html:
            fail(f"{html_path}: cached row {sid!r} lacks provenance "
                 f"{rec.get('cache_source')!r}")

    ana_path = os.path.join(page_dir, "analysis.json")
    with open(ana_path, encoding="utf-8") as f:
        ana = json.load(f)
    if ana.get("schema") != "wwtcmp.analysis/1":
        fail(f"{ana_path}: bad schema {ana.get('schema')!r}")

    print(f"check_dashboard: {name}: {len(truth)} scenario(s), "
          f"{cached} cached — OK")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("tree", help="rendered dashboard directory")
    ap.add_argument("stores", nargs="+",
                    help="store directories, as passed to serve")
    ap.add_argument("--expect-executed", type=int, default=None,
                    help="require this exact executed count in every "
                         "store's report.json summary")
    args = ap.parse_args()

    root = os.path.join(args.tree, "index.html")
    if not os.path.exists(root):
        fail(f"missing root page {root}")

    names = []
    for store in args.stores:
        name = os.path.basename(os.path.normpath(store))
        # serve disambiguates duplicate basenames with -2, -3, ...
        suffix = 2
        while name in names:
            name = f"{name}-{suffix}"
            suffix += 1
        names.append(name)
        check_store(args.tree, name, store, args.expect_executed)

    print("check_dashboard: OK")


if __name__ == "__main__":
    main()
