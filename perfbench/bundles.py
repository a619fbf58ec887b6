"""Digests of `singfold report` bundles, and perfbench/expected.json.

    PYTHONPATH=src python3 -m singfold.cli report --out /tmp/reports
    python3 perfbench/bundles.py /tmp/reports

records each bundle's sha256, each section's sha256 (sorted-key JSON) and the
report fingerprint, `sha256sum reports/*.json | awk '{print $1}' | sha256sum`.
Only rerun it when a change is meant to alter the report, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(report_dir: str):
    """(file digests, per-case section digests, bundles) of a report."""
    files, sections, bundles = {}, {}, {}
    for name in sorted(os.listdir(report_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(report_dir, name), "rb") as fh:
            data = fh.read()
        files[name] = _sha(data)
        bundles[name] = bundle = json.loads(data)
        if name != "summary.json":
            sections[bundle["case"]] = {
                sec: _sha(json.dumps(body, sort_keys=True).encode())
                for sec, body in bundle["sections"].items()}
    return files, sections, bundles


def fingerprint(files: dict) -> str:
    return _sha("".join(f"{files[n]}\n" for n in sorted(files)).encode())


def main(report_dir: str) -> None:
    files, sections, bundles = digests(report_dir)
    summary = bundles.get("summary.json", {})
    if summary.get("seed") != 0 or not summary.get("ok"):
        raise SystemExit("need a passing seed-0 report")
    out = {"fingerprint": fingerprint(files), "files": files,
           "sections": sections}
    with open(EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out["fingerprint"])


if __name__ == "__main__":
    main(sys.argv[1])
