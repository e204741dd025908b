"""Record the golden answers of the exact workload's cells/poincare/strata queries.

    PYTHONPATH=src python3 perfbench/make_goldens.py

No independent route computes these outputs whole, so they are recorded once
from a trusted build and checked byte for byte (as a SHA-256 digest of the
canonical outputs) on every run.  Re-record only when the expected answers
change on purpose.
"""

import json

import workloads
from quivergrass.cli import run


def main():
    answers = {}
    for argv, _ in workloads.golden_argvs():
        code, text = run(argv + ["--format", "machine"])
        if code != 0:
            raise SystemExit(f"{argv}: exit {code}: {text}")
        answers[workloads.golden_key(argv)] = workloads.digest(json.loads(text)["outputs"])
    doc = {"note": "golden: recorded from the quivergrass 0.1.0 seed, not an "
                   "independent oracle; SHA-256 of the canonical outputs",
           "answers": answers}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
