"""Record the reference answers the benchmark checks against.

Runs every fixed query of every workload once through ``uptail.cli.run``
and writes ``perfbench/reference.json``: workload -> query -> {code, stdout}.
The file is recorded once, from the commit that introduced the benchmark,
and is not regenerated by later changes: a change that alters an answer
shows up as a failed query.

Usage (from the root of a checkout): python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    if not probe.have_source():
        print(f"no uptail source at {probe.SRC}", file=sys.stderr)
        return 2
    os.environ["UPTAIL_THREADS"] = workloads.THREADS
    _, uptail = probe.setup([])
    out = {}
    for workload in sorted(workloads.WORKLOADS):
        out[workload] = {}
        for query in workloads.reference_pool(workload):
            execution = run.answer(uptail.cli, query.split(), None)
            if execution.code != 0:
                print(f"warning: exit {execution.code}: {query}", file=sys.stderr)
            out[workload][query] = {"code": execution.code, "stdout": execution.stdout}
            print(f"{execution.seconds * 1e3:9.1f} ms  {query}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
