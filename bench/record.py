#!/usr/bin/env python3
"""Record the expected outcome of every op the benchmark can run.

    python3 bench/record.py

Runs each pool document under each command, and each census, against the
package in src/, and writes bench/expected.json: the exit status and a
sha256 prefix of stdout per op, and per census row.  Run it only when the
benchmark's inputs change, never to absorb a change of the program's output.

Each class must behave as designed, or recording stops: valid documents
exit 0 with every check passing, invalid ones exit 1 with nothing on stdout.
The crash classes raise at the commit that defined the benchmark; their
recorded outcome is the documented one for invalid input (exit 1, nothing
on stdout), so they count as failed until the program meets it.  Their
records carry a third field, CRASH_MARK: only these ops may raise without
making the run incorrect.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

INVALID = {"invalid"}
CRASH = {"crash_degree1", "crash_grf"}


def main() -> int:
    cli = run.import_cli()
    docs: dict[str, list] = {}
    problems = []
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        path = Path(tmp) / "doc.json"
        for workload in workloads.WORKLOAD_CLASSES:
            for cls, texts in workloads.all_pools(workload).items():
                times, raised = [], 0
                for text in texts:
                    path.write_text(text, encoding="utf-8")
                    for command, template in workloads.COMMANDS.items():
                        argv = [a.format(path=path) for a in template]
                        start = time.perf_counter()
                        status, stdout, exc = run.call_cli(cli.main, argv)
                        times.append(time.perf_counter() - start)
                        key = f"{command}:{workloads.doc_key(text)}"
                        if cls in CRASH:
                            raised += exc is not None
                            docs[key] = [1, run.digest(""), run.CRASH_MARK]
                            continue
                        want_status = 1 if cls in INVALID else 0
                        if exc or status != want_status or run.FAIL_MARK.search(stdout) or (
                            cls in INVALID and stdout
                        ):
                            problems.append((workload, cls, command, status, exc, text[:200]))
                        docs[key] = [status, run.digest(stdout)]
                times.sort()
                print(
                    f"{workload:10} {cls:14} docs={len(texts):4} "
                    f"median={times[len(times) // 2] * 1e3:8.2f} ms "
                    f"max={times[-1] * 1e3:8.2f} ms raised={raised}",
                    flush=True,
                )
    if problems:
        for p in problems:
            print("unexpected outcome:", p, file=sys.stderr)
        return 1

    census = {}
    for workload in workloads.CENSUS_LINES:
        warm = run.call_cli(cli.main, workloads.census_argv(workload, max_rows=1))
        start = time.perf_counter()
        status, stdout, exc = run.call_cli(cli.main, workloads.census_argv(workload))
        print(f"{workload} {time.perf_counter() - start:.2f} s", flush=True)
        if exc or status != 0 or warm[2] or warm[0] != 0 or run.FAIL_MARK.search(stdout):
            print(workload, "failed", status, exc, warm[0], warm[2], file=sys.stderr)
            return 1
        census[workload] = {
            "status": status,
            "digest": run.digest(stdout),
            "rows": [run.row_digest(r) for r in json.loads(stdout)],
            "warmup": [warm[0], run.digest(warm[1])],
        }
    out = {"census": census, "docs": dict(sorted(docs.items()))}
    (run.BENCH / "expected.json").write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
