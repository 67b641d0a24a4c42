"""Record the committed seed's outputs in ``pins.json``.

Usage, from the repository root::

    python3 perfbench/pin.py [workload ...]

Runs one pass of each named workload (default: all) on the committed
seed, refuses to pin a pass that fails its own or its reference checks,
and rewrites that workload's entry.  Re-pin only when a change is meant
to alter what the program computes; a change that should not must
leave ``pins.json`` untouched.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, bootstrap  # noqa: E402


def main(names) -> int:
    bootstrap()
    from perfbench.workloads import COMMITTED_SEED, WORKLOADS

    path = Path(__file__).resolve().parent / "pins.json"
    pins = json.loads(path.read_text())
    for name in names or sorted(WORKLOADS):
        work_root = ROOT / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        work_dir = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=work_root))
        workload = WORKLOADS[name](COMMITTED_SEED, work_dir)
        try:
            workload.setup()
            first = workload.run_pass(0)
            failures = first.failures + workload.check(first)
        finally:
            workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)
        if failures:
            print(f"{name}: not pinned: {failures}", file=sys.stderr)
            return 1
        pins[name] = first.outputs
        print(f"{name}: pinned {json.dumps(first.outputs)}")
    path.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(pins[name], sort_keys=True)}"
        for name in sorted(pins)) + "\n}\n")
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
