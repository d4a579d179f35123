"""Record bench/reference.json from the current sources.

    python3 bench/make_reference.py

Stores, for each size and workload, the sha256 of the report bytes, and
the corollary-5 left-hand sides the reconcile table generator plants.
Run it only at a commit whose reports are known to be right: the
benchmark then fails any later commit whose reports differ.  The
independent checks in bench/workloads.py run on every report recorded
here too.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from reflectron.reflection import corollary5_predict  # noqa: E402


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    dmax = max(sizes["reconcile"] for sizes in workloads.SIZES.values())
    reference = {
        "corollary5_lhs": {
            str(d): corollary5_predict(d).lhs_value for d in workloads.corollary5_scope(dmax)
        },
        "digests": {},
    }
    for size in workloads.SIZES:
        digests = reference["digests"][size] = {}
        for name in workloads.NAMES:
            for seed in (0, 1):
                workload = workloads.build(name, size, seed, run.OUT, reference)
                inv = run.invoke(workload.argvs[0])
                reason = f"exit code {inv.code}" if inv.code else workloads.check(
                    workload, inv.report, reference
                )
                if reason:
                    print(f"{size} {name}: {reason}", file=sys.stderr)
                    return 1
                digest = hashlib.sha256(inv.report).hexdigest()
                if digests.setdefault(name, digest) != digest:
                    print(f"{size} {name}: report depends on the seed", file=sys.stderr)
                    return 1
                print(f"{size} {name} seed {seed}: {digest} ({inv.wall_s:.2f} s)")
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
