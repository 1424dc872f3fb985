"""Write reference.json: every request's rows at the default seed.

    python3 perfbench/freeze.py

The frozen rows are the correctness reference of check.py. Regenerate them
only when a change is meant to alter the package's results, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        configs, requests = workloads.build(workload, workloads.DEFAULT_SEED)
        config_dir = HERE / "out" / f"{workload}-seed{workloads.DEFAULT_SEED}" / "configs"
        workloads.write_configs(configs, config_dir)
        models = workloads.load_models(config_dir, requests)
        outputs = [[workloads.execute(r, config_dir, models)] for r in requests]
        bad = [(r, why) for r, why in zip(requests, check.gate(requests, outputs, None)) if why]
        if bad:
            for request, why in bad:
                print(f"{workloads.key(request)}: {why}", file=sys.stderr)
            return 1
        reference[workload] = {workloads.key(r): out[0] for r, out in zip(requests, outputs)}
        print(f"{workload}: {len(requests)} requests")
    check.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
