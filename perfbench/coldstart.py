"""One cold start of a workload, timed from outside by run.py.

    python3 perfbench/coldstart.py WORKLOAD CONFIG_DIR

Imports the package, loads every generated config of the workload and
finishes one minimal request of the workload's kind.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(workload: str, config_dir: Path) -> None:
    from ruinbounds import load_model

    for path in sorted(config_dir.glob("*.json")):
        load_model(str(path))
    request = workloads.MINIMAL[workload]
    workloads.execute(request, config_dir, workloads.load_models(config_dir, [request]))


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
