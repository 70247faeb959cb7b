"""Rewrite inputs.json: the recorded SHA-256 of every pool table and the
`select` workload's six feature sets per table.

Run it from the repository root only when a change to the table generator
or to the selectors is meant to change what the benchmark measures:

    python3 perfbench/record.py
"""
import json
import sys
import tempfile
from pathlib import Path

from run import WORK_ROOT, add_program_path


def main() -> int:
    add_program_path()
    import workloads

    tables, selections = {}, {}
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        for seed in sorted({t for w in workloads.WORKLOADS.values() for t in w.pool}):
            path = workloads.write_table(work, seed)
            tables[str(seed)] = workloads.table_digest(path)
        for seed in workloads.Select.pool:
            pipe = workloads.experiments.build_pipeline(
                workloads.experiment_config(work / f"table_{seed}.csv", work)
            )
            selections[str(seed)] = {
                f"{code}-{search}": workloads.selection_names(pipe, code, search)
                for code, search in workloads.EXP2_SELECTORS
            }
    record = {"tables": tables, "selections": selections}
    workloads.INPUTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
