"""Committed expected outputs per workload, and the check against them.

A run's outputs are reduced to one record per command: `exact` fields (exit
code, verdicts, skipped families) that must match exactly, and `values` (max
residuals, training residuals, rollout errors) that must match to
`atol + rtol * |reference|`. The compare entry also holds the ranking of the
formulations by training residual, which must hold up to near-ties.

The fits depend on the dataset seed, and so do most values. For each seed the
reference was made from, the values are pinned with rtol 1e-9, so roundoff
from reordered arithmetic passes and little else does. For any other seed a
value must lie in the band seen across those seeds: its `rtol` is three times
the largest relative deviation from the median (at least 1e-9, so values that
do not depend on the seed stay pinned). `atol` sits well below the 1e-6
verdict tolerance and covers residuals at roundoff.

Regenerate after an intended change of outputs:

    python3 benchmarks/reference.py --workload duffing-rk4 --size full --seeds 0-31
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ATOL = 1e-9
PINNED_RTOL = 1e-9
TIE_RTOL = 1e-6  # training residuals this close rank equal (affine = separable)


def path_for(workload: str, size: str) -> Path:
    return HERE / "references" / f"{workload}-{size}.json"


def _put(record: dict, key: str, value) -> None:
    """File a number under `values`, or under `exact` when not finite."""
    if isinstance(value, float) and math.isfinite(value):
        record["values"][key] = value
    else:
        record["exact"][key] = repr(value)


def observe(label: str, exit_code, stdout: str, out_dir: Path) -> dict:
    """Reduce one command's exit code and output files to a record."""
    record = {"exact": {"exit": exit_code}, "values": {}}
    command = label.split(":")[0]
    if exit_code not in (0, 1):
        return record
    if command == "simulate":
        envelope = json.loads((out_dir / "dataset.json").read_text())
        record["exact"]["n_samples"] = envelope["n_samples"]
    elif command == "fit":
        for path in sorted(out_dir.glob("model-*.json")):
            meta = json.loads(path.read_text())["metadata"]
            _put(record, f"{path.stem}.training_residual", float(meta["training_residual"]))
    elif command == "check":
        skipped = sorted(line.split(":")[0].split()[1] for line in stdout.splitlines()
                         if line.startswith("skipped "))
        record["exact"]["skipped"] = " ".join(skipped)
        for report in json.loads((out_dir / "reports.json").read_text())["reports"]:
            cid = report["condition"]
            record["exact"][f"{cid}.verdict"] = report["verdict"]
            _put(record, f"{cid}.max_residual", float(report["max_residual"]))
    elif command == "compare":
        with open(out_dir / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            name = row["formulation"]
            record["exact"][f"{name}.verdict"] = row["verdict"]
            for field in ("train_residual", "rmse_1", "rmse_5", "rmse_20",
                          "worst_consistency"):
                _put(record, f"{name}.{field}", float(row[field]))
    return record


def mismatches(observed: dict, expected: dict, atol: float, pinned=None) -> list:
    """Differences between one command's record and its reference entry.

    `pinned` holds this seed's reference values, when the seed has them.
    """
    problems = []
    if observed["exact"] != expected["exact"]:
        keys = sorted(set(observed["exact"]) | set(expected["exact"]))
        for key in keys:
            got, want = observed["exact"].get(key), expected["exact"].get(key)
            if got != want:
                problems.append(f"{key}: got {got!r}, expected {want!r}")
    if set(observed["values"]) != set(expected["values"]):
        problems.append(f"value keys differ: got {sorted(observed['values'])}, "
                        f"expected {sorted(expected['values'])}")
        return problems
    ranking = expected.get("ranking", [])
    for better, worse in zip(ranking, ranking[1:]):
        a = observed["values"][f"{better}.train_residual"]
        b = observed["values"][f"{worse}.train_residual"]
        if a > b * (1.0 + TIE_RTOL):
            problems.append(f"ranking: {better} ({a!r}) should not fit worse than "
                            f"{worse} ({b!r})")
    for key, (center, rtol) in expected["values"].items():
        if pinned is not None:
            center, rtol = pinned[key], PINNED_RTOL
        got = observed["values"][key]
        if not abs(got - center) <= atol + rtol * abs(center):
            problems.append(f"{key}: got {got!r}, expected {center!r} within rtol {rtol:g}")
    return problems


def build(records_by_seed: dict) -> dict:
    """Reference entries from {seed: {label: record}} over several seeds."""
    seeds = sorted(records_by_seed)
    first = records_by_seed[seeds[0]]
    commands = {}
    for label in first:
        exact = first[label]["exact"]
        for seed in seeds[1:]:
            other = records_by_seed[seed][label]["exact"]
            if other != exact:
                raise SystemExit(f"{label}: exact outputs differ between seeds "
                                 f"{seeds[0]} and {seed}: {exact} vs {other}")
        values = {}
        for key in first[label]["values"]:
            samples = [records_by_seed[s][label]["values"][key] for s in seeds]
            center = statistics.median(samples)
            spread = max(abs(v - center) for v in samples)
            rtol = 3.0 * spread / abs(center) if abs(center) > ATOL else 0.0
            values[key] = [center, float(f"{max(rtol, PINNED_RTOL):.2g}")]
        commands[label] = {"exact": exact, "values": values}
        if label == "compare":
            residuals = {key.split(".")[0]: center for key, (center, _) in values.items()
                         if key.endswith(".train_residual")}
            commands[label]["ranking"] = sorted(residuals, key=residuals.get)
            for seed in seeds:
                bad = mismatches(records_by_seed[seed][label], commands[label], ATOL)
                if any(p.startswith("ranking") for p in bad):
                    raise SystemExit(f"compare ranking does not hold for seed {seed}: {bad}")
    pinned = {str(seed): {label: record["values"] for label, record in records.items()}
              for seed, records in sorted(records_by_seed.items())}
    return {"commands": commands, "pinned": pinned}


def _seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    import run  # the harness that runs a pipeline once per seed

    parser = argparse.ArgumentParser(description="Regenerate a workload's reference outputs.")
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--seeds", default="0-31", help="range 'a-b' or list 'a,b,c'")
    args = parser.parse_args(argv)

    seeds = _seed_list(args.seeds)
    records = {seed: run.observe_once(args.workload, seed, args.size) for seed in seeds}
    doc = {
        "workload": args.workload,
        "size": args.size,
        "seeds": seeds,
        "atol": ATOL,
        **build(records),
    }
    path = path_for(args.workload, args.size)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
