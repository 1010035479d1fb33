"""Write references.json: each workload's round digest for seeds 0..SEEDS-1,
made from the current qsum sources on this platform.

    python3 perfbench/make_references.py

Regenerate it only in a change meant to alter qsum's output.  A speed-up
must reproduce the stored digests bit for bit; ``run.py`` counts every
operation of a round whose digest differs as failed.
"""

import json

import run

SEEDS = 64


def main() -> None:
    run.import_program()
    import workloads

    digests = {}
    for name in workloads.NAMES:
        digests[name] = {}
        for seed in range(SEEDS):
            result = run.run_rounds(workloads.build(name, seed))
            if result.failed:
                raise SystemExit(f"{name} seed {seed}: {result.problems[0]}")
            digests[name][str(seed)] = result.digests[0]
    run.REFERENCES.write_text(
        json.dumps({"platform": run.platform_key(), "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
