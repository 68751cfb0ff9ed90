#!/usr/bin/env python3
"""Check the committed benchmark gate values.

    python3 bench/gate.py BENCH_bank-seq.json [BENCH_....json ...]

Each BENCH_<workload>.json at the root of the checkout holds two gates,
each a perfbench command and the deterministic metrics it printed:
"gate" (untraced: simulated throughput and latency, messages, aborts,
committed ratio) and "layer_gate" (traced: the per-layer simulated counts
and times, such as events and messages of each kind per commit).  These
are fixed by the seed, so the check reruns each command from the root of
the checkout and fails unless the run is correct and every gated value
matches exactly.  Wall-clock and GC metrics are noisy and are not gated
here; the "trajectory" section records them.
"""

import json
import subprocess
import sys

SECTIONS = ("gate", "layer_gate")


def check_section(path, section, gate):
    run = subprocess.run(gate["command"].split(), stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return ["%s: %s exited %d" % (path, gate["command"], run.returncode)]
    result = json.loads(lines[-1])
    errors = [] if result["correct"] is True else ["%s: %s run not correct" % (path, section)]
    for name, want in gate["metrics"].items():
        got = result["metrics"].get(name, {}).get("value")
        if got != want:
            errors.append("%s: %s: %s = %r, committed %r" % (path, section, name, got, want))
    return errors


def check(path):
    with open(path) as f:
        bench = json.load(f)
    missing = [s for s in SECTIONS if s not in bench]
    if missing:
        return ["%s: no %s" % (path, " or ".join(missing))]
    return [e for s in SECTIONS for e in check_section(path, s, bench[s])]


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    errors = [e for path in sys.argv[1:] for e in check(path)]
    for e in errors:
        print("gate: " + e, file=sys.stderr)
    print("gate: %d file(s), %s" % (len(sys.argv) - 1, "FAILED" if errors else "all values match"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
