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
matches exactly.

Each gate also commits the allocation its run measured ("alloc": minor
words per commit for "gate", major words per commit for "layer_gate").
These repeat exactly on one build, but a compiler or runtime change can
move them, so the check fails only when a run allocates more than 20%
above the committed value.  Wall-clock metrics are noisy and are not
gated here; bench/pairs.py gates them against a parent checkout.
"""

import json
import subprocess
import sys

SECTIONS = ("gate", "layer_gate")
ALLOC_BOUND = 0.20


class PerfbenchError(Exception):
    pass


def run_perfbench(cmd, cwd=None):
    """Run a perfbench command (an argument list) and return the JSON result
    on its last output line; raise PerfbenchError unless the run exits 0 and
    reports "correct": true."""
    run = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise PerfbenchError("%s exited %d" % (" ".join(cmd), run.returncode))
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        raise PerfbenchError("%s: run not correct" % " ".join(cmd))
    return result


def check_section(path, section, gate):
    try:
        result = run_perfbench(gate["command"].split())
    except PerfbenchError as e:
        return ["%s: %s: %s" % (path, section, e)]
    got = {name: m.get("value") for name, m in result["metrics"].items()}
    errors = ["%s: %s: %s = %r, committed %r" % (path, section, name, got.get(name), want)
              for name, want in gate["metrics"].items() if got.get(name) != want]
    for name, committed in gate["alloc"].items():
        value = got.get(name)
        if value is None or value > committed * (1 + ALLOC_BOUND):
            errors.append("%s: %s: %s = %r, more than %d%% above committed %r" % (
                path, section, name, value, ALLOC_BOUND * 100, committed))
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
    print("gate: %d file(s), %s" % (len(sys.argv) - 1, "FAILED" if errors else "all gates pass"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
